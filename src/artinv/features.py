"""Acoustic front end and target preparation.

Three per-utterance streams share one frame clock: 39-dim MFCC features
(13 cepstra plus delta and delta-delta), 39-dim phoneme one-hots read off
forced-alignment interval files, and 12-channel articulator trajectories
resampled to acoustic frame centers.  Frame i is centered at
``(i + 0.5) * hop`` seconds throughout.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import struct
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .errors import DataError, UsageError

# Stress-free ARPAbet inventory (39 symbols), alphabetical and stable.
ARPABET_39 = (
    "AA", "AE", "AH", "AO", "AW", "AY", "B", "CH", "D", "DH", "EH", "ER",
    "EY", "F", "G", "HH", "IH", "IY", "JH", "K", "L", "M", "N", "NG", "OW",
    "OY", "P", "R", "S", "SH", "T", "TH", "UH", "UW", "V", "W", "Y", "Z", "ZH",
)
PHONEME_INDEX = {label: i for i, label in enumerate(ARPABET_39)}

# Labels that mark non-speech; these map to the all-zero phoneme vector.
SILENCE_LABELS = frozenset({"", "sil", "sp", "spn", "pau", "h#"})

EMA_CHANNELS = (
    "T1_x", "T1_z", "T2_x", "T2_z", "T3_x", "T3_z",
    "UL_x", "UL_z", "LL_x", "LL_z", "LI_x", "LI_z",
)
TONGUE_CHANNELS = EMA_CHANNELS[:6]

assert len(ARPABET_39) == 39
assert len(set(ARPABET_39)) == 39


# The fixed MFCC stages: the speech stream reads 13 cepstra with their
# deltas and delta-deltas.
CEPSTRA = 13
FEATURE_DIM = 3 * CEPSTRA
PRE_EMPHASIS = 0.97
LOG_FLOOR = 1e-10
DELTA_WINDOW = 2


@dataclass(frozen=True)
class MfccConfig:
    """The MFCC settings a run may choose; the other stages are fixed.  A
    window or hop that is not finite and positive, or fewer than one mel
    filter, is a ``UsageError``."""

    window_ms: float = 25.0
    hop_ms: float = 10.0
    mel_filters: int = 26

    def __post_init__(self):
        for name, ms in (("window", self.window_ms), ("hop", self.hop_ms)):
            if not (math.isfinite(ms) and ms > 0):
                raise UsageError(f"{name} length must be finite and positive, got {ms} ms")
        if self.mel_filters < 1:
            raise UsageError(f"mel filter count must be at least 1, got {self.mel_filters}")

    def hop_seconds(self, rate: int | None = None) -> float:
        if rate is None:
            return self.hop_ms / 1000.0
        return self.hop_samples(rate) / rate

    def window_samples(self, rate: int) -> int:
        return int(round(rate * self.window_ms / 1000.0))

    def hop_samples(self, rate: int) -> int:
        return int(round(rate * self.hop_ms / 1000.0))


def feature_config_hash(cfg: MfccConfig) -> str:
    """Stable digest of everything the feature streams depend on; stored in
    checkpoints so a model is never scored against differently-built inputs."""
    payload = {
        # the fixed stages under the keys they had as settings, so the
        # digests of existing checkpoints hold
        "mfcc": {**asdict(cfg), "sample_rate": None, "cepstra": CEPSTRA, "pre_emphasis": PRE_EMPHASIS,
                 "log_floor": LOG_FLOOR, "delta_window": DELTA_WINDOW},
        "phoneme_inventory": list(ARPABET_39),
        "ema_channels": list(EMA_CHANNELS),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# -- audio ----------------------------------------------------------------

WAVE_FORMAT_PCM = 0x0001
WAVE_FORMAT_EXTENSIBLE = 0xFFFE
# Bytes 2..15 of every WAVE_FORMAT_EXTENSIBLE sub-format GUID whose first two
# bytes hold a plain format tag (KSDATAFORMAT_SUBTYPE_PCM carries tag 1).
_SUBFORMAT_GUID_TAIL = b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def load_wav(path) -> tuple[int, np.ndarray]:
    """Read PCM 16-bit mono WAV; returns (rate, float64 samples in [-1, 1)).

    A little-endian RIFF/WAVE reader: the ``fmt `` chunk must carry format
    tag 1 (PCM), or WAVE_FORMAT_EXTENSIBLE with the PCM sub-format, with 16
    bits per sample, one channel and a rate of at least 8 kHz.  Other chunks
    are skipped.  A data chunk that is cut short or holds an odd byte count
    is an error, never a shorter signal."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError:
        raise DataError(f"audio file not found: {path}") from None
    except OSError as exc:
        raise DataError(f"unreadable WAV file {path}: {exc.strerror}") from None
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise DataError(f"unreadable WAV file {path}: not a little-endian RIFF/WAVE file")

    rate = None
    pos = 12
    while pos + 8 <= len(raw):
        chunk_id = raw[pos:pos + 4]
        (size,) = struct.unpack_from("<I", raw, pos + 4)
        start = pos + 8
        if start + size > len(raw):
            raise DataError(f"{path}: {chunk_id.decode('latin-1')!r} chunk truncated "
                            f"({len(raw) - start} of {size} bytes present)")
        if chunk_id == b"fmt ":
            rate = _parse_fmt_chunk(raw[start:start + size], path)
        elif chunk_id == b"data":
            if rate is None:
                raise DataError(f"{path}: data chunk before the fmt chunk")
            if size % 2:
                raise DataError(f"{path}: data chunk holds an odd byte count {size} for 16-bit samples")
            samples = np.frombuffer(raw, dtype="<i2", count=size // 2, offset=start)
            return rate, samples.astype(np.float64) / 32768.0
        pos = start + size + (size & 1)  # chunks are padded to even length
    raise DataError(f"{path}: no {'fmt' if rate is None else 'data'} chunk")


def _parse_fmt_chunk(chunk: bytes, path) -> int:
    """Validate a ``fmt `` chunk for PCM 16-bit mono; returns the sample rate."""
    if len(chunk) < 16:
        raise DataError(f"{path}: fmt chunk of {len(chunk)} bytes is too short")
    tag, channels, rate, _byte_rate, _block_align, bits = struct.unpack_from("<HHIIHH", chunk)
    if tag == WAVE_FORMAT_EXTENSIBLE:
        if len(chunk) < 40 or chunk[26:40] != _SUBFORMAT_GUID_TAIL:
            raise DataError(f"{path}: WAVE_FORMAT_EXTENSIBLE without a recognised sub-format")
        (tag,) = struct.unpack_from("<H", chunk, 24)
    if tag != WAVE_FORMAT_PCM:
        raise DataError(f"{path}: expected 16-bit PCM, got format tag {tag:#06x}")
    if bits != 16:
        raise DataError(f"{path}: expected 16-bit PCM, got {bits}-bit samples")
    if channels != 1:
        raise DataError(f"{path}: expected mono audio, got {channels} channels")
    if rate < 8000:
        raise DataError(f"{path}: sample rate {rate} Hz below the 8 kHz minimum (resampling is out of scope)")
    return int(rate)


# -- MFCC stages ----------------------------------------------------------

def pre_emphasize(samples: np.ndarray, coeff: float) -> np.ndarray:
    out = samples.copy()
    out[1:] -= coeff * samples[:-1]
    return out


def frame_signal(samples: np.ndarray, window: int, hop: int) -> np.ndarray:
    """Slice into overlapping frames: count = floor((n - window)/hop) + 1."""
    n = samples.shape[0]
    if n < window:
        raise DataError(f"signal of {n} samples is shorter than one {window}-sample window")
    count = (n - window) // hop + 1
    idx = np.arange(window)[None, :] + hop * np.arange(count)[:, None]
    return samples[idx]


def mel_filterbank_matrix(n_filters: int, nfft: int, rate: int) -> np.ndarray:
    """Triangular filters on the HTK mel scale over rfft bins, [n_filters, nfft//2 + 1]."""
    def to_mel(f):
        return 2595.0 * np.log10(1.0 + f / 700.0)

    def from_mel(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    mel_points = np.linspace(to_mel(0.0), to_mel(rate / 2.0), n_filters + 2)
    hz_points = from_mel(mel_points)
    bins = np.floor((nfft + 1) * hz_points / rate).astype(int)
    fbank = np.zeros((n_filters, nfft // 2 + 1))
    for m in range(1, n_filters + 1):
        left, center, right = bins[m - 1], bins[m], bins[m + 1]
        for k in range(left, center):
            if center > left:
                fbank[m - 1, k] = (k - left) / (center - left)
        for k in range(center, right):
            if right > center:
                fbank[m - 1, k] = (right - k) / (right - center)
    return fbank


def log_mel_energies(frames: np.ndarray, fbank: np.ndarray, nfft: int, floor: float) -> np.ndarray:
    windowed = frames * np.hamming(frames.shape[1])
    spectrum = np.abs(np.fft.rfft(windowed, n=nfft, axis=1))
    energies = spectrum @ fbank.T
    return np.log(np.maximum(energies, floor))


def cepstra_from_log_mel(log_mel: np.ndarray, n_cepstra: int) -> np.ndarray:
    """The first ``n_cepstra`` coefficients of the orthonormal DCT-II along
    axis 1, as one product with the [n_mel, n_mel] cosine basis
    sqrt(2/n) cos(pi k (2i + 1) / 2n), column 0 scaled by 1/sqrt(2)."""
    n = log_mel.shape[1]
    i = np.arange(n)[:, None]
    k = np.arange(n)[None, :]
    basis = np.sqrt(2.0 / n) * np.cos(np.pi * k * (2 * i + 1) / (2 * n))
    basis[:, 0] /= np.sqrt(2.0)
    return log_mel @ basis[:, :n_cepstra]


def delta_coefficients(coeffs: np.ndarray, window: int = 2) -> np.ndarray:
    """Regression deltas with edge frames repeated:
    d[t] = sum_n n * (c[t+n] - c[t-n]) / (2 * sum_n n^2)."""
    count = coeffs.shape[0]
    padded = np.pad(coeffs, ((window, window), (0, 0)), mode="edge")
    denom = 2.0 * sum(n * n for n in range(1, window + 1))
    out = np.zeros_like(coeffs)
    for n in range(1, window + 1):
        out += n * (padded[window + n:window + n + count] - padded[window - n:window - n + count])
    return out / denom


def mean_variance_normalize(features: np.ndarray) -> np.ndarray:
    """Per-coefficient z-normalization over the utterance; constant
    coefficients stay at zero instead of dividing by a vanishing std."""
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    constant = std <= 1e-10
    out = (features - mean) / np.where(constant, 1.0, std)
    out[:, constant] = 0.0
    return out


def mfcc_cepstra(samples: np.ndarray, rate: int, cfg: MfccConfig) -> np.ndarray:
    """Un-normalized cepstra [T, CEPSTRA] for one utterance."""
    window = cfg.window_samples(rate)
    hop = cfg.hop_samples(rate)
    if window < 1 or hop < 1:
        raise DataError(f"a {cfg.window_ms} ms window and a {cfg.hop_ms} ms hop are {window} and {hop} samples "
                        f"at {rate} Hz; each must be at least 1 sample")
    nfft = 1
    while nfft < window:
        nfft *= 2
    frames = frame_signal(pre_emphasize(samples, PRE_EMPHASIS), window, hop)
    fbank = mel_filterbank_matrix(cfg.mel_filters, nfft, rate)
    return cepstra_from_log_mel(log_mel_energies(frames, fbank, nfft, LOG_FLOOR), CEPSTRA)


def compute_mfcc(samples: np.ndarray, rate: int, cfg: MfccConfig | None = None) -> np.ndarray:
    """Full pipeline: [T, 39] normalized cepstra + deltas + delta-deltas."""
    cfg = cfg or MfccConfig()
    if rate < 8000:
        raise DataError(f"sample rate {rate} Hz below the 8 kHz minimum")
    base = mfcc_cepstra(samples, rate, cfg)
    d1 = delta_coefficients(base, DELTA_WINDOW)
    d2 = delta_coefficients(d1, DELTA_WINDOW)
    return mean_variance_normalize(np.concatenate([base, d1, d2], axis=1))


# -- text files --------------------------------------------------------------

@contextlib.contextmanager
def open_text(path):
    """Open ``path`` as UTF-8 text with ``newline=""``.  A file that is
    missing, unreadable (a directory, say) or not UTF-8 is a DataError
    naming it."""
    try:
        fh = open(path, encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from None
    with fh:
        try:
            yield fh
        except UnicodeDecodeError:
            raise DataError(f"{path}: not UTF-8 text") from None


def read_matrix_csv(path, columns: int | tuple[str, ...]) -> np.ndarray:
    """The rows of a numeric CSV file as a float64 matrix.  ``columns`` is
    either the column count of a file without a header, or the header
    names the file's first row must hold; every row has as many values."""
    header = columns if isinstance(columns, tuple) else None
    width = columns if header is None else len(header)
    rows = []
    with open_text(path) as fh:
        reader = csv.reader(fh)
        if header is not None and tuple(next(reader, ())) != header:
            raise DataError(f"{path}: header must be {','.join(header)}")
        for lineno, row in enumerate(reader, start=1 if header is None else 2):
            if len(row) != width:
                raise DataError(f"{path}:{lineno}: expected {width} columns, got {len(row)}")
            try:
                rows.append([float(v) for v in row])
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-numeric value") from None
    if not rows:
        raise DataError(f"{path}: no rows")
    return np.array(rows)


# -- phoneme alignment ------------------------------------------------------

class AlignmentEntry(NamedTuple):
    start: float
    end: float
    label: str


def read_alignment(path) -> list[AlignmentEntry]:
    """Parse the tab-separated interval format ``start_s<TAB>end_s<TAB>LABEL``;
    the intervals must be sorted and must not overlap."""
    entries = []
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\r\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise DataError(f"{path}:{lineno}: expected 'start<TAB>end<TAB>label', got {line!r}")
            try:
                start, end = float(parts[0]), float(parts[1])
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-numeric interval bounds in {line!r}") from None
            if not 0.0 <= start < end:
                raise DataError(f"{path}: invalid interval [{start}, {end}) for label {parts[2]!r}")
            if entries and start < entries[-1].end:
                raise DataError(f"{path}: overlapping or unsorted entries near {start}")
            entries.append(AlignmentEntry(start, end, parts[2]))
    return entries


def normalize_label(label: str) -> int | None:
    """Map an alignment label to an inventory index, None for silence.

    Trailing stress digits are stripped (forced aligners emit e.g. AA1);
    unknown labels raise, naming the offender.
    """
    bare = label.strip()
    if bare.lower() in SILENCE_LABELS:
        return None
    sym = bare.upper()
    if sym and sym[-1] in "012":
        sym = sym[:-1]
    if sym in PHONEME_INDEX:
        return PHONEME_INDEX[sym]
    raise DataError(f"phoneme label {label!r} is not in the 39-symbol inventory and is not a silence token")


def encode_phonemes(entries: list[AlignmentEntry], frame_count: int, hop_s: float) -> np.ndarray:
    """One-hot matrix [frame_count, 39]; frame i takes the entry covering its
    center time (i + 0.5) * hop, and silence or uncovered frames stay zero.
    ``entries`` are sorted and disjoint, as ``read_alignment`` returns them."""
    out = np.zeros((frame_count, len(ARPABET_39)))
    if not entries:
        return out
    centers = (np.arange(frame_count) + 0.5) * hop_s
    entry = np.searchsorted(np.array([e.start for e in entries]), centers, side="right") - 1
    ends = np.array([e.end for e in entries])
    frames = np.flatnonzero((entry >= 0) & (centers < ends[entry]))
    codes = {}  # label -> inventory index or None: each label is normalized once
    column = np.full(len(entries), -1)
    for e in np.unique(entry[frames]):  # in time order, so the first unknown label hit is named
        label = entries[e].label
        if label not in codes:
            codes[label] = normalize_label(label)
        column[e] = -1 if codes[label] is None else codes[label]
    frames = frames[column[entry[frames]] >= 0]
    out[frames, column[entry[frames]]] = 1.0
    return out


# -- articulator targets -----------------------------------------------------

EMA_SLACK_S = 0.05  # how far the frame centers may reach past a track's ends

@dataclass
class EmaTrack:
    """Articulator trajectories: sample times in seconds and one column per
    channel in EMA_CHANNELS order, millimetres."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.shape[1] != len(EMA_CHANNELS):
            raise DataError(f"EMA track must have {len(EMA_CHANNELS)} channels, got shape {self.values.shape}")
        if not np.all(np.isfinite(self.values)) or not np.all(np.isfinite(self.times)):
            raise DataError("EMA track contains NaN or Inf")
        if np.any(np.diff(self.times) <= 0):
            raise DataError("EMA sample times must be strictly increasing")


def read_ema_csv(path) -> EmaTrack:
    data = read_matrix_csv(path, ("time_s",) + EMA_CHANNELS)
    try:
        return EmaTrack(times=data[:, 0], values=data[:, 1:])
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def align_ema(track: EmaTrack, frame_count: int, hop_s: float) -> np.ndarray:
    """Linearly interpolate each channel at acoustic frame centers,
    [frame_count, 12] mm.  Frame times outside the track clamp to its
    endpoints; a gap beyond ``EMA_SLACK_S`` is a duration mismatch."""
    centers = (np.arange(frame_count) + 0.5) * hop_s
    if centers[0] < track.times[0] - EMA_SLACK_S or centers[-1] > track.times[-1] + EMA_SLACK_S:
        raise DataError(
            f"EMA track [{track.times[0]:.3f}s, {track.times[-1]:.3f}s] does not cover "
            f"frames [{centers[0]:.3f}s, {centers[-1]:.3f}s] within {EMA_SLACK_S * 1000:.0f} ms slack"
        )
    out = np.empty((frame_count, track.values.shape[1]))
    for c in range(track.values.shape[1]):
        out[:, c] = np.interp(centers, track.times, track.values[:, c])
    return out
