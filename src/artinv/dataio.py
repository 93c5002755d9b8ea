"""Dataset manifests, synthetic corpus, text output and checkpoint files.

Manifest contract: CSV with header ``utterance_id,speaker_id,features,alignment,ema``
and paths relative to the manifest's directory.  The features column names
either a WAV file (PCM 16-bit mono) or a precomputed ``*.mfcc.csv`` with T
rows of 39 columns and no header.  Numeric text files are ASCII decimal
with '.' radix, newline-terminated rows; floats are written with
round-trip precision so readers reconstruct them bit-exactly.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

import numpy as np

from . import features as feat
from .errors import DataError, UsageError
from .model import PARTITIONS, SCENARIOS, InversionModel, ModelConfig

MANIFEST_COLUMNS = ("utterance_id", "speaker_id", "features", "alignment", "ema")


@dataclass
class UtteranceSample:
    """One aligned utterance: acoustic frames, phoneme one-hots, articulator
    targets (mm), all sharing the frame count."""

    utterance_id: str
    speaker_id: str
    mfcc: np.ndarray
    phonemes: np.ndarray
    ema: np.ndarray


# -- text output --------------------------------------------------------------

@contextlib.contextmanager
def _writing(path):
    """Make ``path``'s parent directories, then run the block that writes
    ``path``; an OSError from either is a UsageError naming the path."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        yield path
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from None


@contextlib.contextmanager
def create_text(path):
    """Open ``path`` for writing as UTF-8 text with ``newline=""``, after making
    its parent directories; any OSError is a UsageError naming the path."""
    with _writing(path) as path, open(path, "w", encoding="utf-8", newline="") as fh:
        yield fh


def write_csv(path, rows, header=None) -> None:
    """Write ``rows`` of Python values with ``csv.writer``, which writes a
    float as its repr (``format_float``): it reads back bit-exactly."""
    with create_text(path) as fh:
        csv.writer(fh).writerows(rows if header is None else [header, *rows])


def format_float(x) -> str:
    return repr(float(x))


def write_matrix_csv(path, matrix: np.ndarray, header=None) -> None:
    """Write a float matrix as ``write_csv`` would, one ``\\r\\n``-ended line
    of comma-joined reprs per row: a float never needs ``csv`` quoting, so
    the rows skip ``csv.writer``; the header goes through it."""
    rows = np.atleast_2d(np.asarray(matrix, dtype=np.float64)).tolist()
    with create_text(path) as fh:
        if header is not None:
            csv.writer(fh).writerow(header)
        fh.writelines([",".join(map(repr, row)) + "\r\n" for row in rows])


def write_trace_csv(path, trace) -> None:
    """Per-epoch loss trace: epoch, train_loss, val_loss rows."""
    write_csv(path, [(epoch, float(t), float(v)) for epoch, t, v in trace], ("epoch", "train_loss", "val_loss"))


# -- manifest loading --------------------------------------------------------

def load_manifest(path, cfg: feat.MfccConfig | None = None) -> list[UtteranceSample]:
    """Load every utterance the manifest references, with all three feature
    streams aligned to a shared frame count.  Errors name the utterance."""
    cfg = cfg or feat.MfccConfig()
    with feat.open_text(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != MANIFEST_COLUMNS:
            raise DataError(f"{path}: manifest header must be {','.join(MANIFEST_COLUMNS)}")
        rows = list(reader)

    if not rows:
        raise DataError(f"{path}: no utterances")

    base = Path(path).parent
    samples = []
    seen = set()
    for lineno, row in enumerate(rows, start=2):
        if len(row) != len(MANIFEST_COLUMNS):
            raise DataError(f"{path}:{lineno}: malformed row, expected {len(MANIFEST_COLUMNS)} fields")
        utt_id, speaker_id, feat_rel, align_rel, ema_rel = row
        # run directories name files by these ids (folds/<speaker>/.../<utterance>.csv)
        for column, value in (("utterance_id", utt_id), ("speaker_id", speaker_id)):
            if value in ("", ".", "..") or any(c in value for c in "/\\\0"):
                raise DataError(f"{path}:{lineno}: {column} {value!r} cannot name a file: "
                                "it is empty, '.' or '..', or holds '/', '\\' or NUL")
        if utt_id in seen:
            raise DataError(f"{path}:{lineno}: duplicate utterance_id {utt_id!r}")
        seen.add(utt_id)
        try:
            samples.append(_load_utterance(utt_id, speaker_id, base, feat_rel, align_rel, ema_rel, cfg))
        except DataError as exc:
            raise DataError(f"utterance {utt_id!r}: {exc}") from None
    return samples


def _load_utterance(utt_id, speaker_id, base: Path, feat_rel, align_rel, ema_rel,
                    cfg: feat.MfccConfig) -> UtteranceSample:
    feat_path = base / feat_rel
    if feat_path.suffix.lower() == ".wav":
        rate, audio = feat.load_wav(feat_path)
        mfcc = feat.compute_mfcc(audio, rate, cfg)
        hop_s = cfg.hop_seconds(rate)
    else:
        mfcc = feat.read_matrix_csv(feat_path, feat.FEATURE_DIM)
        hop_s = cfg.hop_seconds()
    _require_finite(feat_path, mfcc, "feature value")
    frames = mfcc.shape[0]
    phonemes = feat.encode_phonemes(feat.read_alignment(base / align_rel), frames, hop_s)
    # a finite track can still interpolate to inf: (1e308 - -1e308) overflows
    ema = feat.align_ema(feat.read_ema_csv(base / ema_rel), frames, hop_s)
    _require_finite(base / ema_rel, ema, "interpolated articulator value")
    return UtteranceSample(utt_id, speaker_id, mfcc, phonemes, ema)


def _require_finite(path: Path, frames: np.ndarray, what: str) -> None:
    bad = np.flatnonzero(~np.isfinite(frames).all(axis=1))
    if bad.size:
        raise DataError(f"{path.name}: non-finite {what} in frame {bad[0]}")


def speakers_of(samples) -> list[str]:
    """Distinct speaker ids in manifest order."""
    out = []
    for s in samples:
        if s.speaker_id not in out:
            out.append(s.speaker_id)
    return out


# -- synthetic corpus ---------------------------------------------------------

@dataclass(frozen=True)
class SyntheticSpec:
    """Desk-scale corpus recipe.  Articulator targets are smoothed
    piecewise-constant per-phoneme anchors plus a per-speaker constant offset
    plus Gaussian noise; acoustic frames are a fixed random linear+tanh
    rendering of (phoneme one-hot ++ articulators), so the acoustics genuinely
    encode articulator information."""

    speakers: int = 8
    utterances_per_speaker: int = 20
    speaker_offset_scale: float = 2.0
    noise_scale: float = 0.3
    smoothing: int = 3
    seed: int = 0
    duration_range: tuple = (5, 20)
    phones_range: tuple = (2, 5)
    anchor_scale: ClassVar[float] = 8.0
    acoustic_ema_scale: float = 0.1
    hop_s: ClassVar[float] = 0.01

    def __post_init__(self):
        for name, count in (("smoothing width", self.smoothing), ("speakers", self.speakers),
                            ("utterances per speaker", self.utterances_per_speaker)):
            if count < 1:
                raise UsageError(f"{name} must be >= 1, got {count}")
        for name, (low, high) in (("duration", self.duration_range), ("phones", self.phones_range)):
            if not 1 <= low <= high:
                raise UsageError(f"{name} range must satisfy 1 <= min <= max, got ({low}, {high})")
        for name, scale in (("speaker offset", self.speaker_offset_scale), ("noise", self.noise_scale)):
            if not (math.isfinite(scale) and scale >= 0):
                raise UsageError(f"{name} scale must be finite and non-negative, got {scale}")


def _moving_average(track: np.ndarray, width: int) -> np.ndarray:
    if width == 1:
        return track
    left = width // 2
    padded = np.pad(track, ((left, width - 1 - left), (0, 0)), mode="edge")
    kernel = np.ones(width) / width
    return np.stack([np.convolve(padded[:, c], kernel, mode="valid") for c in range(track.shape[1])], axis=1)


def generate_synthetic(spec: SyntheticSpec, out_dir) -> Path:
    """Write a corpus under ``out_dir`` and return the manifest path."""
    out = Path(out_dir)
    rng = np.random.default_rng(spec.seed)

    n_phonemes = len(feat.ARPABET_39)
    anchors = rng.uniform(-spec.anchor_scale, spec.anchor_scale, size=(n_phonemes, 12))
    render_w = rng.normal(0.0, 1.0 / np.sqrt(n_phonemes + 12), size=(n_phonemes + 12, 39))
    render_b = rng.uniform(-0.1, 0.1, size=39)
    offsets = rng.normal(0.0, spec.speaker_offset_scale, size=(spec.speakers, 12))

    manifest_rows = []
    for s in range(spec.speakers):
        speaker = f"s{s + 1:02d}"
        for u in range(spec.utterances_per_speaker):
            utt = f"{speaker}_u{u + 1:03d}"
            n_phones = int(rng.integers(spec.phones_range[0], spec.phones_range[1] + 1))
            labels = rng.integers(0, n_phonemes, size=n_phones)
            durations = rng.integers(spec.duration_range[0], spec.duration_range[1] + 1, size=n_phones)
            frames = int(durations.sum())

            per_frame_label = np.repeat(labels, durations)
            anchor_track = anchors[per_frame_label]
            ema = (_moving_average(anchor_track, spec.smoothing)
                   + offsets[s]
                   + rng.normal(0.0, spec.noise_scale, size=(frames, 12)))
            onehot = np.zeros((frames, n_phonemes))
            onehot[np.arange(frames), per_frame_label] = 1.0
            acoustics = np.tanh(np.concatenate([onehot, ema * spec.acoustic_ema_scale], axis=1) @ render_w + render_b)

            feat_rel = f"{speaker}/{utt}.mfcc.csv"
            align_rel = f"{speaker}/{utt}.align.txt"
            ema_rel = f"{speaker}/{utt}.ema.csv"
            write_matrix_csv(out / feat_rel, acoustics)

            ends = np.cumsum(durations).tolist()
            with create_text(out / align_rel) as fh:  # a float's str is its repr
                fh.writelines(f"{t0 * spec.hop_s}\t{t1 * spec.hop_s}\t{feat.ARPABET_39[label]}\n"
                              for label, t0, t1 in zip(labels, [0] + ends, ends))

            times = (np.arange(frames) + 0.5) * spec.hop_s
            write_matrix_csv(out / ema_rel, np.column_stack([times, ema]),
                             header=("time_s",) + feat.EMA_CHANNELS)
            manifest_rows.append((utt, speaker, feat_rel, align_rel, ema_rel))

    manifest = out / "manifest.csv"
    write_csv(manifest, manifest_rows, header=MANIFEST_COLUMNS)
    return manifest


# -- checkpoint container -----------------------------------------------------
#
# Byte layout (all integers little-endian):
#
#   offset 0   8 bytes   magic b"ARTINVCK"
#   offset 8   u16       format version (currently 1)
#   offset 10  u32       header length N
#   offset 14  N bytes   UTF-8 JSON header: scenario, seed, hyper,
#                        feature_config_hash, model_config, and "arrays" -
#                        an ordered list of {name, partition, shape}
#   then, per arrays entry in order, raw '<f8' data (prod(shape) * 8 bytes)
#   last 32 bytes        SHA-256 over everything before it
#
# Partition tags: speech_stream / fusion / phoneme_stream / inversion_head
# for parameters, "stats" for the target-normalization buffers.  Loads are
# bit-exact; the checksum turns any single-byte corruption into an error.

MAGIC = b"ARTINVCK"
FORMAT_VERSION = 1


class CheckpointError(DataError):
    """Base for checkpoint container failures."""


class CheckpointVersionError(CheckpointError):
    pass


class CheckpointTruncatedError(CheckpointError):
    pass


class CheckpointIntegrityError(CheckpointError):
    pass


class CheckpointCompatError(CheckpointError):
    """Checkpoint was produced under an incompatible feature configuration."""


@dataclass
class Checkpoint:
    scenario: str | None
    seed: int | None
    hyper: dict
    feature_config_hash: str
    model_config: dict
    arrays: dict = field(default_factory=dict)  # name -> float64 array


def save_checkpoint(path, model: InversionModel, feature_hash: str,
                    scenario: str | None = None, hyper: dict | None = None,
                    seed: int | None = None) -> None:
    """Binary container: magic, version, JSON header, raw little-endian
    float64 blobs, SHA-256 trailer.  Round-trips bit-exactly.

    The parts stream through the hash straight from the arrays' memory into
    ``<path>.tmp``, which then replaces ``path``: no copy of the container is
    held in memory, and an interrupted save never leaves a partial file under
    the real name."""
    arrays = model.state_arrays()
    entries = []
    for name, arr in arrays.items():
        partition = "stats" if name.startswith("stats.") else model.partition_of(name)
        entries.append({"name": name, "partition": partition, "shape": list(arr.shape)})
    header = {
        "format_version": FORMAT_VERSION,
        "scenario": scenario,
        "seed": seed,
        "hyper": hyper or {},
        "feature_config_hash": feature_hash,
        "model_config": model.config.to_dict(),
        "arrays": entries,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    digest = hashlib.sha256()
    with _writing(path) as path:
        tmp = path.with_name(path.name + ".tmp")
        try:
            with open(tmp, "wb") as fh:
                def put(chunk):
                    digest.update(chunk)
                    fh.write(chunk)

                put(MAGIC)
                put(struct.pack("<HI", FORMAT_VERSION, len(header_bytes)))
                put(header_bytes)
                for arr in arrays.values():
                    put(np.ascontiguousarray(arr, dtype="<f8"))  # by buffer, no copy
                fh.write(digest.digest())
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise


def _read_aligned(path, head_len: int) -> memoryview:
    """The file's bytes, in a buffer placed so that the array data after the
    header starts 8-byte aligned: numpy copies an unaligned operand before
    every BLAS call, which would slow inference on the views."""
    try:
        with open(path, "rb") as fh:
            head = fh.read(head_len)
            header_len = struct.unpack_from("<I", head, head_len - 4)[0] if len(head) == head_len else 0
            size = os.fstat(fh.fileno()).st_size
            buf = np.empty(size + 7, dtype=np.uint8)
            shift = -(buf.ctypes.data + head_len + header_len) % 8
            raw = memoryview(buf)[shift:shift + size]
            fh.seek(0)
            if fh.readinto(raw) != size:
                raise CheckpointTruncatedError(f"{path}: file changed while it was read")
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc.strerror}") from None
    return raw


def load_checkpoint(path) -> Checkpoint:
    """Read and verify a container written by ``save_checkpoint``.  The
    arrays are read-only, aligned views into the file's bytes, which stay
    alive as long as any of them does; copy an array before changing it."""
    head_len = len(MAGIC) + struct.calcsize("<HI")
    raw = _read_aligned(path, head_len)
    if len(raw) < head_len + 32:
        raise CheckpointTruncatedError(f"{path}: file too short to be a checkpoint")
    if bytes(raw[:len(MAGIC)]) != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint container")
    version, header_len = struct.unpack_from("<HI", raw, len(MAGIC))
    if version != FORMAT_VERSION:
        raise CheckpointVersionError(f"{path}: format version {version}, expected {FORMAT_VERSION}")

    digest = bytes(raw[-32:])
    body = raw[:-32]
    if hashlib.sha256(body).digest() != digest:
        raise CheckpointIntegrityError(f"{path}: checksum mismatch (corrupted or tampered)")

    try:
        header = json.loads(bytes(body[head_len:head_len + header_len]).decode())
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise CheckpointTruncatedError(f"{path}: header unreadable") from None

    _check_header(header, path)
    arrays = {}
    offset = head_len + header_len
    for entry in header["arrays"]:
        shape = tuple(entry["shape"])
        count = math.prod(shape)
        nbytes = count * 8
        if offset + nbytes > len(body):
            raise CheckpointTruncatedError(f"{path}: parameter data truncated at {entry['name']}")
        array = np.frombuffer(body, dtype="<f8", count=count, offset=offset).reshape(shape)
        array.flags.writeable = False
        arrays[entry["name"]] = array
        offset += nbytes
    if offset != len(body):
        raise CheckpointIntegrityError(f"{path}: {len(body) - offset} unexpected trailing bytes")

    return Checkpoint(
        scenario=header["scenario"],
        seed=header["seed"],
        hyper=header["hyper"],
        feature_config_hash=header["feature_config_hash"],
        model_config=header["model_config"],
        arrays=arrays,
    )


_HEADER_TYPES = {
    "scenario": (str, type(None)),
    "seed": (int, type(None)),
    "hyper": dict,
    "feature_config_hash": str,
    "model_config": dict,
    "arrays": list,
}


def _check_header(header, path) -> None:
    """Raise CheckpointError unless the header has the keys and value types
    ``save_checkpoint`` writes: every array entry a name, a partition tag
    and a shape of non-negative integers."""
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    for key, types in _HEADER_TYPES.items():
        if key not in header:
            raise CheckpointError(f"{path}: header has no {key!r}")
        if not isinstance(header[key], types) or isinstance(header[key], bool):
            raise CheckpointError(f"{path}: header {key!r} has type {type(header[key]).__name__}")
    if header["scenario"] is not None and header["scenario"] not in SCENARIOS:
        raise CheckpointError(f"{path}: header names unknown scenario {header['scenario']!r}")
    names = set()
    for i, entry in enumerate(header["arrays"]):
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)):
            raise CheckpointError(f"{path}: array entry {i} has no name")
        name = entry["name"]
        if name in names:
            raise CheckpointError(f"{path}: array {name!r} listed twice")
        names.add(name)
        if entry.get("partition") not in PARTITIONS + ("stats",):
            raise CheckpointError(f"{path}: array {name!r} has unknown partition {entry.get('partition')!r}")
        shape = entry.get("shape")
        if not (isinstance(shape, list)
                and all(isinstance(n, int) and not isinstance(n, bool) and n >= 0 for n in shape)):
            raise CheckpointError(f"{path}: array {name!r} has malformed shape {shape!r}")


def model_from_checkpoint(ckpt: Checkpoint, path="checkpoint") -> InversionModel:
    """Build the model the checkpoint describes, for inference: its
    parameters are the checkpoint's read-only arrays, not copies.  Raise
    CheckpointError unless every parameter and ``stats.*`` array the model
    holds is present with the model's shape and finite."""
    try:
        config = ModelConfig.from_dict(ckpt.model_config)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: model_config is unusable: {exc}") from None
    model = InversionModel(config, seed=None)
    require_arrays(ckpt, model.state_arrays(), path)
    model.load_state_arrays(ckpt.arrays)
    return model


def require_arrays(ckpt: Checkpoint, wanted: dict[str, np.ndarray], path="checkpoint") -> None:
    """Raise CheckpointError unless the checkpoint holds every array of
    ``wanted`` (name -> the model's array) with the model's shape and
    only finite values."""
    for name, own in wanted.items():
        if name not in ckpt.arrays:
            raise CheckpointError(f"{path}: no array {name!r}")
        if ckpt.arrays[name].shape != own.shape:
            raise CheckpointError(f"{path}: array {name!r} has shape {ckpt.arrays[name].shape}, "
                                  f"the model needs {own.shape}")
        if not np.isfinite(ckpt.arrays[name]).all():
            raise CheckpointError(f"{path}: array {name!r} holds non-finite values")


def require_compatible(ckpt: Checkpoint, feature_hash: str, path="checkpoint") -> None:
    if ckpt.feature_config_hash != feature_hash:
        raise CheckpointCompatError(
            f"{path}: feature configuration hash {ckpt.feature_config_hash[:12]}... does not match "
            f"the current configuration {feature_hash[:12]}...; the model was trained on "
            "differently-built features"
        )
