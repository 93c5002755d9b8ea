"""Feature front end: MFCC stages, phoneme encoding, EMA alignment."""

import math
import re
import struct

import numpy as np
import pytest

from artinv import features as feat
from artinv.errors import DataError
from artinv.features import AlignmentEntry, EmaTrack, MfccConfig


def dct2_oracle(values, n_out):
    """The first ``n_out`` orthonormal DCT-II coefficients, one scalar
    cosine at a time."""
    m = len(values)
    return np.array([math.sqrt((1.0 if q == 0 else 2.0) / m)
                     * sum(values[j] * math.cos(math.pi * q * (2 * j + 1) / (2 * m)) for j in range(m))
                     for q in range(n_out)])


def dft_cepstra_oracle(signal, frame_index, cfg, rate):
    """Independent single-frame pipeline: explicit DFT, own mel filters and
    the scalar DCT-II oracle."""
    window = cfg.window_samples(rate)
    hop = cfg.hop_samples(rate)
    nfft = 1
    while nfft < window:
        nfft *= 2

    emphasized = np.empty_like(signal)
    emphasized[0] = signal[0]
    for n in range(1, len(signal)):
        emphasized[n] = signal[n] - feat.PRE_EMPHASIS * signal[n - 1]
    frame = emphasized[frame_index * hop:frame_index * hop + window]

    hamming = np.array([0.54 - 0.46 * math.cos(2 * math.pi * n / (window - 1)) for n in range(window)])
    windowed = np.concatenate([frame * hamming, np.zeros(nfft - window)])

    bins = nfft // 2 + 1
    k = np.arange(bins)[:, None]
    n = np.arange(nfft)[None, :]
    dft = np.exp(-2j * math.pi * k * n / nfft) @ windowed
    magnitude = np.abs(dft)

    def mel(f):
        return 2595.0 * math.log10(1.0 + f / 700.0)

    def hz(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    points = [hz(mel(0.0) + i * (mel(rate / 2.0) - mel(0.0)) / (cfg.mel_filters + 1))
              for i in range(cfg.mel_filters + 2)]
    edges = [math.floor((nfft + 1) * p / rate) for p in points]
    energies = np.zeros(cfg.mel_filters)
    for m in range(cfg.mel_filters):
        left, center, right = edges[m], edges[m + 1], edges[m + 2]
        for b in range(left, center):
            energies[m] += magnitude[b] * (b - left) / (center - left)
        for b in range(center, right):
            energies[m] += magnitude[b] * (right - b) / (right - center)

    return dct2_oracle(np.log(np.maximum(energies, feat.LOG_FLOOR)), feat.CEPSTRA)


class TestMfcc:
    def test_frame_count_formula(self):
        cfg = MfccConfig()
        frames = feat.frame_signal(np.zeros(16000), cfg.window_samples(16000), cfg.hop_samples(16000))
        assert frames.shape == (98, 400)

    def test_zero_signal(self):
        cfg = MfccConfig()
        rate = 16000
        window, hop = cfg.window_samples(rate), cfg.hop_samples(rate)
        nfft = 512
        frames = feat.frame_signal(np.zeros(rate), window, hop)
        fbank = feat.mel_filterbank_matrix(cfg.mel_filters, nfft, rate)
        log_mel = feat.log_mel_energies(frames, fbank, nfft, feat.LOG_FLOOR)
        np.testing.assert_array_equal(log_mel, np.full_like(log_mel, np.log(1e-10)))

        cep = feat.mfcc_cepstra(np.zeros(rate), rate, cfg)
        np.testing.assert_array_equal(cep, np.tile(cep[0], (cep.shape[0], 1)))
        np.testing.assert_array_equal(feat.delta_coefficients(cep), np.zeros_like(cep))

        full = feat.compute_mfcc(np.zeros(rate), rate, cfg)
        np.testing.assert_array_equal(full, np.zeros((98, 39)))

    def test_pure_tone_stationary_and_oracle(self):
        cfg = MfccConfig()
        rate = 16000
        t = np.arange(rate)
        signal = 0.3 * np.sin(2 * np.pi * 1000.0 * t / rate)
        cep = feat.mfcc_cepstra(signal, rate, cfg)
        interior = cep[1:-1]
        assert np.max(np.abs(interior - interior[0])) < 1e-6

        oracle = dft_cepstra_oracle(signal, 5, cfg, rate)
        np.testing.assert_allclose(cep[5], oracle, atol=1e-8, rtol=0)

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        signal = rng.normal(size=8000) * 0.1
        a = feat.compute_mfcc(signal, 16000)
        b = feat.compute_mfcc(signal, 16000)
        np.testing.assert_array_equal(a, b)

    def test_silence_prefix_shifts_frames(self):
        cfg = MfccConfig()
        rate = 16000
        rng = np.random.default_rng(1)
        signal = rng.normal(size=8000) * 0.1
        k = 4  # prefix of k hops of silence
        prefixed = np.concatenate([np.zeros(k * cfg.hop_samples(rate)), signal])
        base = feat.mfcc_cepstra(signal, rate, cfg)
        shifted = feat.mfcc_cepstra(prefixed, rate, cfg)
        edge = math.ceil(cfg.window_samples(rate) / cfg.hop_samples(rate))
        np.testing.assert_allclose(shifted[k + edge:], base[edge:], atol=1e-10, rtol=0)

    def test_short_signal_rejected(self):
        with pytest.raises(DataError, match="shorter than one"):
            feat.compute_mfcc(np.zeros(100), 16000)

    def test_low_rate_rejected(self):
        with pytest.raises(DataError, match="8 kHz"):
            feat.compute_mfcc(np.zeros(8000), 4000)

    def test_normalization_guards_constant_columns(self):
        x = np.ones((10, 3))
        x[:, 1] = np.arange(10)
        out = feat.mean_variance_normalize(x)
        np.testing.assert_array_equal(out[:, 0], np.zeros(10))
        assert abs(out[:, 1].std() - 1.0) < 1e-12


class TestCepstra:
    @pytest.mark.parametrize("n_mel", [26, 40])
    def test_dct_matches_scalar_oracle(self, n_mel):
        rng = np.random.default_rng(n_mel)
        log_mel = rng.normal(-8.0, 5.0, size=(6, n_mel))
        got = feat.cepstra_from_log_mel(log_mel, 13)
        want = np.stack([dct2_oracle(row, 13) for row in log_mel])
        assert got.shape == (6, 13)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_mfcc_from_wav_matches_scipy_path(self, tmp_path, monkeypatch):
        """The numpy WAV reader and DCT against scipy's, end to end."""
        wavfile = pytest.importorskip("scipy.io.wavfile")
        scipy_fft = pytest.importorskip("scipy.fft")
        rate = 16000
        rng = np.random.default_rng(3)
        t = np.arange(rate // 2) / rate
        audio = 0.4 * np.sin(2 * np.pi * 180.0 * t) + 0.05 * rng.normal(size=t.size)
        path = tmp_path / "a.wav"
        wavfile.write(path, rate, (audio * 32767 / np.max(np.abs(audio))).astype(np.int16))

        rate, samples = feat.load_wav(path)
        ours = feat.compute_mfcc(samples, rate)
        scipy_rate, scipy_samples = wavfile.read(path)
        monkeypatch.setattr(feat, "cepstra_from_log_mel",
                            lambda log_mel, n: scipy_fft.dct(log_mel, type=2, axis=1, norm="ortho")[:, :n])
        theirs = feat.compute_mfcc(scipy_samples.astype(np.float64) / 32768.0, scipy_rate)
        np.testing.assert_allclose(ours, theirs, rtol=0, atol=1e-12)


PCM_GUID_TAIL = bytes.fromhex("000000001000800000aa00389b71")


def wav_bytes(data: bytes, *, tag=1, channels=1, rate=16000, bits=16, extensible=False,
              data_size=None, chunks_before_data=b"") -> bytes:
    """A RIFF/WAVE file written field by field."""
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", 0xFFFE if extensible else tag, channels, rate, rate * block, block, bits)
    if extensible:
        fmt += struct.pack("<HHI", 22, bits, 0x4) + struct.pack("<H", tag) + PCM_GUID_TAIL
    body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt + chunks_before_data
            + b"data" + struct.pack("<I", len(data) if data_size is None else data_size) + data)
    return b"RIFF" + struct.pack("<I", len(body)) + body


class TestLoadWav:
    @pytest.mark.parametrize("content, reason", [
        (wav_bytes(bytes(160), bits=8), "16-bit"),
        (wav_bytes(bytes(480), bits=24), "16-bit"),
        (wav_bytes(np.zeros(160, "<f4").tobytes(), tag=3, bits=32), "16-bit PCM, got format tag 0x0003"),
        (wav_bytes(bytes(640), channels=2), "mono audio, got 2 channels"),
        (wav_bytes(bytes(640), rate=4000), "8 kHz"),
        (b"OggS" + bytes(60), "not a little-endian RIFF/WAVE file"),
        (wav_bytes(bytes(161)), "odd byte count"),
        (wav_bytes(bytes(100), data_size=320), "'data' chunk truncated"),
        (wav_bytes(bytes(160))[:-60], "'data' chunk truncated"),
        (b"RIFF" + struct.pack("<I", 4) + b"WAVE", "no fmt chunk"),
    ], ids=["8-bit", "24-bit", "float32", "stereo", "4 kHz", "not RIFF", "odd data bytes",
            "data size past the end", "file cut short", "no chunks"])
    def test_rejected_with_the_file_named(self, tmp_path, content, reason):
        path = tmp_path / "bad.wav"
        path.write_bytes(content)
        with pytest.raises(DataError, match=re.escape(reason)) as info:
            feat.load_wav(path)
        assert str(path) in str(info.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match=re.escape(f"audio file not found: {tmp_path / 'none.wav'}")):
            feat.load_wav(tmp_path / "none.wav")

    def test_extensible_pcm16_accepted(self, tmp_path):
        samples = np.array([0, 1, -1, 32767, -32768, 1234], dtype="<i2")
        path = tmp_path / "ext.wav"
        path.write_bytes(wav_bytes(samples.tobytes(), rate=22050, extensible=True))
        rate, audio = feat.load_wav(path)
        assert rate == 22050
        assert audio.dtype == np.float64
        np.testing.assert_array_equal(audio, samples / 32768.0)

    def test_extensible_non_pcm_rejected(self, tmp_path):
        path = tmp_path / "ext_float.wav"
        path.write_bytes(wav_bytes(np.zeros(8, "<f4").tobytes(), tag=3, bits=32, extensible=True))
        with pytest.raises(DataError, match="format tag 0x0003"):
            feat.load_wav(path)

    def test_bitwise_equal_to_scipy(self, tmp_path):
        wavfile = pytest.importorskip("scipy.io.wavfile")
        rng = np.random.default_rng(5)
        samples = rng.integers(-32768, 32768, size=4001).astype(np.int16)
        written = tmp_path / "scipy.wav"
        wavfile.write(written, 16000, samples)
        # an odd-sized chunk and its pad byte ahead of the data
        padded = tmp_path / "list.wav"
        padded.write_bytes(wav_bytes(samples.astype("<i2").tobytes(), rate=8000,
                                     chunks_before_data=b"LIST" + struct.pack("<I", 3) + b"abc\0"))
        for path in (written, padded):
            rate, audio = feat.load_wav(path)
            scipy_rate, scipy_samples = wavfile.read(path)
            assert rate == scipy_rate
            assert audio.tobytes() == (scipy_samples.astype(np.float64) / 32768.0).tobytes()


class TestPhonemeEncoding:
    def test_single_entry_covers_all_frames(self):
        entries = [AlignmentEntry(0.0, 1.0, "AA")]
        out = feat.encode_phonemes(entries, 100, 0.01)
        assert out.shape == (100, 39)
        expected = np.zeros(39)
        expected[feat.PHONEME_INDEX["AA"]] = 1.0
        np.testing.assert_array_equal(out, np.tile(expected, (100, 1)))

    def test_empty_alignment_gives_zeros(self):
        np.testing.assert_array_equal(feat.encode_phonemes([], 10, 0.01), np.zeros((10, 39)))

    def test_boundary_uses_frame_centers(self):
        entries = [AlignmentEntry(0.0, 0.5, "AA"), AlignmentEntry(0.5, 1.0, "IY")]
        out = feat.encode_phonemes(entries, 100, 0.01)
        # interval-membership oracle over frame centers
        for i in range(100):
            center = (i + 0.5) * 0.01
            label = "AA" if center < 0.5 else "IY"
            assert out[i, feat.PHONEME_INDEX[label]] == 1.0
        assert out[49, feat.PHONEME_INDEX["AA"]] == 1.0
        assert out[50, feat.PHONEME_INDEX["IY"]] == 1.0

    def test_silence_and_gaps_are_zero_rows(self):
        entries = [AlignmentEntry(0.0, 0.2, "sil"), AlignmentEntry(0.3, 0.5, "B")]
        out = feat.encode_phonemes(entries, 50, 0.01)
        assert np.array_equal(out[:20], np.zeros((20, 39)))  # silence label
        assert np.array_equal(out[20:30], np.zeros((10, 39)))  # uncovered gap
        assert out[30:50, feat.PHONEME_INDEX["B"]].all()

    def test_stress_digits_stripped(self):
        out = feat.encode_phonemes([AlignmentEntry(0.0, 0.1, "AA1")], 5, 0.01)
        assert out[:, feat.PHONEME_INDEX["AA"]].all()

    def test_unknown_label_named_in_error(self):
        with pytest.raises(DataError, match="QX"):
            feat.encode_phonemes([AlignmentEntry(0.0, 0.1, "QX")], 5, 0.01)

    def test_first_unknown_label_a_frame_hits_is_named(self):
        # no frame center (0.005, 0.015, ...) falls in [0.051, 0.054)
        entries = [AlignmentEntry(0.0, 0.05, "AA"), AlignmentEntry(0.051, 0.054, "XX"),
                   AlignmentEntry(0.06, 0.1, "QX"), AlignmentEntry(0.1, 0.2, "ZZ")]
        with pytest.raises(DataError, match="'QX'"):
            feat.encode_phonemes(entries, 20, 0.01)
        np.testing.assert_array_equal(feat.encode_phonemes(entries[:2], 5, 0.01)[:, feat.PHONEME_INDEX["AA"]], 1.0)

    def test_rows_are_one_hot_or_zero(self):
        rng = np.random.default_rng(2)
        t0 = 0.0
        entries = []
        for _ in range(10):
            dur = rng.uniform(0.02, 0.1)
            label = rng.choice(list(feat.ARPABET_39) + ["sil"])
            entries.append(AlignmentEntry(t0, t0 + dur, str(label)))
            t0 += dur + (0.01 if rng.random() < 0.3 else 0.0)
        out = feat.encode_phonemes(entries, 80, 0.01)
        assert set(np.unique(out)) <= {0.0, 1.0}
        sums = out.sum(axis=1)
        assert set(np.unique(sums)) <= {0.0, 1.0}


class TestReadAlignment:
    def test_crlf_and_blank_lines_read_as_lf(self, tmp_path):
        lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
        lf.write_bytes(b"0.0\t0.5\tAA1\n\n0.5\t1.0\tsil\n")
        crlf.write_bytes(b"0.0\t0.5\tAA1\r\n\r\n0.5\t1.0\tsil\r\n")
        expected = [AlignmentEntry(0.0, 0.5, "AA1"), AlignmentEntry(0.5, 1.0, "sil")]
        assert feat.read_alignment(lf) == feat.read_alignment(crlf) == expected

    def test_overlapping_entries_rejected(self, tmp_path):
        path = tmp_path / "a.align.txt"
        path.write_text("0.0\t0.5\tAA\n0.4\t0.8\tIY\n")
        with pytest.raises(DataError, match=re.escape(f"{path}: overlapping")):
            feat.read_alignment(path)

    @pytest.mark.parametrize("line, message", [
        ("0.5\t0.5\tAA", "invalid interval"), ("-0.1\t0.5\tAA", "invalid interval"),
        ("0.0\t0.5", "expected 'start<TAB>end<TAB>label'"), ("0.0\tx\tAA", "non-numeric interval bounds"),
    ], ids=["empty_interval", "negative_start", "two_fields", "non_numeric"])
    def test_malformed_line_names_the_file(self, tmp_path, line, message):
        path = tmp_path / "a.align.txt"
        path.write_text(line + "\n")
        with pytest.raises(DataError, match=re.escape(str(path)) + ".*" + re.escape(message)):
            feat.read_alignment(path)


EMA_HEADER = "time_s," + ",".join(feat.EMA_CHANNELS)


class TestReadEmaCsv:
    def test_reads_times_and_channels(self, tmp_path):
        path = tmp_path / "a.ema.csv"
        path.write_text(EMA_HEADER + "\n" + ",".join(["0.005"] + ["1.5"] * 12) + "\n"
                        + ",".join(["0.015"] + ["-2.25"] * 12) + "\n")
        track = feat.read_ema_csv(path)
        np.testing.assert_array_equal(track.times, [0.005, 0.015])
        np.testing.assert_array_equal(track.values, [[1.5] * 12, [-2.25] * 12])

    @pytest.mark.parametrize("text, message", [
        ("time," + ",".join(feat.EMA_CHANNELS) + "\n0.0" + ",1.0" * 12 + "\n", "header must be " + EMA_HEADER),
        ("", "header must be " + EMA_HEADER),
        (EMA_HEADER + "\n0.0" + ",1.0" * 11 + "\n", ":2: expected 13 columns, got 12"),
        (EMA_HEADER + "\n0.0" + ",1.0" * 12 + "\n0.01" + ",1.0" * 11 + ",x\n", ":3: non-numeric value"),
        (EMA_HEADER + "\n", ": no rows"),
        (EMA_HEADER + "\n0.0,nan" + ",1.0" * 11 + "\n", ": EMA track contains NaN or Inf"),
        (EMA_HEADER + "\n0.01" + ",1.0" * 12 + "\n0.0" + ",1.0" * 12 + "\n", ": EMA sample times must be strictly"),
    ], ids=["wrong_header", "empty_file", "column_count", "non_numeric", "no_rows", "nan", "times_decreasing"])
    def test_malformed_file_names_it(self, tmp_path, text, message):
        path = tmp_path / "a.ema.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=re.escape(f"{path}") + ".*" + re.escape(message)):
            feat.read_ema_csv(path)


class TestEmaAlignment:
    def test_phase_aligned_track_passes_through(self):
        rng = np.random.default_rng(3)
        frames = 20
        times = (np.arange(frames) + 0.5) * 0.01
        values = rng.normal(size=(frames, 12))
        out = feat.align_ema(EmaTrack(times, values), frames, 0.01)
        np.testing.assert_array_equal(out, values)

    def test_linear_ramp_is_exact(self):
        times = np.linspace(0.0, 1.0, 101)
        values = np.tile((3.0 * times - 1.0)[:, None], (1, 12))
        out = feat.align_ema(EmaTrack(times, values), 100, 0.01)
        centers = (np.arange(100) + 0.5) * 0.01
        np.testing.assert_allclose(out[:, 0], 3.0 * centers - 1.0, atol=1e-12)

    def test_half_sample_offset_averages_neighbors(self):
        rng = np.random.default_rng(4)
        n = 30
        times = np.arange(n) * 0.01  # centers fall midway between samples
        values = rng.normal(size=(n, 12))
        out = feat.align_ema(EmaTrack(times, values), n - 1, 0.01)
        np.testing.assert_allclose(out, (values[:-1] + values[1:]) / 2.0, atol=1e-12)

    def test_constant_channel_preserved(self):
        times = np.linspace(0.0, 0.5, 40)
        values = np.full((40, 12), 7.25)
        out = feat.align_ema(EmaTrack(times, values), 45, 0.01)
        np.testing.assert_array_equal(out, np.full((45, 12), 7.25))

    def test_nan_rejected(self):
        times = np.linspace(0.0, 0.5, 10)
        values = np.zeros((10, 12))
        values[3, 4] = np.nan
        with pytest.raises(DataError, match="NaN"):
            EmaTrack(times, values)

    def test_duration_mismatch_beyond_slack(self):
        track = EmaTrack(np.linspace(0.0, 0.2, 21), np.zeros((21, 12)))
        with pytest.raises(DataError, match="slack"):
            feat.align_ema(track, 100, 0.01)  # needs coverage to ~1s

    def test_clamps_within_slack(self):
        track = EmaTrack(np.linspace(0.0, 0.96, 97), np.ones((97, 12)))
        out = feat.align_ema(track, 100, 0.01)  # last center 0.995, inside 50 ms slack
        assert out.shape == (100, 12)
        np.testing.assert_array_equal(out[-1], np.ones(12))


def test_streams_share_frame_count():
    cfg = MfccConfig()
    rate = 16000
    rng = np.random.default_rng(5)
    signal = rng.normal(size=rate) * 0.1
    mfcc = feat.compute_mfcc(signal, rate, cfg)
    frames = mfcc.shape[0]
    hop_s = cfg.hop_seconds(rate)
    phonemes = feat.encode_phonemes([AlignmentEntry(0.0, 1.0, "AA")], frames, hop_s)
    track = EmaTrack(np.linspace(0.0, 1.0, 101), rng.normal(size=(101, 12)))
    ema = feat.align_ema(track, frames, hop_s)
    assert mfcc.shape[0] == phonemes.shape[0] == ema.shape[0]
    assert (mfcc.shape[1], phonemes.shape[1], ema.shape[1]) == (39, 39, 12)


def test_feature_hash_tracks_config():
    assert feat.feature_config_hash(MfccConfig()) != feat.feature_config_hash(MfccConfig(hop_ms=12.5))
    assert feat.feature_config_hash(MfccConfig()) == feat.feature_config_hash(MfccConfig())
    # the digests from when every MFCC stage was a setting: checkpoints made then still score
    pinned = {
        MfccConfig(): "edafaded2485b1ecec800c8b55c69ced6990bb335b0b95686c33a963ea078897",
        MfccConfig(hop_ms=12.5): "1a0006b304c1872ce04e106865f0e97dce7970e8587466f3ce8496ee09f5aec2",
        MfccConfig(window_ms=20.0, mel_filters=40): "8ebf0775011723119c3f9918efccb7625269e7890a55f8c45233f34b6c22ed7b",
    }
    assert {cfg: feat.feature_config_hash(cfg) for cfg in pinned} == pinned
