"""Manifests, the synthetic corpus generator, text output and checkpoint persistence."""

import csv
import hashlib
import io
import json
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from artinv import dataio, layers
from artinv.dataio import (
    CheckpointCompatError, CheckpointError, CheckpointIntegrityError,
    CheckpointTruncatedError, CheckpointVersionError, SyntheticSpec,
    generate_synthetic, load_checkpoint, load_manifest, model_from_checkpoint,
    require_compatible, save_checkpoint,
)
from artinv.errors import DataError, UsageError
from artinv.features import MfccConfig, feature_config_hash, read_matrix_csv
from artinv.layers import uniform_init
from artinv.model import InversionModel, ModelConfig
from forging import seal, unseal, with_value

SMALL = ModelConfig(
    conv_channels=2, kernel_sizes=(1, 3), attn_model_dim=8, attn_layers=1,
    attn_heads=2, attn_head_dim=4, speech_fc_units=6, blstm_hidden=3,
)


def tree_digest(root: Path) -> str:
    acc = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            acc.update(str(path.relative_to(root)).encode())
            acc.update(path.read_bytes())
    return acc.hexdigest()


class TestSynthetic:
    def test_same_seed_bitwise_identical(self, tmp_path):
        spec = SyntheticSpec(speakers=2, utterances_per_speaker=3, seed=7)
        generate_synthetic(spec, tmp_path / "a")
        generate_synthetic(spec, tmp_path / "b")
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")

    def test_noiseless_single_phone_equals_anchor_plus_offset(self, tmp_path):
        spec = SyntheticSpec(speakers=1, utterances_per_speaker=2, seed=3,
                             noise_scale=0.0, smoothing=1, phones_range=(1, 1))
        manifest = generate_synthetic(spec, tmp_path)
        samples = load_manifest(manifest)
        # regenerate the spec's anchor table and speaker offset with its own rng
        rng = np.random.default_rng(3)
        anchors = rng.uniform(-spec.anchor_scale, spec.anchor_scale, size=(39, 12))
        rng.normal(0.0, 1.0 / np.sqrt(51), size=(51, 39))
        rng.uniform(-0.1, 0.1, size=39)
        offset = rng.normal(0.0, spec.speaker_offset_scale, size=(1, 12))[0]
        for sample in samples:
            label = int(np.argmax(sample.phonemes[0]))
            assert np.all(sample.phonemes.argmax(axis=1) == label)
            expected = np.tile(anchors[label] + offset, (sample.ema.shape[0], 1))
            np.testing.assert_allclose(sample.ema, expected, atol=1e-12, rtol=0)

    def test_speaker_offsets_visible_in_channel_means(self, tmp_path):
        spec = SyntheticSpec(speakers=3, utterances_per_speaker=8, seed=11,
                             noise_scale=0.05, speaker_offset_scale=5.0, smoothing=1)
        manifest = generate_synthetic(spec, tmp_path)
        samples = load_manifest(manifest)
        rng = np.random.default_rng(11)
        rng.uniform(-spec.anchor_scale, spec.anchor_scale, size=(39, 12))
        rng.normal(0.0, 1.0 / np.sqrt(51), size=(51, 39))
        rng.uniform(-0.1, 0.1, size=39)
        offsets = rng.normal(0.0, spec.speaker_offset_scale, size=(3, 12))
        for s, speaker in enumerate(("s01", "s02", "s03")):
            frames = np.concatenate([x.ema for x in samples if x.speaker_id == speaker])
            # anchor means are near zero, so channel means track the offsets
            # up to anchor-sampling scatter
            diff = frames.mean(axis=0) - offsets[s]
            assert np.abs(diff).mean() < spec.anchor_scale / 2

    def test_streams_aligned_after_reload(self, tmp_path):
        manifest = generate_synthetic(SyntheticSpec(speakers=2, utterances_per_speaker=2, seed=5), tmp_path)
        for sample in load_manifest(manifest):
            assert sample.mfcc.shape[0] == sample.phonemes.shape[0] == sample.ema.shape[0]
            assert sample.mfcc.shape[1] == 39
            assert sample.phonemes.sum(axis=1).min() >= 0.0
            assert sample.ema.shape[1] == 12


class TestManifest:
    def test_empty_manifest_rejected(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("utterance_id,speaker_id,features,alignment,ema\n")
        with pytest.raises(DataError, match="no utterances"):
            load_manifest(path)

    def test_duplicate_id_rejected(self, tmp_path):
        manifest = generate_synthetic(SyntheticSpec(speakers=1, utterances_per_speaker=1, seed=0), tmp_path)
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join(lines + [lines[1]]) + "\n")
        with pytest.raises(DataError, match="duplicate.*s01_u001"):
            load_manifest(manifest)

    def test_missing_file_names_utterance(self, tmp_path):
        manifest = generate_synthetic(SyntheticSpec(speakers=1, utterances_per_speaker=2, seed=0), tmp_path)
        (tmp_path / "s01" / "s01_u002.ema.csv").unlink()
        with pytest.raises(DataError, match="s01_u002"):
            load_manifest(manifest)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("id,speaker,features,alignment,ema\na,b,c,d,e\n")
        with pytest.raises(DataError, match="header"):
            load_manifest(path)

    def test_precomputed_two_rows(self, tmp_path):
        manifest = generate_synthetic(SyntheticSpec(speakers=2, utterances_per_speaker=1, seed=1), tmp_path)
        samples = load_manifest(manifest)
        assert [s.utterance_id for s in samples] == ["s01_u001", "s02_u001"]
        assert dataio.speakers_of(samples) == ["s01", "s02"]

    def test_malformed_feature_csv_names_utterance(self, tmp_path):
        manifest = generate_synthetic(SyntheticSpec(speakers=1, utterances_per_speaker=1, seed=2), tmp_path)
        feat_file = tmp_path / "s01" / "s01_u001.mfcc.csv"
        feat_file.write_text("1.0,2.0\n")
        with pytest.raises(DataError, match="s01_u001"):
            load_manifest(manifest)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_features_name_the_utterance(self, tmp_path, value):
        manifest = generate_synthetic(SyntheticSpec(speakers=1, utterances_per_speaker=2, seed=2), tmp_path)
        feat_file = tmp_path / "s01" / "s01_u002.mfcc.csv"
        rows = feat_file.read_text().splitlines()
        rows[1] = ",".join([value] * 39)
        feat_file.write_text("\n".join(rows) + "\n")
        with pytest.raises(DataError, match="s01_u002.*non-finite feature value in frame 1"):
            load_manifest(manifest)

    def test_ema_interpolating_to_inf_names_the_file_and_utterance(self, tmp_path):
        """Finite samples of 1e308 and -1e308 overflow the interpolation
        slope and give -inf at both frame centres of a 2-frame utterance."""
        spec = SyntheticSpec(speakers=1, utterances_per_speaker=1, duration_range=(1, 1), phones_range=(2, 2))
        manifest = generate_synthetic(spec, tmp_path)
        ema_file = tmp_path / "s01" / "s01_u001.ema.csv"
        header = ema_file.read_text().splitlines()[0]
        ema_file.write_text("\n".join([header, ",".join(["0.0"] + ["1e308"] * 12),
                                       ",".join(["0.02"] + ["-1e308"] * 12)]) + "\n")
        with pytest.raises(DataError, match="utterance 's01_u001': s01_u001.ema.csv: "
                                             "non-finite interpolated articulator value in frame 0"):
            load_manifest(manifest)


class TestTextOutput:
    def test_csv_floats_are_their_repr_and_read_back_bit_exactly(self, tmp_path):
        values = np.array([[0.1, 1 / 3, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                            np.inf, -np.inf, np.nan, 1e16, 123456789.0]])
        path = tmp_path / "m.csv"
        dataio.write_matrix_csv(path, values)
        assert path.read_bytes() == (",".join(dataio.format_float(v) for v in values[0]) + "\r\n").encode()
        assert read_matrix_csv(path, values.shape[1]).tobytes() == values.tobytes()

    @pytest.mark.parametrize("header", [None, ("t", "a,b", 'q"x', "nan")])
    def test_matrix_csv_is_byte_for_byte_what_csv_writer_writes(self, tmp_path, header):
        values = np.array([[np.nan, np.inf, -np.inf, -0.0, 0.0],
                           [1e308, -1e308, 5e-324, -5e-324, 1.7976931348623157e308],
                           [0.1, 1 / 3, 2.0, 1e16, 123456789.0]])
        want = io.StringIO(newline="")
        csv.writer(want).writerows(values.tolist() if header is None else [header, *values.tolist()])
        dataio.write_matrix_csv(tmp_path / "m.csv", values, header)
        assert (tmp_path / "m.csv").read_bytes() == want.getvalue().encode()
        dataio.write_matrix_csv(tmp_path / "row.csv", values[1])
        assert (tmp_path / "row.csv").read_bytes() == want.getvalue().encode().splitlines(keepends=True)[
            1 if header is None else 2]

    def test_parent_directories_are_made(self, tmp_path):
        dataio.write_csv(tmp_path / "a" / "b" / "t.csv", [(1, 0.5, "x")], header=("n", "v", "s"))
        assert (tmp_path / "a" / "b" / "t.csv").read_bytes() == b"n,v,s\r\n1,0.5,x\r\n"

    @pytest.mark.parametrize("where", ["parent_is_a_file", "path_is_a_directory"])
    def test_unwritable_path_is_usage_error_naming_it(self, tmp_path, where):
        (tmp_path / "file").write_text("")
        (tmp_path / "dir").mkdir()
        path = tmp_path / "file" / "t.txt" if where == "parent_is_a_file" else tmp_path / "dir"
        with pytest.raises(UsageError, match=f"cannot write {re.escape(str(path))}: "):
            with dataio.create_text(path) as fh:
                fh.write("x")


JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-3, 10**12), st.text(max_size=4),
                        st.lists(st.integers(-2, 3), max_size=3), st.dictionaries(st.text(max_size=3), st.none()))


class TestCheckpoint:
    def make_model(self, seed=0):
        model = InversionModel(SMALL, seed=seed)
        model.target_mean = np.linspace(-1, 1, 12)
        model.target_std = np.linspace(1, 2, 12)
        return model

    def test_roundtrip_bit_exact(self, tmp_path):
        model = self.make_model(seed=4)
        path = tmp_path / "model.ckpt"
        fh = feature_config_hash(MfccConfig())
        save_checkpoint(path, model, fh, scenario="S3", hyper={"epochs": 2}, seed=4)
        ckpt = load_checkpoint(path)
        assert ckpt.scenario == "S3"
        assert ckpt.seed == 4
        assert ckpt.feature_config_hash == fh

        clone = model_from_checkpoint(ckpt)
        for name, p in model.parameters().items():
            assert np.array_equal(p.data, clone.parameters()[name].data), name
        assert np.array_equal(model.target_mean, clone.target_mean)
        assert np.array_equal(model.target_std, clone.target_std)

    def test_model_from_checkpoint_draws_no_random_numbers(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, self.make_model(seed=8), "h", seed=8)
        ckpt = load_checkpoint(path)
        rngs = []

        def counting_init(rng, shape, fan_in):
            rngs.append(rng)
            return uniform_init(rng, shape, fan_in)

        monkeypatch.setattr(layers, "uniform_init", counting_init)
        model_from_checkpoint(ckpt)
        assert rngs and all(rng is None for rng in rngs)

    def test_save_is_deterministic(self, tmp_path):
        model = self.make_model(seed=5)
        fh = feature_config_hash(MfccConfig())
        save_checkpoint(tmp_path / "a.ckpt", model, fh, seed=5)
        save_checkpoint(tmp_path / "b.ckpt", model, fh, seed=5)
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_bytes_follow_the_documented_layout(self, tmp_path):
        model = self.make_model(seed=6)
        save_checkpoint(tmp_path / "m.ckpt", model, "h", scenario="S1", hyper={"epochs": 3}, seed=6)
        state = model.state_arrays()
        header = {
            "format_version": dataio.FORMAT_VERSION, "scenario": "S1", "seed": 6,
            "hyper": {"epochs": 3}, "feature_config_hash": "h",
            "model_config": model.config.to_dict(),
            "arrays": [{"name": name, "shape": list(arr.shape),
                        "partition": "stats" if name.startswith("stats.") else model.partition_of(name)}
                       for name, arr in state.items()],
        }
        header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        body = (dataio.MAGIC + struct.pack("<HI", dataio.FORMAT_VERSION, len(header_bytes)) + header_bytes
                + b"".join(arr.astype("<f8").tobytes() for arr in state.values()))
        assert (tmp_path / "m.ckpt").read_bytes() == body + hashlib.sha256(body).digest()
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

    def test_failed_save_keeps_previous_file(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, "h")
        before = path.read_bytes()
        model.target_std = np.array(["not a number"])  # the last array written
        with pytest.raises(ValueError):
            save_checkpoint(path, model, "h")
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

    def test_partition_tags_recorded(self, tmp_path):
        model = self.make_model()
        save_checkpoint(tmp_path / "m.ckpt", model, "h")
        header, _ = unseal((tmp_path / "m.ckpt").read_bytes())
        partitions = {entry["name"]: entry["partition"] for entry in header["arrays"]}
        assert partitions["speech.conv.k1.weight"] == "speech_stream"
        assert partitions["phoneme.blstm1.fw.wx"] == "phoneme_stream"
        assert partitions["stats.target_mean"] == "stats"

    def test_feature_hash_mismatch_is_explicit(self, tmp_path):
        model = self.make_model()
        save_checkpoint(tmp_path / "m.ckpt", model, feature_config_hash(MfccConfig()))
        ckpt = load_checkpoint(tmp_path / "m.ckpt")
        with pytest.raises(CheckpointCompatError, match="feature configuration"):
            require_compatible(ckpt, feature_config_hash(MfccConfig(hop_ms=12.5)))

    def test_corrupt_last_byte_detected(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, "h")
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointIntegrityError, match="checksum"):
            load_checkpoint(path)

    def test_single_byte_corruption_fuzz(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, "h")
        pristine = path.read_bytes()
        rng = np.random.default_rng(9)
        for _ in range(8):
            pos = int(rng.integers(0, len(pristine)))
            raw = bytearray(pristine)
            raw[pos] = (raw[pos] + 1) % 256
            path.write_bytes(bytes(raw))
            with pytest.raises(dataio.CheckpointError):
                load_checkpoint(path)

    def test_truncated_file_distinct_error(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, "h")
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises((CheckpointTruncatedError, CheckpointIntegrityError)):
            load_checkpoint(path)

    def test_version_mismatch_distinct_error(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, "h")
        raw = bytearray(path.read_bytes())
        raw[8] = 99  # version field follows the 8-byte magic
        body = bytes(raw[:-32])
        path.write_bytes(body + hashlib.sha256(body).digest())
        with pytest.raises(CheckpointVersionError, match="version"):
            load_checkpoint(path)

    def test_header_without_arrays_is_checkpoint_error(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, self.make_model(), "h")
        header, data = unseal(path.read_bytes())
        del header["arrays"]
        path.write_bytes(seal(header, data))
        with pytest.raises(CheckpointError, match="no 'arrays'"):
            load_checkpoint(path)

    def test_unknown_model_config_key_is_checkpoint_error(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, self.make_model(), "h")
        header, data = unseal(path.read_bytes())
        header["model_config"]["dropout"] = 0.1
        path.write_bytes(seal(header, data))
        with pytest.raises(CheckpointError, match="model_config.*dropout"):
            model_from_checkpoint(load_checkpoint(path))

    def test_unknown_scenario_is_checkpoint_error(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, self.make_model(), "h", scenario="S3")
        header, data = unseal(path.read_bytes())
        header["scenario"] = "S9"
        path.write_bytes(seal(header, data))
        with pytest.raises(CheckpointError, match="unknown scenario 'S9'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("forgery", ["missing stats", "missing parameter",
                                         "misshapen stats", "misshapen parameter",
                                         "nan parameter", "inf stats"])
    def test_missing_or_misshapen_arrays_are_checkpoint_errors(self, tmp_path, forgery):
        """A container that is sound but lacks, misshapes or holds a
        non-finite value in an array the model holds loads, then fails to
        become a model with exit code 2."""
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, self.make_model(), "h")
        header, data = unseal(path.read_bytes())
        entries = {e["name"]: e for e in header["arrays"]}
        weight = next(e for e in header["arrays"] if len(e["shape"]) == 2 and e["shape"][0] != e["shape"][1])
        if forgery == "missing stats":
            assert header["arrays"].pop()["name"] == "stats.target_std"
            data = data[:-12 * 8]
            expected = "no array 'stats.target_std'"
        elif forgery == "missing parameter":
            expected = f"no array '{weight['name']}'"
            weight["name"] += ".renamed"
        elif forgery == "nan parameter":
            data = with_value(header, data, weight["name"], 5, np.nan)
            expected = f"array '{weight['name']}' holds non-finite values"
        elif forgery == "inf stats":
            data = with_value(header, data, "stats.target_std", 11, -np.inf)
            expected = "array 'stats.target_std' holds non-finite values"
        elif forgery == "misshapen stats":
            entries["stats.target_mean"]["shape"] = [3, 4]
            expected = r"'stats.target_mean' has shape \(3, 4\), the model needs \(12,\)"
        else:
            weight["shape"] = weight["shape"][::-1]
            expected = f"'{weight['name']}' has shape"
        path.write_bytes(seal(header, data))
        ckpt = load_checkpoint(path)
        with pytest.raises(CheckpointError, match=expected) as info:
            model_from_checkpoint(ckpt, path=str(path))
        assert info.value.exit_code == 2
        assert str(path) in str(info.value)

    def test_loaded_arrays_are_read_only_and_bit_exact(self, tmp_path):
        model = self.make_model(seed=7)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, "h")
        ckpt = load_checkpoint(path)
        state = model.state_arrays()
        assert list(ckpt.arrays) == list(state)
        for name, arr in state.items():
            assert ckpt.arrays[name].tobytes() == arr.tobytes(), name
        with pytest.raises(ValueError, match="read-only"):
            ckpt.arrays["speech.conv.k1.weight"][...] = 0.0
        clone = model_from_checkpoint(ckpt)
        clone.target_std[0] = 5.0  # the model owns copies
        assert ckpt.arrays["stats.target_std"][0] == model.target_std[0]

    def test_model_from_checkpoint_keeps_aligned_read_only_views(self, tmp_path):
        """Inference computes on the checkpoint's arrays in place: no 74.5 MB
        copy at full size, and aligned so numpy hands them to BLAS as they are."""
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, self.make_model(seed=9), "h")
        ckpt = load_checkpoint(path)
        assert all(a.flags.aligned for a in ckpt.arrays.values())
        model = model_from_checkpoint(ckpt)
        for name, p in model.parameters().items():
            assert np.shares_memory(p.data, ckpt.arrays[name]), name
            assert not p.data.flags.writeable, name
        for name in ("target_mean", "target_std"):
            assert not np.shares_memory(getattr(model, name), ckpt.arrays[f"stats.{name}"]), name

    def test_full_size_load_holds_the_file_once(self, tmp_path):
        path = tmp_path / "full.ckpt"
        save_checkpoint(path, InversionModel(ModelConfig(), seed=0), "h")
        size = path.stat().st_size
        tracemalloc.start()
        try:
            ckpt = load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(a.nbytes for a in ckpt.arrays.values()) > 0.99 * size
        assert peak < 1.2 * size

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_header_mutation_fuzz(self, tmp_path, data):
        """A re-sealed header with one key dropped or one value replaced
        loads or raises CheckpointError, never anything else."""
        path = tmp_path / "m.ckpt"
        if not path.exists():
            save_checkpoint(path, self.make_model(), "h", scenario="S3", seed=1)
        header, arrays = unseal(path.read_bytes())
        entries = header["arrays"]
        where = data.draw(st.sampled_from(["top", "entry"]))
        target = header if where == "top" else entries[data.draw(st.integers(0, len(entries) - 1))]
        key = data.draw(st.sampled_from(sorted(target)))
        if data.draw(st.booleans()):
            del target[key]
        else:
            target[key] = data.draw(JSON_VALUES)
        mutated = tmp_path / "mutated.ckpt"
        mutated.write_bytes(seal(header, arrays))
        try:
            load_checkpoint(mutated)
        except CheckpointError:
            pass
