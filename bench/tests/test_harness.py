"""Tests of the benchmark's own code: the generator's determinism, the span
arithmetic, and the validity of the metric names.

    python3 -m pytest bench/tests -q
"""

import hashlib
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import run  # noqa: E402
import spans as sp  # noqa: E402
import stage  # noqa: E402
import workloads  # noqa: E402
from artinv import dataio  # noqa: E402
from artinv.model import InversionModel, ModelConfig, SCENARIOS, apply_scenario  # noqa: E402

TINY = workloads.Workload("tiny", speakers=2, lengths=(4, 13), setup_format="csv", train_share=0.5)
SMALL = ModelConfig(conv_channels=2, kernel_sizes=(1, 3), attn_model_dim=8, attn_layers=1,
                    attn_heads=2, attn_head_dim=4, speech_fc_units=6, blstm_hidden=3)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


def tree_digest(root: Path) -> str:
    acc = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            acc.update(str(path.relative_to(root)).encode())
            acc.update(path.read_bytes())
    return acc.hexdigest()


# -- generator ----------------------------------------------------------------------

def test_same_seed_gives_identical_corpus(tmp_path):
    gen.generate(TINY, 5, tmp_path / "a")
    gen.generate(TINY, 5, tmp_path / "b")
    gen.generate(TINY, 6, tmp_path / "c")
    assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")
    assert tree_digest(tmp_path / "a") != tree_digest(tmp_path / "c")


def test_wav_frames_match_alignment_and_ema(tmp_path):
    corpus = gen.generate(TINY, 2, tmp_path)
    from_csv = dataio.load_manifest(corpus["csv"])
    from_wav = dataio.load_manifest(corpus["wav"])
    assert [s.mfcc.shape[0] for s in from_csv] == [4, 13, 4, 13]
    assert [s.mfcc.shape[0] for s in from_wav] == [4, 13, 4, 13]
    assert [s.utterance_id for s in from_wav] == list(corpus["frames"])
    for a, b in zip(from_csv, from_wav):
        np.testing.assert_array_equal(a.ema, b.ema)
        np.testing.assert_array_equal(a.phonemes, b.phonemes)


def test_cut_keeps_leading_frames_and_clips_alignment(tmp_path):
    (tmp_path / "f.csv").write_text("1\n2\n3\n")
    (tmp_path / "e.csv").write_text("time_s\n0.005\n0.015\n0.025\n")
    (tmp_path / "a.txt").write_text("0.0\t0.01\tAA\n0.01\t0.03\tB\n0.03\t0.05\tK\n")
    gen.cut(tmp_path, "f.csv", "a.txt", "e.csv", 2, 0.01)
    assert (tmp_path / "f.csv").read_text() == "1\n2\n"
    assert (tmp_path / "e.csv").read_text() == "time_s\n0.005\n0.015\n"
    assert (tmp_path / "a.txt").read_text() == "0.0\t0.01\tAA\n0.01\t0.02\tB\n"


# -- span arithmetic ---------------------------------------------------------------------

def span(name, start, end, parent=None):
    return {"name": name, "start": start, "end": end, "parent": parent, "attrs": {}}


def test_self_time_subtracts_children_once():
    spans = [span("step", 0.0, 10.0), span("fwd", 1.0, 4.0, 0), span("bwd", 5.0, 9.0, 0),
             span("inner", 2.0, 3.0, 1)]
    assert sp.self_times(spans) == pytest.approx([3.0, 2.0, 4.0, 1.0])


def test_self_time_counts_overlapping_children_as_their_union():
    spans = [span("loso", 0.0, 10.0), span("a", 1.0, 6.0, 0), span("b", 4.0, 12.0, 0)]
    assert sp.self_times(spans)[0] == pytest.approx(1.0)


def test_tracer_nests_spans_and_restores_patched_attributes():
    tracer = sp.Tracer()

    class Box:
        def work(self):
            return tracer.wrap(lambda: 7, "inner")()

    box = Box()
    with sp.Patches() as patches:
        patches.add(box, "work", lambda f: tracer.wrap(f, "outer"))
        assert box.work() == 7
    assert "work" not in vars(box)
    closed = tracer.closed()
    assert [s["name"] for s in closed] == ["outer", "inner"]
    assert closed[1]["parent"] == 0 and closed[0]["parent"] is None


def test_unfinished_spans_are_dropped_and_parents_reindexed():
    tracer = sp.Tracer()
    tracer.begin("never_closed")
    outer = tracer.begin("outer")
    tracer.end(tracer.begin("inner"))
    tracer.end(outer)
    closed = tracer.closed()
    assert [(s["name"], s["parent"]) for s in closed] == [("outer", None), ("inner", 0)]


def test_pool_idle_share():
    folds = [(0.0, 4.0), (0.0, 2.0), (2.0, 5.0)]
    # two running over [0, 4), one over [4, 5), none over [5, 10)
    assert sp.busy_below(folds, (0.0, 10.0), 2) == pytest.approx(0.6)
    assert sp.busy_below(folds, (0.0, 10.0), 1) == pytest.approx(0.5)


def test_percentile_interpolates():
    assert sp.percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)
    assert sp.percentile(range(11), 90) == pytest.approx(9.0)


# -- metric names ------------------------------------------------------------------------

def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0.0 < b <= 0.25 for b in bounds.values())
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(bounds.values())


def test_per_layer_metrics_emitted_are_the_declared_ones(tmp_path):
    """Feed every per-layer computation synthetic spans and a small model;
    the union of what they return must be exactly BENCHMARK.json's list."""
    model = InversionModel(SMALL, seed=0)
    apply_scenario(SCENARIOS["S3"], model)
    rng = np.random.default_rng(0)
    frames = 6
    sample = dataio.UtteranceSample("u", "s", rng.standard_normal((frames, 39)),
                                    np.eye(39)[rng.integers(0, 39, frames)], rng.standard_normal((frames, 12)))
    isolated = stage.isolated_metrics(model, [sample], seed=0)
    assert isolated.pop("isolated_frames") == frames

    forward_names = ["training.step", "model.forward", "autodiff.backward", "layers.adam.step"] + [
        f"{n}.fwd" for n in ("layers.attention", "layers.layer_norm", "layers.blstm", "layers.conv_bank",
                             "layers.dense", "model.speech", "model.phoneme", "model.fusion", "model.head")]
    train_spans = [span("training.step", 0.0, 1.0)] + [span(n, 0.1, 0.2, 0) for n in forward_names[1:]]
    emitted = {**stage.forward_metrics(train_spans), **isolated}

    loso = [span("evaluation.run_loso", 0.0, 10.0), span("evaluation.fold", 1.0, 5.0),
            span("evaluation.fold", 1.0, 8.0), span("dataio.save_checkpoint", 4.0, 5.0),
            span("dataio.load_manifest", 0.0, 0.5), {**span("features.mfcc", 0.1, 0.2), "attrs": {"audio_s": 2.0}}]
    evals = [span("dataio.load_checkpoint", 0.0, 1.0), {**span("model.predict", 1.0, 2.0), "attrs": {"frames": 50}},
             span("dataio.csv_write", 2.0, 2.5), span("evaluation.score", 3.0, 3.5)]
    for name, rows in (("loso-0", loso), ("eval-0", evals)):
        (tmp_path / name).mkdir()
        (tmp_path / name / "1.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    rounds = [{"checkpoint_mb": 1.0, "csv_mb_written": 0.5}]
    emitted.update(run.protocol_layers(tmp_path, rounds), **{"trace.overhead_pct": 0.0})

    assert set(emitted) == {m["name"] for m in SPEC["per_layer"]}
    assert all(np.isfinite(v) and v > 0 for k, v in emitted.items() if k != "trace.overhead_pct")
