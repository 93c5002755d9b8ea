"""What the traced benchmark reads from ``artinv eval`` and from training.

``bench/traced_cli.py`` wraps the program's functions from the outside and
writes the spans each process records.  The benchmark derives
``model.predict_frames_per_s`` and the eval I/O metrics from the spans of
the eval process itself, so that process must keep calling
``model.predict(mfcc, phonemes)``, ``write_matrix_csv``, ``load_checkpoint``
and ``score_stream_dir``.  This runs the traced command as the benchmark
does and checks that those spans are there.

``bench/stage.py`` opens a training step span at ``Adam.zero_grad``,
closes it at ``Adam.step`` and wraps ``autodiff.backward``, all by name.
Only the trainer process may call the first two, once per batch, or a
process closes a span it never opened; ``backward`` runs once per group,
in the process that runs the group.
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import numpy as np

import artinv
from artinv import autodiff as ad
from artinv import layers, training, workers
from artinv.cli import main
from artinv.dataio import UtteranceSample, save_checkpoint
from artinv.features import MfccConfig, feature_config_hash
from artinv.model import SCENARIOS, InversionModel, ModelConfig, apply_scenario
from forks import forked_pids

TRACED_CLI = Path(artinv.__file__).resolve().parents[2] / "bench" / "traced_cli.py"


@pytest.mark.skipif(not TRACED_CLI.is_file(), reason="no bench/ beside this source tree")
def test_traced_eval_records_its_own_predict_spans(tmp_path):
    corpus = tmp_path / "corpus"
    assert main(["synth", "--out", str(corpus), "--seed", "0", "--speakers", "2", "--utts", "3",
                 "--dur_min", "3", "--dur_max", "5", "--phones_min", "1", "--phones_max", "2"]) == 0
    ckpt = tmp_path / "model.ckpt"
    config = ModelConfig(attn_model_dim=8, attn_layers=1, attn_heads=2, attn_head_dim=4)
    save_checkpoint(ckpt, InversionModel(config, seed=0), feature_config_hash(MfccConfig()))
    spans_dir = tmp_path / "spans"
    spans_dir.mkdir()
    subprocess.run([sys.executable, str(TRACED_CLI), "eval", "--manifest", str(corpus / "manifest.csv"),
                    "--checkpoint", str(ckpt), "--out", str(tmp_path / "eval")],
                   env={**os.environ, "ARTINV_BENCH_SPANS": str(spans_dir)}, capture_output=True, check=True)

    files = sorted(spans_dir.glob("*.jsonl"))
    assert len(files) == 1  # the eval process's own; prediction workers write none
    spans = [json.loads(line) for line in files[0].read_text().splitlines()]
    names = [s["name"] for s in spans]
    assert any(s["name"] == "model.predict" and s["attrs"]["frames"] > 0 for s in spans)
    for name in ("dataio.load_checkpoint", "dataio.csv_write", "evaluation.score"):
        assert name in names


def logged_training(tmp_path, monkeypatch) -> tuple:
    """Train on 2 patched cores, logging each call, in any process, of the
    three methods the benchmark wraps; returns the forked pids, the
    ``(pid, name)`` calls and the batch count."""
    log = tmp_path / "calls.log"

    def logged(method, name):
        def logging(*args, **kwargs):  # in any process
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {name}\n")
            return method(*args, **kwargs)
        return logging

    monkeypatch.setattr(layers.Adam, "zero_grad", logged(layers.Adam.zero_grad, "zero_grad"))
    monkeypatch.setattr(layers.Adam, "step", logged(layers.Adam.step, "step"))
    monkeypatch.setattr(ad, "backward", logged(ad.backward, "backward"))
    monkeypatch.setattr(workers, "usable_cores", lambda: 2)
    pids = forked_pids(monkeypatch)
    rng = np.random.default_rng(0)
    samples = [UtteranceSample(f"u{i}", "s", rng.normal(size=(n, 39)), np.eye(39)[rng.integers(0, 39, n)],
                               rng.normal(size=(n, 12))) for i, n in enumerate(rng.integers(5, 30, 7))]
    model = InversionModel(ModelConfig(attn_model_dim=8, attn_layers=1, attn_heads=2, attn_head_dim=4), seed=1)
    apply_scenario(SCENARIOS["S3"], model)
    hyper = training.Hyper(epochs=2, batch_size=3)
    training.train_model(model, SCENARIOS["S3"], samples, [], hyper, seed=2)
    return pids, [tuple(line.split()) for line in log.read_text().splitlines()], 2 * 3  # 7 utterances in 3s


def test_only_the_trainer_marks_steps_and_runs_backward(tmp_path, monkeypatch):
    """On 2 cores a plan of one-group batches trains beside worker 1,
    which forms the weight gradients and updates the parameters; it calls
    none of the three methods the benchmark wraps."""
    pids, calls, batches = logged_training(tmp_path, monkeypatch)
    assert len(pids) == 1 and {pid for pid, _ in calls} == {str(os.getpid())}
    assert [name for _, name in calls] == ["zero_grad", "backward", "step"] * batches


def test_only_the_trainer_marks_the_steps_of_split_batches(tmp_path, monkeypatch):
    """On 2 cores with every utterance a packed group of its own, worker 1
    runs groups, and so backward, and applies every update; only the
    trainer marks the steps."""
    monkeypatch.setattr(training, "pack_groups", functools.partial(training.pack_groups, limit=1))
    pids, calls, batches = logged_training(tmp_path, monkeypatch)
    marks = [(pid, name) for pid, name in calls if name != "backward"]
    assert len(pids) == 1 and {pid for pid, _ in marks} == {str(os.getpid())}
    assert [name for _, name in marks] == ["zero_grad", "step"] * batches
    assert {pid for pid, name in calls if name == "backward"} == {str(os.getpid()), str(pids[0])}
