"""What the traced benchmark reads from ``artinv eval``.

``bench/traced_cli.py`` wraps the program's functions from the outside and
writes the spans each process records.  The benchmark derives
``model.predict_frames_per_s`` and the eval I/O metrics from the spans of
the eval process itself, so that process must keep calling
``model.predict(mfcc, phonemes)``, ``write_matrix_csv``, ``load_checkpoint``
and ``score_stream_dir``.  This runs the traced command as the benchmark
does and checks that those spans are there.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import artinv
from artinv.cli import main
from artinv.dataio import save_checkpoint
from artinv.features import MfccConfig, feature_config_hash
from artinv.model import InversionModel, ModelConfig

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
