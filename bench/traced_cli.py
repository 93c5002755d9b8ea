"""``artinv`` command line with spans recorded around its public functions.

    ARTINV_BENCH_SPANS=DIR python3 bench/traced_cli.py loso --manifest ... --jobs 2

Each process writes its spans to ``DIR/<pid>.jsonl``: the command's own
process when the command returns, each LOSO pool worker after each fold.
The wrappers are installed when this file is loaded rather than under the
``__main__`` guard: a pool that starts workers with ``spawn`` re-runs this
file's top level in every worker, and the workers need the same wrappers as
a forked worker inherits.
"""

from __future__ import annotations

import os
import sys

import workloads

workloads.pin_blas()
workloads.use_source_tree()

import spans as sp  # noqa: E402
from artinv import cli, dataio, evaluation, features  # noqa: E402
from artinv.model import InversionModel  # noqa: E402

SPANS_DIR = os.environ.get("ARTINV_BENCH_SPANS", ".")
MAIN_PID_ENV = "ARTINV_BENCH_MAIN_PID"
TRACER = sp.Tracer()


def _flush_after(fn):
    """Pool workers never reach the command's exit, so they write their
    spans after every fold."""
    def traced(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        finally:
            if str(os.getpid()) != os.environ.get(MAIN_PID_ENV):
                TRACER.write(f"{SPANS_DIR}/{os.getpid()}.jsonl")
    return traced


def install(patches: sp.Patches) -> None:
    wrap = TRACER.wrap
    patches.add(dataio, "load_manifest", lambda f: wrap(f, "dataio.load_manifest"))
    patches.add(features, "compute_mfcc", lambda f: wrap(
        f, "features.mfcc", lambda samples, rate, *a, **k: {"audio_s": len(samples) / rate}))
    patches.add(evaluation, "save_checkpoint", lambda f: wrap(f, "dataio.save_checkpoint"))
    patches.add(evaluation, "load_checkpoint", lambda f: wrap(f, "dataio.load_checkpoint"))
    patches.add(evaluation, "write_matrix_csv", lambda f: wrap(f, "dataio.csv_write"))
    patches.add(evaluation, "score_stream_dir", lambda f: wrap(f, "evaluation.score"))
    patches.add(evaluation, "run_fold", lambda f: _flush_after(wrap(f, "evaluation.fold")))
    patches.add(evaluation, "run_loso", lambda f: wrap(f, "evaluation.run_loso"))
    patches.add(InversionModel, "predict", lambda f: wrap(
        f, "model.predict", lambda self, mfcc, phonemes: {"frames": (mfcc if mfcc is not None else phonemes).shape[0]}))


install(sp.Patches())  # never undone: the wrappers live as long as the command

if __name__ == "__main__":
    os.environ[MAIN_PID_ENV] = str(os.getpid())
    try:
        status = cli.main(sys.argv[1:])
    finally:
        TRACER.write(f"{SPANS_DIR}/{os.getpid()}.jsonl")
    sys.exit(status)
