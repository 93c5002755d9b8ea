"""Workload definitions, the BLAS thread pin and the environment record.

Nothing here imports numpy at module level: ``pin_blas`` must run before
numpy is first imported, in every process the benchmark starts.
"""

from __future__ import annotations

import os
import platform
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"

# One BLAS thread per process.  `artinv loso --jobs 2` runs two training
# processes on a 2-core machine; with OpenBLAS's default of one thread per
# core they oversubscribe the cores and LOSO wall time swings by 3-30x
# (see README.md, "Thread pin").
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas() -> None:
    """Pin the BLAS thread count for this process and every child it starts.
    OpenBLAS reads it once, when numpy is first imported: the benchmark's
    entry scripts call this before importing numpy."""
    for name in BLAS_ENV:
        os.environ[name] = str(BLAS_THREADS)


def use_source_tree() -> None:
    """Import ``artinv`` from this checkout's ``src``, here and in children.
    Exits with status 2 when the checkout holds no program to measure."""
    if not (SRC / "artinv" / "__init__.py").is_file():
        print(f"bench: no program at {SRC / 'artinv'}; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    previous = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + previous if previous else "")


def environment(seed: int) -> dict:
    """What a reader needs to compare two result files: thread pin, cores,
    interpreter, numpy and OpenBLAS versions, and the workload seed."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "blas_threads": BLAS_THREADS,
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "seed": seed,
    }


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: the corpus it generates and how it splits the
    measured time between the training stage and the protocol stage.

    Every workload runs both stages, so every end-to-end metric exists on
    every workload; ``train_share`` decides which stage gets most samples.
    Each speaker has one utterance of each length in ``lengths`` (frames):
    lengths mix, and the corpus size is the same for every seed.
    """

    name: str
    speakers: int
    lengths: tuple
    setup_format: str  # "csv" or "wav": the manifest the training stage loads
    train_share: float  # share of --seconds given to the training stage


WORKLOADS = {
    w.name: w for w in (
        Workload("train_short", speakers=4, lengths=(10, 30, 45, 60, 80),
                 setup_format="csv", train_share=0.6),
        Workload("train_long", speakers=2, lengths=(400, 400, 400, 400),
                 setup_format="csv", train_share=0.5),
        Workload("loso_eval", speakers=6, lengths=(15, 35, 55, 75),
                 setup_format="wav", train_share=0.15),
    )
}
