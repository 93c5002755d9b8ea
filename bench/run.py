"""The artinv benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload train_short --seed 0 --seconds 25 --trace 0

Run from the root of a checkout.  It generates the workload's corpus from
the seed (``gen.py``), then measures in child processes, all with the BLAS
thread count pinned:

1. set-up probes (``stage.py setup``): process start to model built;
2. the training stage (``stage.py train``): ``train_model`` rounds;
3. the protocol stage: ``artinv loso --scenario S3 --jobs 2 --epochs 1`` on
   the WAV manifest, then ``artinv eval`` of the first fold's checkpoint over
   the whole corpus, in rounds until ``--seconds`` are spent.

It checks the outputs (finite losses, exit codes 0, identical parameter and
report digests across the rounds of one seed) and prints, as its last line,
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The line
before it holds the environment, the digests and the raw round timings.
Exit status 2 without a result when the checkout holds no program.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans as sp
import workloads

HARD_LIMIT_S = 170.0     # the whole run must end within 180 s
SETUP_PROBES = 4         # plus the training stage's own set-up: 5 samples
MIN_ROUNDS = 2           # per stage: the digest checks compare rounds
LOSO_JOBS = 2
PYTHON = sys.executable or "python3"


class Run:
    """Counts operations and failures, and runs child processes so that
    none outlives the benchmark."""

    def __init__(self, started: float):
        self.started = started
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.monotonic() - self.started)

    def child(self, argv, env=None):
        """Run ``argv`` in its own process group; return (exit status,
        stdout).  On timeout the whole group is killed."""
        self.attempted += 1
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                env=env, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.remaining()))
        except BaseException as exc:  # timeout or interrupt: end the whole group first
            os.killpg(proc.pid, signal.SIGKILL)
            out, err = proc.communicate()
            if not isinstance(exc, subprocess.TimeoutExpired):
                raise
            self.fail(f"timeout: {' '.join(map(str, argv[:4]))}")
            return None, out
        if proc.returncode != 0:
            self.fail(f"exit {proc.returncode}: {' '.join(map(str, argv[:4]))}: {err.strip()[-400:]}")
        return proc.returncode, out


def digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def grand_row(report_csv) -> dict:
    """The grand row of the inversion stream in a ``report.csv``."""
    with open(report_csv, newline="", encoding="utf-8") as fh:
        return next(r for r in csv.DictReader(fh) if r["scope"] == "grand" and r["stream"] == "inversion")


def stage_json(run: Run, argv):
    status, out = run.child(argv)
    return json.loads(out.strip().splitlines()[-1]) if status == 0 else None


# -- protocol stage -------------------------------------------------------------

def protocol_round(run: Run, index: int, manifest: Path, seed: int, work: Path, trace_dir):
    """One LOSO run and one eval run; returns their measurements."""
    def cli(command, out, *extra):
        argv = [PYTHON, "-m", "artinv"] if trace_dir is None else [PYTHON, str(workloads.BENCH_DIR / "traced_cli.py")]
        env = None
        if trace_dir is not None:
            spans_dir = Path(trace_dir) / f"{command}-{index}"
            spans_dir.mkdir(parents=True, exist_ok=True)
            env = {**os.environ, "ARTINV_BENCH_SPANS": str(spans_dir)}
        started = time.monotonic()
        status, _ = run.child(argv + [command, "--manifest", str(manifest), "--out", str(out), *extra], env)
        return status, time.monotonic() - started

    status, loso_s = cli("loso", work / f"loso-{index}", "--scenario", "S3", "--seed", str(seed),
                         "--jobs", str(LOSO_JOBS), "--epochs", "1")
    if status != 0:
        return None
    loso_dir = next((work / f"loso-{index}").glob("loso-*"))
    checkpoint = sorted((loso_dir / "folds").glob("*/checkpoint.ckpt"))[0]
    status, eval_s = cli("eval", work / f"eval-{index}", "--checkpoint", str(checkpoint))
    if status != 0:
        return None
    eval_dir = next((work / f"eval-{index}").glob("eval-*"))
    return {
        "loso_s": loso_s, "eval_s": eval_s,
        "rmse_mm": float(grand_row(loso_dir / "report.csv")["rmse_mm"]),
        "loso_report": digest(loso_dir / "report.csv"),
        "eval_report": digest(eval_dir / "report.csv"),
        "eval_frames": int(grand_row(eval_dir / "report.csv")["n_frames"]),
        "checkpoint_mb": checkpoint.stat().st_size / 2**20,
        "csv_mb_written": sum(p.stat().st_size for p in (eval_dir / "folds").rglob("*.csv")) / 2**20,
    }


# -- metrics from spans ------------------------------------------------------------

def protocol_layers(trace_dir: Path, rounds) -> dict:
    fold_s, idle, load_ckpt, predict_frames, predict_s = [], [], [], 0, 0.0
    csv_ms, score_ms, save_ms, manifest_ms, mfcc_ms, audio_s = [], [], [], [], 0.0, 0.0
    for index in range(len(rounds)):
        loso = sp.read_spans(trace_dir / f"loso-{index}")
        evals = sp.read_spans(trace_dir / f"eval-{index}")
        folds = [(s["start"], s["end"]) for s in loso if s["name"] == "evaluation.fold"]
        fold_s += [e - s for s, e in folds]
        window = next((s["start"], s["end"]) for s in loso if s["name"] == "evaluation.run_loso")
        idle.append(sp.busy_below(folds, window, LOSO_JOBS))
        save_ms += [1000 * sp.duration(s) for s in loso if s["name"] == "dataio.save_checkpoint"]
        load_ckpt += [1000 * sp.duration(s) for s in evals if s["name"] == "dataio.load_checkpoint"]
        csv_ms.append(1000 * sum(sp.duration(s) for s in evals if s["name"] == "dataio.csv_write"))
        score_ms.append(1000 * sum(sp.duration(s) for s in evals if s["name"] == "evaluation.score"))
        for s in evals:
            if s["name"] == "model.predict":
                predict_frames += s["attrs"]["frames"]
                predict_s += sp.duration(s)
        for s in loso + evals:
            if s["name"] == "dataio.load_manifest":
                manifest_ms.append(1000 * sp.duration(s))
            elif s["name"] == "features.mfcc":
                mfcc_ms += 1000 * sp.duration(s)
                audio_s += s["attrs"]["audio_s"]
    return {
        "model.predict_frames_per_s": predict_frames / predict_s,
        "features.mfcc_ms_per_audio_s": mfcc_ms / audio_s,
        "dataio.load_manifest_ms": statistics.median(manifest_ms),
        "dataio.save_checkpoint_ms": statistics.median(save_ms),
        "dataio.load_checkpoint_ms": statistics.median(load_ckpt),
        "dataio.checkpoint_mb": rounds[0]["checkpoint_mb"],
        "dataio.csv_write_ms": statistics.median(csv_ms),
        "dataio.csv_mb_written": rounds[0]["csv_mb_written"],
        "evaluation.score_ms": statistics.median(score_ms),
        "evaluation.fold_s_p50": statistics.median(fold_s),
        "evaluation.pool_idle_share": statistics.median(idle),
    }


# -- the run ------------------------------------------------------------------------

def measure(args, run: Run, work: Path, trace_dir) -> tuple[dict, dict]:
    import gen

    workload = workloads.WORKLOADS[args.workload]
    phases = {"start": time.monotonic() - run.started}
    corpus = gen.generate(workload, args.seed, work / "corpus")
    phases["generated"] = time.monotonic() - run.started
    info = {"env": workloads.environment(args.seed), "workload": workload.name,
            "utterances": len(corpus["frames"]), "frames": sum(corpus["frames"].values())}
    setup_manifest = corpus[workload.setup_format]
    stage = [PYTHON, str(workloads.BENCH_DIR / "stage.py")]

    setups = []
    if trace_dir is None:
        for _ in range(SETUP_PROBES):
            started = time.monotonic()
            out = stage_json(run, stage + ["setup", "--manifest", str(setup_manifest), "--seed", str(args.seed)])
            if out is not None:
                setups.append(out["setup_done"] - started)

    measure_start = time.monotonic()
    phases["probed"] = measure_start - run.started
    train_argv = stage + ["train", "--manifest", str(setup_manifest), "--seed", str(args.seed),
                          "--deadline", repr(measure_start + workload.train_share * args.seconds),
                          "--min_rounds", str(1 + 2 * MIN_ROUNDS if trace_dir else MIN_ROUNDS)]
    if trace_dir is not None:
        train_argv += ["--trace", str(trace_dir)]
    started = time.monotonic()
    train = stage_json(run, train_argv)
    phases["trained"] = time.monotonic() - run.started
    if train is not None:
        setups.append(train["setup_done"] - started)
        for error in train["errors"]:
            run.fail(f"training round: {error}")
        run.attempted += len(train["rounds"])

    rounds = []
    deadline = measure_start + args.seconds
    while len(rounds) < MIN_ROUNDS or time.monotonic() < deadline:
        if run.remaining() < 30.0:
            break
        result = protocol_round(run, len(rounds), corpus["wav"], args.seed, work, trace_dir)
        if result is None:
            break
        rounds.append(result)
        # delete while the files are still in the page cache: removing them
        # after writeback costs seconds of discard I/O on some disks
        for leftover in work.glob(f"*-{len(rounds) - 1}"):
            shutil.rmtree(leftover)
        phases[f"protocol{len(rounds) - 1}"] = time.monotonic() - run.started

    ok_train = [r for r in (train or {}).get("rounds", []) if not r["failed"]]
    checks = {
        "losses_finite": all(r["losses_finite"] for r in ok_train),
        "param_digests_equal": len({r["digest"] for r in ok_train}) <= 1,
        "train_loss_equal": len({r["loss_final"] for r in ok_train}) <= 1,
        "loso_reports_equal": len({r["loso_report"] for r in rounds}) <= 1,
        "eval_reports_equal": len({r["eval_report"] for r in rounds}) <= 1,
        "eval_covers_corpus": all(r["eval_frames"] == info["frames"] for r in rounds),
        "rmse_finite": all(0.0 < r["rmse_mm"] < float("inf") for r in rounds),
    }
    for name, passed in checks.items():
        if not passed:
            run.problems.append(f"check failed: {name}")
    info.update(checks=checks, problems=run.problems, phases_s=phases, setup_samples_s=setups,
                train_rounds=(train or {}).get("rounds"), protocol_rounds=rounds)
    if not ok_train or not rounds:
        return info, {}

    if trace_dir is None:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "train_frames_per_s": (statistics.median(r["frames"] / r["wall_s"] for r in ok_train), "frames/s"),
            "train_loss_final": (ok_train[0]["loss_final"], "loss"),
            "loso_s": (statistics.median(r["loso_s"] for r in rounds), "s"),
            "eval_frames_per_s": (statistics.median(info["frames"] / r["eval_s"] for r in rounds), "frames/s"),
            "rmse_mm": (rounds[0]["rmse_mm"], "mm"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0, "MB"),
        }
    else:
        # round 0 is the untraced warm-up; compare the alternating rounds after it
        traced = [r["wall_s"] for r in ok_train[1:] if r["traced"]]
        plain = [r["wall_s"] for r in ok_train[1:] if not r["traced"]]
        overhead = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
        values = {**train["layers"], **protocol_layers(trace_dir, rounds), "trace.overhead_pct": overhead}
        info["isolated_frames"] = values.pop("isolated_frames")
        declared = {m["name"]: m["unit"] for m in json.loads((workloads.ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        metrics = {name: (values[name], unit) for name, unit in declared.items()}
    return info, {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads.pin_blas()
    workloads.use_source_tree()

    run = Run(started)
    work = workloads.WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    trace_dir = None
    if args.trace:
        trace_dir = workloads.WORK_DIR / "traces" / f"{args.workload}-{args.seed}-{os.getpid()}"
        trace_dir.mkdir(parents=True)
    try:
        info, metrics = measure(args, run, work, trace_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if trace_dir is not None:
        info["spans"] = str(trace_dir.relative_to(workloads.ROOT))
    attempted = max(run.attempted, 1)
    info["fail_ratio"] = run.failed / attempted
    print(json.dumps(info))
    correct = not run.problems and len(metrics) > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
