"""Command-line entry point.

Subcommands: ``synth`` (synthetic corpus), ``train``, ``eval`` (score one
checkpoint), ``loso`` (leave-one-speaker-out protocol), ``ablate``
(two-stream vs speech-only arms), ``gradcheck`` (gradient suites).

Exit codes: 0 success, 1 usage, 2 data error, 3 numerical failure.
Seeds are mandatory wherever randomness exists; identical invocations
produce byte-identical primary outputs.  Training/evaluation outputs land
in a run directory named by the hash of the resolved configuration, so
different configurations never overwrite each other.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import hashlib
import json
import logging
import platform
import sys
from pathlib import Path

import numpy as np

from . import dataio, evaluation, gradcheck, openblas_function, workers
from .errors import ArtinvError, UsageError
from .features import MfccConfig, feature_config_hash
from .model import InversionModel, ModelConfig, SCENARIOS, apply_scenario
from .training import Hyper, train_model

log = logging.getLogger("artinv")


class _Parser(argparse.ArgumentParser):
    """argparse maps usage problems to exit code 2; this CLI reserves 2 for
    data errors, so remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _hyper_flags(parser):
    parser.add_argument("--epochs", type=int, default=20, help="training epochs (default: %(default)s)")
    parser.add_argument("--learning_rate", type=float, default=1e-4,
                        help="Adam learning rate (default: %(default)s)")
    parser.add_argument("--batch_size", type=int, default=5, help="utterances per batch (default: %(default)s)")
    parser.add_argument("--w_inversion", type=float, default=1.0,
                        help="loss weight of the full-model term (default: %(default)s)")
    parser.add_argument("--w_phoneme", type=float, default=1.0,
                        help="loss weight of the phoneme-stream term (default: %(default)s)")


def _feature_flags(parser):
    parser.add_argument("--window_ms", type=float, default=25.0, help="analysis window (default: %(default)s ms)")
    parser.add_argument("--hop_ms", type=float, default=10.0, help="frame hop (default: %(default)s ms)")
    parser.add_argument("--mel_filters", type=int, default=26, help="mel filterbank size (default: %(default)s)")


def _seed_flag(parser):
    parser.add_argument("--seed", type=int, required=True,
                        help="base seed; required so every run is reproducible")


def build_parser() -> _Parser:
    parser = _Parser(prog="artinv", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a synthetic corpus + manifest")
    p.add_argument("--out", required=True, help="corpus output directory")
    p.add_argument("--speakers", type=int, default=8, help="speaker count (default: %(default)s)")
    p.add_argument("--utts", type=int, default=20, help="utterances per speaker (default: %(default)s)")
    p.add_argument("--offset_scale", type=float, default=2.0,
                   help="per-speaker articulator offset scale, mm (default: %(default)s)")
    p.add_argument("--noise_scale", type=float, default=0.3, help="frame noise, mm (default: %(default)s)")
    p.add_argument("--smoothing", type=int, default=3, help="moving-average width, frames (default: %(default)s)")
    p.add_argument("--dur_min", type=int, default=5, help="min frames per phoneme (default: %(default)s)")
    p.add_argument("--dur_max", type=int, default=20, help="max frames per phoneme (default: %(default)s)")
    p.add_argument("--phones_min", type=int, default=2, help="min phonemes per utterance (default: %(default)s)")
    p.add_argument("--phones_max", type=int, default=5, help="max phonemes per utterance (default: %(default)s)")
    p.add_argument("--force", action="store_true", help="allow writing into a non-empty directory")
    _seed_flag(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train one model on a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--scenario", required=True, choices=("S1", "S2", "S3"))
    p.add_argument("--out", required=True, help="parent directory for the run directory")
    p.add_argument("--pretrained", help="phoneme-stream checkpoint (required for S2)")
    p.add_argument("--val_fraction", type=float, default=0.2,
                   help="validation share per speaker (default: %(default)s)")
    _hyper_flags(p)
    _feature_flags(p)
    _seed_flag(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--channels", choices=("tongue", "all"), default="tongue",
                   help="scored channel subset (default: %(default)s)")
    _feature_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("loso", help="leave-one-speaker-out protocol")
    p.add_argument("--manifest", required=True)
    p.add_argument("--scenario", required=True, choices=("S1", "S2", "S3"))
    p.add_argument("--out", required=True)
    p.add_argument("--channels", choices=("tongue", "all"), default="tongue",
                   help="scored channel subset (default: %(default)s)")
    p.add_argument("--jobs", type=int, default=1, help="parallel folds (default: %(default)s)")
    _hyper_flags(p)
    _feature_flags(p)
    _seed_flag(p)
    p.set_defaults(func=cmd_loso)

    p = sub.add_parser("ablate", help="two-stream vs speech-only comparison")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--channels", choices=("tongue", "all"), default="tongue",
                   help="scored channel subset (default: %(default)s)")
    p.add_argument("--jobs", type=int, default=1, help="parallel folds (default: %(default)s)")
    _hyper_flags(p)
    _feature_flags(p)
    _seed_flag(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("gradcheck", help="run the gradient verification suites")
    _seed_flag(p)
    p.set_defaults(func=cmd_gradcheck)
    return parser


def _resolved_config(args) -> dict:
    skip = {"func", "command"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _environment() -> dict:
    """What the output bytes rest on besides the configuration: the Python,
    numpy and BLAS builds, OpenBLAS's core kernel and thread count (None
    without numpy's scipy-openblas library), and the usable cores, which set
    how many processes ``eval`` predicts on and how many processes training
    splits a batch of several groups over; neither changes the bytes."""
    def openblas(name, restype):
        function = openblas_function(name)
        if function is None:
            return None
        function.restype = restype
        return function()

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    corename = openblas("scipy_openblas_get_corename64_", ctypes.c_char_p)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "openblas_corename": corename.decode() if corename is not None else None,
        "openblas_threads": openblas("scipy_openblas_get_num_threads64_", ctypes.c_int),
        "usable_cores": workers.usable_cores(),
    }


def _write_json(path: Path, value: dict) -> None:
    with dataio.create_text(path) as fh:
        json.dump(value, fh, sort_keys=True, indent=2, default=str)
        fh.write("\n")


def _run_dir(args, base) -> Path:
    """The run directory, named by the hash of ``config.json``.
    ``environment.json`` sits beside it, outside the hash."""
    config = {"command": args.command, **_resolved_config(args)}
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    digest = hashlib.sha256(blob.encode()).hexdigest()[:12]
    run_dir = Path(base) / f"{args.command}-{digest}"
    _write_json(run_dir / "config.json", config)
    _write_json(run_dir / "environment.json", _environment())
    return run_dir


def _print_scores(scores: dict, path: Path) -> None:
    for name, score in scores.items():
        print(f"{name}: rmse_mm={score.rmse_mean:.4f} pcc={score.pcc_mean:.4f}")
    print(path)


def _mfcc_config(args) -> MfccConfig:
    return MfccConfig(window_ms=args.window_ms, hop_ms=args.hop_ms, mel_filters=args.mel_filters)


def _hyper(args) -> Hyper:
    return Hyper(epochs=args.epochs, learning_rate=args.learning_rate, batch_size=args.batch_size,
                 weight_inversion=args.w_inversion, weight_phoneme=args.w_phoneme)


def cmd_synth(args) -> int:
    out = Path(args.out)
    if out.is_dir() and any(out.iterdir()) and not args.force:
        raise UsageError(f"output directory {out} is not empty (use --force to write anyway)")
    spec = dataio.SyntheticSpec(
        speakers=args.speakers, utterances_per_speaker=args.utts,
        speaker_offset_scale=args.offset_scale, noise_scale=args.noise_scale,
        smoothing=args.smoothing, seed=args.seed,
        duration_range=(args.dur_min, args.dur_max),
        phones_range=(args.phones_min, args.phones_max),
    )
    manifest = dataio.generate_synthetic(spec, out)
    _write_json(out / "config.json", {"command": "synth", **_resolved_config(args)})
    print(manifest)
    return 0


def cmd_train(args) -> int:
    scenario = SCENARIOS[args.scenario]
    if scenario.needs_pretrained and not args.pretrained:
        raise UsageError("scenario S2 requires --pretrained <phoneme-stream checkpoint>")
    if not 0.0 <= args.val_fraction < 1.0:
        raise UsageError(f"--val_fraction must be in [0, 1), got {args.val_fraction}")
    hyper = _hyper(args)
    cfg = _mfcc_config(args)
    feature_hash = feature_config_hash(cfg)
    samples = dataio.load_manifest(args.manifest, cfg)
    model = InversionModel(ModelConfig(), seed=args.seed)

    pretrained_arrays = None
    if scenario.needs_pretrained:
        ckpt = dataio.load_checkpoint(args.pretrained)
        dataio.require_compatible(ckpt, feature_hash, path=args.pretrained)
        phoneme_arrays = {n: p.data for n, p in model.partition_params("phoneme_stream").items()}
        dataio.require_arrays(ckpt, phoneme_arrays, path=args.pretrained)
        pretrained_arrays = {n: ckpt.arrays[n] for n in phoneme_arrays}
    run_dir = _run_dir(args, args.out)

    train_ids, val_ids = evaluation.split_train_val(
        samples, seed=evaluation.derive_seed(args.seed, "val-split"), val_fraction=args.val_fraction)
    by_id = {s.utterance_id: s for s in samples}
    apply_scenario(scenario, model, pretrained_arrays=pretrained_arrays)
    result = train_model(model, scenario, [by_id[i] for i in train_ids], [by_id[i] for i in val_ids],
                         hyper, seed=evaluation.derive_seed(args.seed, "train"))

    ckpt_path = run_dir / "checkpoint.ckpt"
    dataio.save_checkpoint(ckpt_path, model, feature_hash, scenario=args.scenario,
                           hyper=dataclasses.asdict(hyper), seed=args.seed)
    dataio.write_trace_csv(run_dir / "trace.csv", result.trace)
    print(ckpt_path)
    return 0


def cmd_eval(args) -> int:
    cfg = _mfcc_config(args)
    samples = dataio.load_manifest(args.manifest, cfg)
    # a checkpoint that cannot be used fails before the run directory is
    # made; loaded through evaluation's name, which bench/traced_cli.py times
    ckpt = evaluation.load_checkpoint(args.checkpoint)
    dataio.require_compatible(ckpt, feature_config_hash(cfg), path=args.checkpoint)
    model = dataio.model_from_checkpoint(ckpt, path=args.checkpoint)
    run_dir = _run_dir(args, args.out)
    report = evaluation.evaluate_model(ckpt, model, samples, run_dir, channels=args.channels)
    _print_scores(report.grand, run_dir / "report.csv")
    return 0


def cmd_loso(args) -> int:
    if args.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {args.jobs}")
    hyper = _hyper(args)
    cfg = _mfcc_config(args)
    samples = dataio.load_manifest(args.manifest, cfg)
    run_dir = _run_dir(args, args.out)
    report = evaluation.run_loso(samples, args.scenario, hyper, seed=args.seed,
                                 out_dir=run_dir, channels=args.channels, jobs=args.jobs,
                                 feature_hash=feature_config_hash(cfg))
    _print_scores(report.grand, run_dir / "report.csv")
    failed = [f"{f.held_out_speaker}: {f.failed}" for f in report.folds if f.failed]
    if failed:
        print("artinv: error: fold(s) failed, grand means omitted - " + "; ".join(failed),
              file=sys.stderr)
        return 2
    return 0


def cmd_ablate(args) -> int:
    if args.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {args.jobs}")
    hyper = _hyper(args)
    cfg = _mfcc_config(args)
    samples = dataio.load_manifest(args.manifest, cfg)
    run_dir = _run_dir(args, args.out)
    reports = evaluation.run_ablation(samples, hyper, seed=args.seed, out_dir=run_dir,
                                      channels=args.channels, jobs=args.jobs,
                                      feature_hash=feature_config_hash(cfg))
    _print_scores({arm: report.grand["inversion"] for arm, report in reports.items()}, run_dir / "ablation.csv")
    return 0


def cmd_gradcheck(args) -> int:
    report, e2e, passed = gradcheck.run_all(seed=args.seed)
    for name in sorted(report):
        print(f"{name:32s} {report[name]:.3e}")
    print(f"{'end_to_end':32s} {e2e:.3e}")
    if not passed:
        print(f"gradient check FAILED (layer tolerance {gradcheck.LAYER_TOLERANCE:g}, "
              f"end-to-end {gradcheck.END_TO_END_TOLERANCE:g})", file=sys.stderr)
        return 3
    print("all gradient checks passed")
    return 0


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s",
                        stream=sys.stderr)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ArtinvError as exc:
        print(f"artinv: error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
