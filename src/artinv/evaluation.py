"""Metrics and the leave-one-speaker-out evaluation protocol.

Aggregation ladder (documented in every report header): RMSE and Pearson
correlation are computed per channel over the frames of one utterance,
averaged over channels to give the utterance value, combined across
utterances by frame-count-weighted mean to give the fold value, and
averaged arithmetically over folds to give the grand value.

Scoring always goes through the per-utterance prediction files persisted
on disk, so a report is reproducible from its run directory alone.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import hashlib
import logging
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dataio, workers
from .dataio import create_text, load_checkpoint, save_checkpoint, write_csv, write_matrix_csv
from .errors import DataError, NumericalError, UsageError, WorkerDied
from .features import EMA_CHANNELS, TONGUE_CHANNELS, open_text, read_matrix_csv
from .model import (
    InversionModel, ModelConfig, SCENARIOS, VARIANT_SPEECH_ONLY, apply_scenario,
)
from .training import Hyper, train_model

log = logging.getLogger(__name__)


# -- metrics -------------------------------------------------------------

def rmse(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Per-channel root-mean-square error over frames, same units as input."""
    if pred.shape != target.shape:
        raise DataError(f"rmse: shape {pred.shape} != {target.shape}")
    return np.sqrt(np.mean((pred - target) ** 2, axis=0))


def pcc(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Per-channel Pearson correlation over frames.

    Channels whose target variance vanishes are degenerate and come back as
    NaN (callers exclude them with a warning); a constant prediction against
    a varying target scores 0.
    """
    if pred.shape != target.shape:
        raise DataError(f"pcc: shape {pred.shape} != {target.shape}")
    if pred.shape[0] < 2:
        return np.full(pred.shape[1], np.nan)
    frames = pred.shape[0]
    p = pred - pred.mean(axis=0)
    t = target - target.mean(axis=0)
    t_var = (t * t).sum(axis=0)
    p_var = (p * p).sum(axis=0)
    # variance at roundoff scale (e.g. a bitwise-constant channel whose mean
    # subtraction leaves 1-ulp residue) counts as zero variance
    t_floor = frames * (1e-12 * np.max(np.abs(target), axis=0)) ** 2
    p_floor = frames * (1e-12 * np.max(np.abs(pred), axis=0)) ** 2
    out = np.full(pred.shape[1], np.nan)
    for c in range(pred.shape[1]):
        if t_var[c] <= t_floor[c]:
            continue
        if p_var[c] <= p_floor[c]:
            out[c] = 0.0
            continue
        out[c] = (p[:, c] * t[:, c]).sum() / np.sqrt(p_var[c] * t_var[c])
    return out


# -- fold planning ----------------------------------------------------------

@dataclass(frozen=True)
class FoldPlan:
    index: int
    held_out_speaker: str
    train_ids: tuple
    val_ids: tuple
    test_ids: tuple


def split_train_val(samples, seed: int, val_fraction: float = 0.2):
    """Per-speaker stratified shuffle split; every speaker contributes the
    same fraction of its utterances to validation."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(3,)))
    by_speaker: dict[str, list[str]] = {}
    for s in samples:
        by_speaker.setdefault(s.speaker_id, []).append(s.utterance_id)
    train_ids, val_ids = [], []
    for speaker in sorted(by_speaker):
        ids = sorted(by_speaker[speaker])
        order = rng.permutation(len(ids))
        n_train = max(1, int(round(len(ids) * (1.0 - val_fraction))))
        if n_train == len(ids) and len(ids) > 1:
            n_train -= 1
        for pos, j in enumerate(order):
            (train_ids if pos < n_train else val_ids).append(ids[j])
    return tuple(train_ids), tuple(val_ids)


def make_fold_plans(samples, seed: int) -> list[FoldPlan]:
    """One fold per speaker: that speaker's utterances all become test data,
    the rest split 80/20 per-speaker stratified."""
    speakers = dataio.speakers_of(samples)
    if len(speakers) < 2:
        raise DataError(
            "leave-one-speaker-out needs at least 2 speakers; "
            "the single-speaker protocol is degenerate"
        )
    plans = []
    for index, held_out in enumerate(speakers):
        test_ids = tuple(s.utterance_id for s in samples if s.speaker_id == held_out)
        rest = [s for s in samples if s.speaker_id != held_out]
        train_ids, val_ids = split_train_val(rest, seed=derive_seed(seed, "split", index))
        plans.append(FoldPlan(index, held_out, train_ids, val_ids, test_ids))
    return plans


def derive_seed(seed: int, *tags) -> int:
    """Deterministic child seed from a base seed and string/int tags."""
    text = ":".join([str(seed), *map(str, tags)])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "little")


# -- scores ----------------------------------------------------------------

@dataclass
class StreamScore:
    stream: str
    n_utterances: int
    n_frames: int
    rmse_mean: float
    pcc_mean: float
    rmse_channels: np.ndarray
    pcc_channels: np.ndarray


@dataclass
class FoldScore:
    index: int
    held_out_speaker: str
    streams: dict = field(default_factory=dict)  # stream name -> StreamScore
    failed: str | None = None  # error message when the fold did not train


@dataclass
class EvalReport:
    scenario: str
    seed: int
    channel_names: tuple
    folds: list
    grand: dict  # stream name -> StreamScore (fold-mean aggregates)


def channel_indices(channels: str):
    if channels == "tongue":
        names = TONGUE_CHANNELS
    elif channels == "all":
        names = EMA_CHANNELS
    else:
        raise UsageError(f"unknown channel subset {channels!r} (use 'tongue' or 'all')")
    return tuple(EMA_CHANNELS.index(n) for n in names), tuple(names)


def score_utterance(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """One utterance's scores as a row: the channel means of RMSE and of PCC
    (zero-variance channels left out), then RMSE and PCC per channel."""
    rmse_ch = rmse(pred, target)
    pcc_ch = pcc(pred, target)
    if np.any(np.isnan(pcc_ch)):
        log.warning("excluding %d zero-variance channel(s) from PCC", int(np.isnan(pcc_ch).sum()))
    pcc_mean = np.nanmean(pcc_ch) if not np.all(np.isnan(pcc_ch)) else np.nan
    return np.concatenate([[rmse_ch.mean(), pcc_mean], rmse_ch, pcc_ch])


def nan_weighted_mean(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Column by column, the ``weights``-weighted mean of the rows of
    ``values`` that are not NaN there; NaN for a column of NaN only."""
    out = np.full(values.shape[1], np.nan)
    for c in range(values.shape[1]):
        keep = ~np.isnan(values[:, c])
        if keep.any():
            out[c] = np.sum(values[keep, c] * weights[keep]) / np.sum(weights[keep])
    return out


def score_stream_dir(fold_dir: Path, streams, utterance_ids, idx) -> dict:
    """Score each of ``streams`` of one fold by re-reading the persisted
    prediction and target CSVs, frame-weighted over utterances; returns
    stream name -> StreamScore.  Each target file is read once."""
    header = ("frame",) + EMA_CHANNELS
    columns = [1 + c for c in idx]  # column 0 is the frame index
    frames, rows = [], {stream: [] for stream in streams}
    for utt in utterance_ids:
        target = read_matrix_csv(fold_dir / "predictions" / "target" / f"{utt}.csv", header)[:, columns]
        frames.append(target.shape[0])
        for stream in streams:
            pred = read_matrix_csv(fold_dir / "predictions" / stream / f"{utt}.csv", header)[:, columns]
            rows[stream].append(score_utterance(pred, target))
    w = np.array(frames, dtype=np.float64)
    scores = {}
    for stream in streams:
        means = nan_weighted_mean(np.array(rows[stream]), w)
        scores[stream] = StreamScore(
            stream=stream,
            n_utterances=len(utterance_ids),
            n_frames=int(w.sum()),
            rmse_mean=float(means[0]),
            pcc_mean=float(means[1]),
            rmse_channels=means[2:2 + len(columns)],
            pcc_channels=means[2 + len(columns):],
        )
    return scores


def grand_scores(folds: list, streams) -> dict:
    grand = {}
    for stream in streams:
        per_fold = [f.streams[stream] for f in folds]
        grand[stream] = StreamScore(
            stream=stream,
            n_utterances=int(sum(s.n_utterances for s in per_fold)),
            n_frames=int(sum(s.n_frames for s in per_fold)),
            rmse_mean=float(np.mean([s.rmse_mean for s in per_fold])),
            pcc_mean=float(np.mean([s.pcc_mean for s in per_fold])),
            rmse_channels=np.mean([s.rmse_channels for s in per_fold], axis=0),
            pcc_channels=np.mean([s.pcc_channels for s in per_fold], axis=0),
        )
    return grand


# -- fold execution -----------------------------------------------------------

def _write_predictions(fold_dir: Path, stream: str, utterance_id: str, matrix: np.ndarray):
    frames = np.arange(matrix.shape[0])
    write_matrix_csv(fold_dir / "predictions" / stream / f"{utterance_id}.csv",
                     np.column_stack([frames, matrix]),
                     header=("frame",) + EMA_CHANNELS)


def _predict_utterance(model: InversionModel, scenario, fold_dir: Path, sample) -> None:
    """Predict ``sample`` and write its target and scored-stream CSVs under
    ``fold_dir``."""
    preds = model.predict(sample.mfcc if scenario.use_mfcc else None,
                          sample.phonemes if scenario.use_phonemes else None)
    _write_predictions(fold_dir, "target", sample.utterance_id, sample.ema)
    for stream in scenario.scored_streams:
        _write_predictions(fold_dir, stream, sample.utterance_id, preds[stream])


def _predict_and_score(model: InversionModel, scenario, samples, fold_dir: Path, idx, processes: int) -> dict:
    """Predict each sample, write its target and scored-stream CSVs under
    ``fold_dir``, and score each stream from those files; returns stream
    name -> StreamScore.

    The utterance ranked r, longest first (ties in manifest order), is
    predicted in process r mod n (n is ``processes``, at most one per
    sample; 0 is this one), so the processes' frame totals differ by at
    most the longest utterance.  Every utterance's forward and files are
    the same whichever process writes them, so the outputs do not depend
    on ``processes``."""
    ranked = sorted(samples, key=lambda s: -len(s.ema))
    workers.spread(functools.partial(_predict_utterance, model, scenario, fold_dir), ranked, processes,
                   f"worker process died while predicting into {fold_dir}")
    return score_stream_dir(fold_dir, scenario.scored_streams, [s.utterance_id for s in samples], idx)


def run_fold(plan: FoldPlan, samples, scenario_id: str, hyper: Hyper, seed: int,
             model_config: ModelConfig, fold_dir, feature_hash: str, channels: str, cores: int = 1) -> FoldScore:
    """Train one fold per its scenario and predict its held-out speaker, both
    on up to ``cores`` processes; persist checkpoint/trace/predictions, and
    score the held-out speaker from the persisted files."""
    scenario = SCENARIOS[scenario_id]
    fold_dir = Path(fold_dir)
    by_id = {s.utterance_id: s for s in samples}
    train_samples = [by_id[i] for i in plan.train_ids]
    val_samples = [by_id[i] for i in plan.val_ids]
    test_samples = [by_id[i] for i in plan.test_ids]

    model_seed = derive_seed(seed, "model", plan.index)
    train_seed = derive_seed(seed, "train", plan.index)

    pretrained_arrays = None
    if scenario.needs_pretrained:
        # the frozen-pretraining scenario needs a phoneme stream trained on
        # this fold's own data; a shared external checkpoint would have seen
        # the held-out speaker
        pre_model = InversionModel(model_config, seed=derive_seed(seed, "pretrain-model", plan.index))
        apply_scenario(SCENARIOS["S1"], pre_model)
        train_model(pre_model, SCENARIOS["S1"], train_samples, val_samples, hyper,
                    seed=derive_seed(seed, "pretrain", plan.index), cores=cores)
        save_checkpoint(fold_dir / "pretrain_phoneme.ckpt", pre_model, feature_hash,
                        scenario="S1", hyper=dataclasses.asdict(hyper), seed=seed)
        pretrained_arrays = {n: p.data for n, p in pre_model.partition_params("phoneme_stream").items()}

    model = InversionModel(model_config, seed=model_seed)
    apply_scenario(scenario, model, pretrained_arrays=pretrained_arrays)
    result = train_model(model, scenario, train_samples, val_samples, hyper, seed=train_seed, cores=cores)

    save_checkpoint(fold_dir / "checkpoint.ckpt", model, feature_hash,
                    scenario=scenario_id, hyper=dataclasses.asdict(hyper), seed=seed)
    dataio.write_trace_csv(fold_dir / "trace.csv", result.trace)

    idx, _ = channel_indices(channels)
    return FoldScore(index=plan.index, held_out_speaker=plan.held_out_speaker,
                     streams=_predict_and_score(model, scenario, test_samples, fold_dir, idx, cores))


def _failed_fold(plan: FoldPlan, message: str) -> FoldScore:
    log.error("fold %d (%s) failed: %s", plan.index, plan.held_out_speaker, message)
    return FoldScore(index=plan.index, held_out_speaker=plan.held_out_speaker, failed=message)


def run_loso(samples, scenario_id: str, hyper: Hyper, seed: int, out_dir,
             model_config: ModelConfig | None = None, channels: str = "tongue",
             jobs: int = 1, feature_hash: str = "") -> EvalReport:
    """Full leave-one-speaker-out protocol: one fold per speaker, reports
    written under ``out_dir`` (report.csv, report.txt, per-fold trees).
    Fold ``i`` runs in process ``i % jobs``: 0 is this one, and each other
    is forked from it.  Each fold trains and predicts on ``max(1, usable
    cores // jobs)`` processes.  A fold worker that dies fails the folds
    it had not finished."""
    if scenario_id not in SCENARIOS:
        raise UsageError(f"unknown scenario {scenario_id!r}")
    model_config = model_config or ModelConfig(
        variant=VARIANT_SPEECH_ONLY if scenario_id == "SPEECH_ONLY" else "two_stream")
    out_dir = Path(out_dir)
    plans = make_fold_plans(samples, seed)
    idx, names = channel_indices(channels)

    started = time.monotonic()
    cores = max(1, workers.usable_cores() // jobs)

    def run(plan: FoldPlan) -> FoldScore:
        try:
            return run_fold(plan, samples, scenario_id, hyper, seed, model_config,
                            out_dir / "folds" / plan.held_out_speaker, feature_hash, channels, cores)
        except (DataError, NumericalError, WorkerDied) as exc:
            return _failed_fold(plan, str(exc))

    folds = workers.spread(run, plans, jobs, "worker process died",
                           lost=lambda plan: _failed_fold(plan, "worker process died"))
    elapsed = time.monotonic() - started

    # grand means only exist when every fold trained; failed folds stay
    # marked in the report
    streams = SCENARIOS[scenario_id].scored_streams
    grand = grand_scores(folds, streams) if not any(f.failed for f in folds) else {}
    report = EvalReport(
        scenario=scenario_id, seed=seed, channel_names=names,
        folds=folds, grand=grand,
    )
    write_report(report, out_dir)
    with create_text(out_dir / "timing.txt") as fh:
        fh.write(f"loso_wall_seconds={elapsed:.3f}\n")
    return report


def run_ablation(samples, hyper: Hyper, seed: int, out_dir,
                 model_config: ModelConfig | None = None, channels: str = "tongue",
                 jobs: int = 1, feature_hash: str = "") -> dict:
    """Two arms under identical folds/seeds/hyper: the full two-stream model
    (jointly trained) and the speech-only model with the phoneme stream
    removed.  Returns arm name -> EvalReport."""
    out_dir = Path(out_dir)
    base_config = model_config or ModelConfig()
    arms = {
        "two_stream": ("S3", base_config),
        "speech_only": ("SPEECH_ONLY", ModelConfig.from_dict(
            {**base_config.to_dict(), "variant": VARIANT_SPEECH_ONLY})),
    }
    reports = {}
    for arm, (scenario_id, config) in arms.items():
        reports[arm] = run_loso(samples, scenario_id, hyper, seed, out_dir / arm,
                                model_config=config, channels=channels, jobs=jobs,
                                feature_hash=feature_hash)
    write_ablation_table(reports, out_dir)
    return reports


# -- report output --------------------------------------------------------------

LADDER_NOTE = (
    "aggregation: per-channel over frames -> mean over channels (utterance) "
    "-> frame-weighted mean over utterances (fold) -> arithmetic mean over folds (grand)"
)


def write_report(report: EvalReport, out_dir) -> None:
    out_dir = Path(out_dir)
    names = report.channel_names
    header = (["scope", "fold_index", "held_out_speaker", "stream", "n_utterances",
               "n_frames", "rmse_mm", "pcc"]
              + [f"rmse_{n}" for n in names] + [f"pcc_{n}" for n in names])

    def scores(s: StreamScore) -> list:
        return [s.n_utterances, s.n_frames, float(s.rmse_mean), float(s.pcc_mean),
                *s.rmse_channels.tolist(), *s.pcc_channels.tolist()]

    rows = []
    for fold in report.folds:
        if fold.failed:
            rows.append(["fold_failed", fold.index, fold.held_out_speaker, fold.failed] + [""] * (len(header) - 4))
        rows += [["fold", fold.index, fold.held_out_speaker, stream, *scores(s)] for stream, s in fold.streams.items()]
    rows += [["grand", "", "", stream, *scores(s)] for stream, s in report.grand.items()]
    write_csv(out_dir / "report.csv", rows, header)

    speakers = [f.held_out_speaker for f in report.folds]
    streams = list(report.grand) or sorted({st for f in report.folds for st in f.streams})
    lines = [
        f"# scenario {report.scenario}, seed {report.seed}, scored channels: {', '.join(names)}",
        f"# {LADDER_NOTE}",
        "# per-speaker columns are fold RMSE (mm) on the held-out speaker",
        "",
    ]
    width = max([len(s) for s in speakers] + [8]) + 2
    lines.append("stream".ljust(12) + "".join(cell.rjust(width) for cell in [*speakers, "RMSE", "PCC"]))
    for stream in streams:
        grand = report.grand.get(stream)
        cells = ["failed" if fold.failed else f"{fold.streams[stream].rmse_mean:.3f}" for fold in report.folds]
        cells += ["-", "-"] if grand is None else [f"{grand.rmse_mean:.3f}", f"{grand.pcc_mean:.3f}"]
        lines.append(stream.ljust(12) + "".join(cell.rjust(width) for cell in cells))
    with create_text(out_dir / "report.txt") as fh:
        fh.write("\n".join(lines) + "\n")


def write_ablation_table(reports: dict, out_dir) -> None:
    out_dir = Path(out_dir)
    rows = [(arm, stream, float(s.rmse_mean), float(s.pcc_mean))
            for arm, report in reports.items() for stream, s in report.grand.items()]
    write_csv(out_dir / "ablation.csv", rows, header=("arm", "stream", "rmse_mm", "pcc"))
    lines = ["# ablation: identical folds, seeds, and hyperparameters per arm",
             f"# {LADDER_NOTE}", "",
             "arm".ljust(14) + "stream".ljust(12) + "RMSE".rjust(10) + "PCC".rjust(10)]
    lines += [f"{arm:<14}{stream:<12}{r:>10.3f}{p:>10.3f}" for arm, stream, r, p in rows]
    with create_text(out_dir / "ablation.txt") as fh:
        fh.write("\n".join(lines) + "\n")


def read_report_csv(path) -> list[dict]:
    """Rows of report.csv as dicts (strings preserved for exactness checks)."""
    with open_text(path) as fh:
        return list(csv.DictReader(fh))


# -- single-checkpoint scoring ----------------------------------------------

def evaluate_model(ckpt: dataio.Checkpoint, model: InversionModel, samples, out_dir, channels="tongue") -> EvalReport:
    """Score ``dataio.model_from_checkpoint(ckpt)`` on one manifest (no training,
    no folds), predicting on every usable core."""
    scenario = SCENARIOS[ckpt.scenario or "S3"]
    fold_dir = Path(out_dir) / "folds" / "all"
    idx, names = channel_indices(channels)
    fold_score = FoldScore(index=0, held_out_speaker="all",
                           streams=_predict_and_score(model, scenario, samples, fold_dir, idx,
                                                      workers.usable_cores()))
    report = EvalReport(scenario=scenario.id, seed=ckpt.seed or 0, channel_names=names,
                        folds=[fold_score], grand=grand_scores([fold_score], scenario.scored_streams))
    write_report(report, out_dir)
    return report
