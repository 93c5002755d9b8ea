"""Training loop: seeded shuffled batching over variable-length utterances,
packed batch-major forward and backward passes, one Adam step per batch.

A batch's utterances are concatenated along the frame axis into groups of
at most ``PACK_FRAMES`` frames.  Each group runs one forward over the
packed ``[sum(T), .]`` arrays, the sequence layers keeping the utterances
apart by their lengths, and one backward; an utterance longer than the
limit runs alone.  The limit bounds the tape a group holds at once.

The Adam step runs inside the last group's backward: ``backward`` hands
each parameter to ``Adam.update`` once its gradient is final, which
updates it and drops the gradient, so a batch never holds all gradients
at once.  The batch still opens with ``zero_grad`` and closes with
``step``, which updates any parameter backward did not reach.  The
updates are bitwise those of a plain backward followed by ``step``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .errors import DataError, NumericalError, UsageError
from .layers import Adam
from .model import InversionModel, Scenario, scenario_loss

log = logging.getLogger(__name__)

PACK_FRAMES = 512


@dataclass(frozen=True)
class Hyper:
    """Optimization settings; defaults follow the reference recipe
    (20 epochs, Adam at 1e-4, batches of 5, unit loss weights)."""

    epochs: int = 20
    learning_rate: float = 1e-4
    batch_size: int = 5
    weight_inversion: float = 1.0
    weight_phoneme: float = 1.0

    def __post_init__(self):
        for name, count in (("epochs", self.epochs), ("batch size", self.batch_size)):
            if count < 1:
                raise UsageError(f"{name} must be at least 1, got {count}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise UsageError(f"learning rate must be finite and positive, got {self.learning_rate}")
        for name, weight in (("inversion", self.weight_inversion), ("phoneme", self.weight_phoneme)):
            if not (np.isfinite(weight) and weight >= 0):
                raise UsageError(f"{name} loss weight must be finite and non-negative, got {weight}")

    @property
    def loss_weights(self):
        return (self.weight_inversion, self.weight_phoneme)


@dataclass
class TrainResult:
    trace: list  # (epoch, train_loss, val_loss) rows
    skipped: list  # utterance ids dropped for having no frames


def target_stats(samples) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean/std over all frames of the given samples; vanishing
    stds are clamped to 1 so constant channels pass through unscaled."""
    stacked = np.concatenate([s.ema for s in samples], axis=0)
    mean = stacked.mean(axis=0)
    std = stacked.std(axis=0)
    return mean, np.where(std > 1e-10, std, 1.0)


def pack_groups(samples, limit: int = PACK_FRAMES) -> list:
    """Split ``samples``, in order, into consecutive groups of at most
    ``limit`` frames; an utterance longer than ``limit`` forms a group alone."""
    groups, frames = [], 0
    for sample in samples:
        count = sample.ema.shape[0]
        if not groups or frames + count > limit:
            groups.append([])
            frames = 0
        groups[-1].append(sample)
        frames += count
    return groups


def _group_losses(model: InversionModel, scenario: Scenario, group, weights) -> Tensor:
    """One forward over the group's utterances packed along the frame axis;
    returns their per-utterance losses as a [len(group), 1] tensor."""
    for sample in group:
        if not sample.mfcc.shape[0] == sample.phonemes.shape[0] == sample.ema.shape[0]:
            raise ShapeError(f"utterance {sample.utterance_id}: streams have {sample.mfcc.shape[0]}, "
                             f"{sample.phonemes.shape[0]} and {sample.ema.shape[0]} frames")
    lengths = tuple(sample.ema.shape[0] for sample in group)
    mfcc = np.concatenate([s.mfcc for s in group]) if scenario.use_mfcc else None
    phonemes = np.concatenate([s.phonemes for s in group]) if scenario.use_phonemes else None
    inversion_pred, phoneme_pred = model.forward(mfcc, phonemes, lengths)
    target = Tensor((np.concatenate([s.ema for s in group]) - model.target_mean) / model.target_std)
    return scenario_loss(scenario, inversion_pred, phoneme_pred, target, weights=weights, lengths=lengths)


def _finite_values(losses: Tensor, group, stage: str) -> list:
    """Per-utterance loss values; the first non-finite one names its utterance."""
    values = losses.data[:, 0].tolist()
    for sample, value in zip(group, values):
        if not np.isfinite(value):
            raise NumericalError(f"non-finite {stage} loss on utterance {sample.utterance_id}")
    return values


def _train_group(model: InversionModel, scenario: Scenario, group, weights, inv_count: float,
                 on_leaf=None) -> list:
    """Forward and backward of one packed group; gradients accumulate on the
    parameters, and ``on_leaf`` receives each one once its gradient is final.
    The group's tape is gone when this returns."""
    losses = _group_losses(model, scenario, group, weights)
    values = _finite_values(losses, group, "training")
    ad.backward(ad.mul(ad.tsum(losses), inv_count), on_leaf)
    return values


def train_model(model: InversionModel, scenario: Scenario, train_samples, val_samples,
                hyper: Hyper, seed: int) -> TrainResult:
    """Train in place and return the per-epoch loss trace.

    The model's trainability must already be configured (apply_scenario).
    Targets are z-scored with statistics from the training samples.  Each
    batch is packed into groups of at most ``PACK_FRAMES`` frames; each group
    runs one forward and one backward of its summed per-utterance losses
    weighted by 1/batch size, and the batch takes one Adam step, applied
    per parameter during the last group's backward.
    """
    usable = [s for s in train_samples if s.ema.shape[0] > 0]
    skipped = [s.utterance_id for s in train_samples if s.ema.shape[0] == 0]
    for utt in skipped:
        log.warning("skipping utterance %s: no frames", utt)
    if not usable:
        raise DataError("no trainable utterances (all empty)")

    model.target_mean, model.target_std = target_stats(usable)
    trainable = {name: p for name, p in model.parameters().items() if p.requires_grad}
    if not trainable:
        raise DataError(f"scenario {scenario.id}: nothing to train")
    optimizer = Adam(trainable, learning_rate=hyper.learning_rate)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))

    trace = []
    for epoch in range(1, hyper.epochs + 1):
        order = shuffle_rng.permutation(len(usable))
        epoch_losses = []
        for start in range(0, len(order), hyper.batch_size):
            batch = [usable[i] for i in order[start:start + hyper.batch_size]]
            optimizer.zero_grad()
            groups = pack_groups(batch)
            for i, group in enumerate(groups, start=1):
                # the last group's backward finishes each gradient, and the
                # optimizer updates that parameter there and then
                on_leaf = optimizer.update if i == len(groups) else None
                epoch_losses += _train_group(model, scenario, group, hyper.loss_weights, 1.0 / len(batch), on_leaf)
            optimizer.step()
        train_loss = float(np.mean(epoch_losses))
        val_loss = evaluate_loss(model, scenario, val_samples, hyper.loss_weights) if val_samples else float("nan")
        trace.append((epoch, train_loss, val_loss))
        log.info("epoch %d/%d train=%.6f val=%.6f", epoch, hyper.epochs, train_loss, val_loss)
    return TrainResult(trace=trace, skipped=skipped)


def evaluate_loss(model: InversionModel, scenario: Scenario, samples, weights=(1.0, 1.0)) -> float:
    """Mean per-utterance loss without touching parameters or the tape;
    utterances run in the same packed groups as training."""
    values = []
    with ad.no_grad():
        for group in pack_groups([s for s in samples if s.ema.shape[0] > 0]):
            values += _finite_values(_group_losses(model, scenario, group, weights), group, "validation")
    return float(np.mean(values)) if values else float("nan")
