"""Training loop: seeded shuffled batching over variable-length utterances,
per-utterance gradient accumulation, one Adam step per batch."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DataError, NumericalError, UsageError
from .layers import Adam
from .model import InversionModel, Scenario, scenario_loss

log = logging.getLogger(__name__)


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
        if self.batch_size < 1:
            raise UsageError(f"batch size must be at least 1, got {self.batch_size}")
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


def _utterance_loss(model: InversionModel, scenario: Scenario, sample, weights):
    mfcc = sample.mfcc if scenario.use_mfcc else None
    phonemes = sample.phonemes if scenario.use_phonemes else None
    inversion_pred, phoneme_pred = model.forward(mfcc, phonemes)
    target = Tensor((sample.ema - model.target_mean) / model.target_std)
    return scenario_loss(scenario, inversion_pred, phoneme_pred, target,
                         weights=weights, reduction="frame_mean")


def train_model(model: InversionModel, scenario: Scenario, train_samples, val_samples,
                hyper: Hyper, seed: int) -> TrainResult:
    """Train in place and return the per-epoch loss trace.

    The model's trainability must already be configured (apply_scenario).
    Targets are z-scored with statistics from the training samples; batches
    accumulate per-utterance gradients and take one Adam step.
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
            inv_count = 1.0 / len(batch)
            for sample in batch:
                loss = _utterance_loss(model, scenario, sample, hyper.loss_weights)
                value = loss.item()
                if not np.isfinite(value):
                    raise NumericalError(f"non-finite training loss on utterance {sample.utterance_id}")
                epoch_losses.append(value)
                ad.backward(ad.mul(loss, inv_count))
            optimizer.step()
        train_loss = float(np.mean(epoch_losses))
        val_loss = evaluate_loss(model, scenario, val_samples, hyper.loss_weights) if val_samples else float("nan")
        trace.append((epoch, train_loss, val_loss))
        log.info("epoch %d/%d train=%.6f val=%.6f", epoch, hyper.epochs, train_loss, val_loss)
    return TrainResult(trace=trace, skipped=skipped)


def evaluate_loss(model: InversionModel, scenario: Scenario, samples, weights=(1.0, 1.0)) -> float:
    """Mean per-utterance loss without touching parameters or the tape."""
    values = []
    with ad.no_grad():
        for sample in samples:
            if sample.ema.shape[0] == 0:
                continue
            loss = _utterance_loss(model, scenario, sample, weights)
            value = loss.item()
            if not np.isfinite(value):
                raise NumericalError(f"non-finite validation loss on utterance {sample.utterance_id}")
            values.append(value)
    return float(np.mean(values)) if values else float("nan")
