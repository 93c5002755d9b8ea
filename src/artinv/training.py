"""Training loop: seeded shuffled batching over variable-length utterances,
packed batch-major forward and backward passes, one Adam step per batch.

A batch's utterances are concatenated along the frame axis into groups of
at most ``PACK_FRAMES`` frames.  Each group runs one forward over the
packed ``[sum(T), .]`` arrays, the sequence layers keeping the utterances
apart by their lengths, and one backward; an utterance longer than the
limit runs alone.  The limit bounds the tape a group holds at once.

Group ``i`` of a batch runs, through ``_train_group``, in process
``i % n``: 0 is this one, and the others are gradient workers forked once
per ``train_model`` after the trainable parameters move into one shared
anonymous mapping (n is 1 on one core or without ``fork``).  A
worker streams each group's losses and gradients back once the group is
done, and this process adds them to its own in group order, so each
parameter sums ``((g1 + g2) + g3) + ...`` as one process does.  The last
group finishes each gradient, and ``Adam.update`` then updates that
parameter and drops the gradient, so a batch never holds all gradients at
once; ``step`` closes the batch, updating any parameter the last group did
not reach.  Parameters, moments and losses are bitwise those of a plain
backward and ``step`` in one process.
"""

from __future__ import annotations

import contextlib
import functools
import logging
import mmap
import os
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import workers
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


def _batch_plan(usable, hyper: Hyper, shuffle_rng) -> list:
    """Every epoch's batches, each as its list of packed groups.  The
    shuffle generator serves only this order, so drawing all epochs' orders
    up front gives the permutations an epoch-by-epoch loop draws."""
    plan = []
    for _ in range(hyper.epochs):
        order = shuffle_rng.permutation(len(usable))
        plan.append([pack_groups([usable[i] for i in order[start:start + hyper.batch_size]])
                     for start in range(0, len(order), hyper.batch_size)])
    return plan


def train_model(model: InversionModel, scenario: Scenario, train_samples, val_samples,
                hyper: Hyper, seed: int, cores: int | None = None) -> TrainResult:
    """Train in place and return the per-epoch loss trace.

    The model's trainability must already be configured (apply_scenario).
    Targets are z-scored with statistics from the training samples.  Each
    group runs one forward and one backward of its summed per-utterance
    losses weighted by 1/batch size, and the batch takes one Adam step.  A
    batch's groups are split over up to ``cores`` processes (default
    ``workers.usable_cores()``); the result does not depend on ``cores``.
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
    shuffle_rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    plan = _batch_plan(usable, hyper, shuffle_rng)
    processes = min(workers.usable_cores() if cores is None else cores,
                    max(len(groups) for batches in plan for groups in batches))

    params = list(trainable.values())
    trace = []
    with _gradient_workers(model, scenario, params, plan, hyper.loss_weights, processes) as forked:
        optimizer = Adam(trainable, learning_rate=hyper.learning_rate)
        for epoch, batches in enumerate(plan, start=1):
            epoch_losses = []
            for groups in batches:
                optimizer.zero_grad()
                epoch_losses += _train_batch(model, scenario, groups, hyper.loss_weights, optimizer, params, forked)
                optimizer.step()
            train_loss = float(np.mean(epoch_losses))
            val_loss = evaluate_loss(model, scenario, val_samples, hyper.loss_weights) if val_samples else float("nan")
            trace.append((epoch, train_loss, val_loss))
            log.info("epoch %d/%d train=%.6f val=%.6f", epoch, hyper.epochs, train_loss, val_loss)
    return TrainResult(trace=trace, skipped=skipped)


def _train_batch(model: InversionModel, scenario: Scenario, groups, weights, optimizer: Adam, params,
                 forked) -> list:
    """One batch's groups on this process and the ``forked`` workers;
    returns the per-utterance losses in batch order.  Every worker group
    comes before the last and has been read by the time ``optimizer``
    updates there, so no worker reads a parameter while it changes."""
    inv_count = 1.0 / sum(map(len, groups))
    n = len(forked) + 1
    for worker in forked[:len(groups) - 1]:
        worker.go()
    values = []
    for i, group in enumerate(groups):
        on_leaf = optimizer.update if i == len(groups) - 1 else None
        if i % n:
            values += _receive(forked[i % n - 1], params, on_leaf)
        else:
            values += _train_group(model, scenario, group, weights, inv_count, on_leaf)
    return values


# -- gradient workers -----------------------------------------------------------

def _share(params) -> None:
    """Move the arrays of ``params`` into one shared anonymous mapping, so
    the updates this process makes in place reach the workers it forks."""
    arena = mmap.mmap(-1, sum(p.data.nbytes for p in params))
    offset = 0
    for p in params:
        shared = np.frombuffer(arena, p.data.dtype, p.data.size, offset).reshape(p.data.shape)
        shared[...] = p.data
        p.data = shared
        offset += shared.nbytes


def _gradient_workers(model: InversionModel, scenario: Scenario, params, plan, weights, processes: int):
    """A context that shares ``params`` and forks ``processes - 1`` workers
    for the batches of ``plan`` of several groups, yielding them (none for
    fewer than 2 processes or without ``fork``)."""
    if processes < 2 or not hasattr(os, "fork"):
        return contextlib.nullcontext([])
    _share(params)
    split = [groups for batches in plan for groups in batches if len(groups) > 1]
    return workers.forked([functools.partial(_work, model, scenario, params, split, weights, slot, processes)
                           for slot in range(1, processes)], "training worker process died")


def _work(model: InversionModel, scenario: Scenario, params, split, weights, slot: int, processes: int,
          commands, results) -> None:
    """The loop of gradient worker ``slot`` of ``processes``: for each batch
    in ``split`` with groups ``slot``, ``slot + processes``, ..., wait for a
    byte on ``commands``, then run each of those groups and send its losses
    and the mask of ``params`` with a gradient, then those gradients raw,
    releasing each once written.  Returns when ``commands`` ends."""
    for p in params:
        p.grad = None
    for groups in split:
        mine = groups[slot::processes]
        if not mine:
            continue
        if not commands.read(1):
            return
        inv_count = 1.0 / sum(map(len, groups))
        for group in mine:
            values = _train_group(model, scenario, group, weights, inv_count)
            workers.send(results, (values, [p.grad is not None for p in params]))
            for p in params:
                if p.grad is not None:
                    results.write(memoryview(np.ascontiguousarray(p.grad)).cast("B"))
                    p.grad = None
            results.flush()


def _receive(worker: workers.Worker, params, on_leaf) -> list:
    """The losses of the worker's next group, whose gradients are added to
    those of ``params`` as one more backward would, each then to ``on_leaf``."""
    values, sent = worker.receive()
    for p, has_grad in zip(params, sent):
        if has_grad:
            g = np.empty(p.data.shape)
            worker.readinto(memoryview(g).cast("B"))
            if p.grad is not None:
                np.add(p.grad, g, out=g)  # p.grad + g, into the buffer just read
            p.grad = g
            if on_leaf is not None:
                on_leaf(p)
    return values


def evaluate_loss(model: InversionModel, scenario: Scenario, samples, weights=(1.0, 1.0)) -> float:
    """Mean per-utterance loss without touching parameters or the tape;
    utterances run in the same packed groups as training."""
    values = []
    with ad.no_grad():
        for group in pack_groups([s for s in samples if s.ema.shape[0] > 0]):
            values += _finite_values(_group_losses(model, scenario, group, weights), group, "validation")
    return float(np.mean(values)) if values else float("nan")
