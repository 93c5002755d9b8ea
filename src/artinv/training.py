"""Training loop: seeded shuffled batching over variable-length utterances,
packed batch-major forward and backward passes, one Adam step per batch.

A batch's utterances are concatenated along the frame axis into groups of
at most ``PACK_FRAMES`` frames.  Each group runs one forward over the
packed ``[sum(T), .]`` arrays, the sequence layers keeping the utterances
apart by their lengths, and one backward; an utterance longer than the
limit runs alone.  The limit bounds the tape a group holds at once.

On one core, or without ``fork``, all of it runs in this process:
``Adam.update`` updates each parameter in the last group's backward once
its gradient is final, and ``step`` updates any it did not reach.  On 2 or
more, the trainable parameters move into one shared anonymous mapping and
n - 1 workers are forked once per ``train_model``, n being the most groups
in a batch, at least 2 and at most the cores.  Group ``i`` of a split batch
runs, through ``_train_group``, in process ``i % n``: 0 is this one.  A
worker streams each group's losses and gradients back once the group is
done, and this process adds them to its own in group order, so each
parameter sums ``((g1 + g2) + g3) + ...`` as one process does.

Worker 1 also holds the Adam moments and applies every update.  In a
one-group batch this process hands it every contribution to a parameter's
gradient, a weight gradient as the operands of its GEMM unformed
(``autodiff.Product``); in a split batch, each parameter's final sum.  The
worker adds them in arrival order and updates each parameter once its
gradient is final, while this process backpropagates on, and this process
waits for the batch's last update before the next forward.  Its own
optimizer holds no parameter: its ``zero_grad`` and ``step`` only mark the
batches.  Parameters, moments and losses are bitwise those of one process.
"""

from __future__ import annotations

import contextlib
import functools
import io
import logging
import math
import mmap
import os
import pickle
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
RING_BYTES = 16 * 2**20  # the least size of worker 1's shared buffer of gradient operands


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
                 on_leaf=None, on_grad=None) -> list:
    """Forward and backward of one packed group; gradients accumulate on the
    parameters (or, given ``on_grad``, go to it), and ``on_leaf`` receives
    each parameter once its gradient is final.  The group's tape is gone
    when this returns."""
    losses = _group_losses(model, scenario, group, weights)
    values = _finite_values(losses, group, "training")
    ad.backward(ad.mul(ad.tsum(losses), inv_count), on_leaf, on_grad)
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
    ``workers.usable_cores()``), and on 2 or more worker 1 runs Adam; the
    result does not depend on ``cores``.
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
    cores = workers.usable_cores() if cores is None else cores
    most = max(len(groups) for batches in plan for groups in batches)
    processes = max(2, min(cores, most)) if cores > 1 and hasattr(os, "fork") else 1

    params = list(trainable.values())
    trace = []
    with _workers(model, scenario, trainable, plan, hyper, processes) as (keeper, forked):
        # beside worker 1, which holds the moments and applies every update,
        # this process's optimizer holds no parameter: its calls only mark
        # the batches
        optimizer = Adam({} if keeper else trainable, learning_rate=hyper.learning_rate)
        for epoch, batches in enumerate(plan, start=1):
            epoch_losses = []
            for groups in batches:
                optimizer.zero_grad()
                epoch_losses += _train_batch(model, scenario, groups, hyper.loss_weights, optimizer, params,
                                             keeper, forked)
                optimizer.step()
            train_loss = float(np.mean(epoch_losses))
            val_loss = evaluate_loss(model, scenario, val_samples, hyper.loss_weights) if val_samples else float("nan")
            trace.append((epoch, train_loss, val_loss))
            log.info("epoch %d/%d train=%.6f val=%.6f", epoch, hyper.epochs, train_loss, val_loss)
    return TrainResult(trace=trace, skipped=skipped)


def _train_batch(model: InversionModel, scenario: Scenario, groups, weights, optimizer: Adam, params,
                 keeper, forked) -> list:
    """One batch's groups on this process and the ``forked`` workers;
    returns the per-utterance losses in batch order.  Every worker group
    comes before the last and has been read by the time a parameter is
    updated, so no worker reads a parameter while it changes.  With a
    ``keeper`` (worker 1), this returns once it has applied the batch's
    update; without, ``optimizer`` updates in the last group's backward."""
    inv_count = 1.0 / sum(map(len, groups))
    if keeper is None:
        on_leaf, on_grad = optimizer.update, None
    elif len(groups) == 1:
        on_leaf, on_grad = keeper.final, keeper.contribute
    else:
        on_leaf, on_grad = keeper.hand, None
    n = len(forked) + 1
    for worker in forked[:len(groups) - 1]:
        worker.go(pickle.dumps(("run",)))
    values = []
    for i, group in enumerate(groups):
        if i % n:
            values += _receive(forked[i % n - 1], params)
        else:
            last = i == len(groups) - 1
            values += _train_group(model, scenario, group, weights, inv_count, on_leaf if last else None, on_grad)
    if keeper is not None:
        for p in params:  # the sums a worker's last group finished
            if p.grad is not None:
                keeper.hand(p)
        keeper.finish()
    return values


# -- workers ---------------------------------------------------------------------

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


def _ring_bytes(params, plan) -> int:
    """A ring size that fits any one contribution of ``plan``: a whole
    gradient, or the two operands of a 2-D parameter's product, each with a
    row per frame of a group; and at least ``RING_BYTES``."""
    frames = max(sum(s.ema.shape[0] for s in group) for batches in plan for groups in batches for group in groups)
    width = max((sum(p.data.shape) for p in params if p.data.ndim == 2), default=0)
    return max(RING_BYTES, 8 * frames * width, max(p.data.nbytes for p in params))


@contextlib.contextmanager
def _workers(model: InversionModel, scenario: Scenario, trainable: dict, plan, hyper: Hyper, processes: int):
    """Share the parameters of ``trainable``, make the ring and fork
    ``processes - 1`` workers for ``plan``; yields this process's
    ``_Keeper`` of worker 1 and the workers (None and none for 1 process)."""
    if processes == 1:
        yield None, []
        return
    params = list(trainable.values())
    _share(params)
    ring = mmap.mmap(-1, _ring_bytes(params, plan))
    split = [groups for batches in plan for groups in batches if len(groups) > 1]
    with workers.forked([functools.partial(_work, model, scenario, trainable, split, hyper, ring, slot, processes)
                         for slot in range(1, processes)], "training worker process died") as forked:
        yield _Keeper(forked[0], ring, params), forked


def _ring_views(ring, shapes, start: int) -> list:
    """Float64 views of arrays of ``shapes`` laid out one after another in
    ``ring`` from byte ``start`` (modulo its size)."""
    views, offset = [], start % len(ring)
    for shape in shapes:
        count = math.prod(shape)
        views.append(np.frombuffer(ring, np.float64, count, offset).reshape(shape))
        offset += 8 * count
    return views


class _Keeper:
    """This process's end of worker 1, which keeps the Adam moments.  Each
    gradient contribution is copied into the shared ``ring``; the worker
    sends back the ring position it has consumed up to, so a copy waits
    only while the ring is full."""

    def __init__(self, worker: workers.Worker, ring, params):
        self.worker, self.ring = worker, ring
        self.index = {id(p): i for i, p in enumerate(params)}
        self.head = self.tail = 0  # ring bytes ever written, and ever consumed

    def contribute(self, leaf: Tensor, g) -> None:
        """Backward's ``on_grad``: send the worker one contribution to
        ``leaf``'s gradient, a weight ``Product`` unformed."""
        operands = tuple(g) if isinstance(g, ad.Product) else (g,)
        shapes = tuple(a.shape for a in operands)
        size, capacity = sum(a.nbytes for a in operands), len(self.ring)
        start = self.head
        if start % capacity + size > capacity:
            start += capacity - start % capacity  # a contribution does not wrap round
        while self.tail < self.head and start + size - self.tail > capacity:  # it would overwrite unread bytes
            self.tail = self.worker.receive()
        self.head = start + size
        for view, a in zip(_ring_views(self.ring, shapes, start), operands):
            view[...] = a
        self.worker.go(pickle.dumps(("grad", self.index[id(leaf)], shapes, start)))

    def final(self, leaf: Tensor) -> None:
        """Backward's ``on_leaf``: the worker may update ``leaf`` now."""
        self.worker.go(pickle.dumps(("final", self.index[id(leaf)])))

    def hand(self, leaf: Tensor) -> None:
        """Send the worker ``leaf``'s final gradient, summed here, and drop it."""
        self.contribute(leaf, leaf.grad)
        self.final(leaf)
        leaf.grad = None

    def finish(self) -> None:
        """Close the batch and wait until the worker has updated every
        parameter."""
        self.worker.go(pickle.dumps(("end",)))
        while (position := self.worker.receive()) is not None:
            self.tail = position


def _work(model: InversionModel, scenario: Scenario, trainable: dict, split, hyper: Hyper, ring, slot: int,
          processes: int, commands, results) -> None:
    """The loop of worker ``slot`` of ``processes`` over its pickled
    ``commands``; returns when they end.

    ``run``: run groups ``slot``, ``slot + processes``, ... of the next
    batch in ``split`` that has any, sending each group's losses and the
    mask of parameters with a gradient, then those gradients raw, releasing
    each once written.  Worker 1 alone also gets ``grad``: form a gradient
    contribution from the ring and add it to its parameter's gradient in
    arrival order (as backward does), sending back the ring position
    consumed; ``final``: update that parameter by ``Adam.update``; and
    ``end``: update the rest by ``Adam.finish`` and send ``None``.  It holds
    the Adam moments."""
    params = list(trainable.values())
    optimizer = Adam(trainable if slot == 1 else {}, learning_rate=hyper.learning_rate)
    mine = ((groups[slot::processes], 1.0 / sum(map(len, groups))) for groups in split if groups[slot::processes])
    reader = io.BufferedReader(commands)
    for p in params:
        p.grad = None
    while True:
        try:
            kind, *args = pickle.load(reader)
        except EOFError:
            return
        if kind == "run":
            groups, inv_count = next(mine)
            for group in groups:
                values = _train_group(model, scenario, group, hyper.loss_weights, inv_count)
                workers.send(results, (values, [p.grad is not None for p in params]))
                for p in params:
                    if p.grad is not None:
                        results.write(memoryview(np.ascontiguousarray(p.grad)).cast("B"))
                        p.grad = None
                results.flush()
        elif kind == "grad":
            index, shapes, start = args
            operands = _ring_views(ring, shapes, start)
            # a copy, as the ring's bytes are written again once consumed
            g = ad.Product(*operands).form() if len(operands) == 2 else np.array(operands[0])
            p = params[index]
            p.grad = g if p.grad is None else p.grad + g
            workers.send(results, start + sum(a.nbytes for a in operands))
        elif kind == "final":
            optimizer.update(params[args[0]])
        else:
            optimizer.finish()
            for p in params:
                p.grad = None
            workers.send(results, None)


def _receive(worker: workers.Worker, params) -> list:
    """The losses of the worker's next group, whose gradients are added to
    those of ``params`` as one more backward would."""
    values, sent = worker.receive()
    for p, has_grad in zip(params, sent):
        if has_grad:
            g = np.empty(p.data.shape)
            worker.readinto(memoryview(g).cast("B"))
            if p.grad is not None:
                np.add(p.grad, g, out=g)  # p.grad + g, into the buffer just read
            p.grad = g
    return values


def evaluate_loss(model: InversionModel, scenario: Scenario, samples, weights=(1.0, 1.0)) -> float:
    """Mean per-utterance loss without touching parameters or the tape;
    utterances run in the same packed groups as training."""
    values = []
    with ad.no_grad():
        for group in pack_groups([s for s in samples if s.ema.shape[0] > 0]):
            values += _finite_values(_group_losses(model, scenario, group, weights), group, "validation")
    return float(np.mean(values)) if values else float("nan")
