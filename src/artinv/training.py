"""Training loop: seeded shuffled batching over variable-length utterances,
packed batch-major forward and backward passes, one Adam step per batch.

A batch's utterances are concatenated along the frame axis into groups of
at most ``PACK_FRAMES`` frames.  Each group runs one forward over the
packed ``[sum(T), .]`` arrays, the sequence layers keeping the utterances
apart by their lengths, and one backward; an utterance longer than the
limit runs alone.  The limit bounds the tape a group holds at once.

In one process, the Adam step runs inside the last group's backward:
``backward`` hands each parameter to ``Adam.update`` once its gradient is
final, which updates it and drops the gradient, so a batch never holds all
gradients at once.  The batch still opens with ``zero_grad`` and closes
with ``step``, which updates any parameter backward did not reach.  The
updates are bitwise those of a plain backward followed by ``step``.

A batch of several groups trains on up to ``cores`` processes.  Before the
first step ``train_model`` moves the trainable parameters into one shared
anonymous mapping and forks its gradient workers, which hold no optimizer
state.  Group ``i`` of such a batch runs, through the same
``_train_group``, in process ``i % processes`` (0 is this one).  A worker
streams each group's losses and gradients over a pipe as soon as the group
is done, so it holds one group's gradients at most.  This process adds
them to its own, in group order, and takes the batch's ``step`` once every
group is in.  Each parameter gets one gradient term per group, so it sums
``((g1 + g2) + g3) + ...`` as one process does: parameters, moments and
losses are bitwise independent of the core count.
"""

from __future__ import annotations

import contextlib
import logging
import mmap
import multiprocessing
import os
import pickle
import signal
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .errors import DataError, NumericalError, UsageError, WorkerDied
from .layers import Adam
from .model import InversionModel, Scenario, scenario_loss

log = logging.getLogger(__name__)

PACK_FRAMES = 512


def usable_cores() -> int:
    """Cores this process may run on: how many processes a training batch
    of several groups is split over and ``artinv eval`` predicts in.  1
    where processes cannot be forked, since a worker inherits the model
    rather than unpickling it."""
    if "fork" not in multiprocessing.get_all_start_methods() or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


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
    batch is packed into groups of at most ``PACK_FRAMES`` frames; each group
    runs one forward and one backward of its summed per-utterance losses
    weighted by 1/batch size, and the batch takes one Adam step.  The groups
    of a batch that packs into several are split over up to ``cores``
    processes (default ``usable_cores()``); the result does not depend on
    ``cores``.
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
    processes = min(usable_cores() if cores is None else cores,
                    max(len(groups) for batches in plan for groups in batches))

    trace = []
    with _gradient_workers(model, scenario, list(trainable.values()), plan, hyper.loss_weights,
                           processes) as workers:
        optimizer = Adam(trainable, learning_rate=hyper.learning_rate)
        for epoch, batches in enumerate(plan, start=1):
            epoch_losses = []
            for groups in batches:
                optimizer.zero_grad()
                epoch_losses += _train_batch(model, scenario, groups, hyper.loss_weights, optimizer, workers)
                optimizer.step()
            train_loss = float(np.mean(epoch_losses))
            val_loss = evaluate_loss(model, scenario, val_samples, hyper.loss_weights) if val_samples else float("nan")
            trace.append((epoch, train_loss, val_loss))
            log.info("epoch %d/%d train=%.6f val=%.6f", epoch, hyper.epochs, train_loss, val_loss)
    return TrainResult(trace=trace, skipped=skipped)


def _train_batch(model: InversionModel, scenario: Scenario, groups, weights, optimizer: Adam, workers) -> list:
    """Forward and backward of one batch's groups; returns the per-utterance
    losses in batch order.  Every gradient of the batch is then summed on
    its parameter, or already applied by ``optimizer``."""
    inv_count = 1.0 / sum(map(len, groups))
    if len(groups) == 1 or not workers:
        values = []
        for i, group in enumerate(groups, start=1):
            # the last group's backward finishes each gradient, and the
            # optimizer updates that parameter there and then
            on_leaf = optimizer.update if i == len(groups) else None
            values += _train_group(model, scenario, group, weights, inv_count, on_leaf)
        return values
    # the workers read the parameters until their last group is done, so
    # every update waits for the batch's ``step``
    processes = len(workers) + 1
    for worker in workers[:len(groups) - 1]:
        worker.go()
    values = []
    for i, group in enumerate(groups):
        if i % processes:
            values += workers[i % processes - 1].receive(group)
        else:
            values += _train_group(model, scenario, group, weights, inv_count)
    return values


# -- gradient workers -----------------------------------------------------------

_DONE, _FAILED = b"d", b"f"  # the first byte of each group's result
_DIED = "training worker process died"


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


@contextlib.contextmanager
def _gradient_workers(model: InversionModel, scenario: Scenario, params, plan, weights, processes: int):
    """Fork ``processes - 1`` gradient workers for the batches of ``plan``
    that pack into several groups, after sharing ``params``; yields this
    process's end of each (none for fewer than 2 processes or without
    ``fork``).  Every worker is reaped on the way out; after an error or an
    interrupt it is killed first."""
    if processes < 2 or not hasattr(os, "fork"):
        yield []
        return
    _share(params)
    split = [groups for batches in plan for groups in batches if len(groups) > 1]
    workers = []
    try:
        for slot in range(1, processes):
            workers.append(_GradientWorker.fork(model, scenario, params, split, weights, (slot, processes), workers))
        yield workers
    except BaseException:
        for worker in workers:
            worker.kill()
        raise
    finally:
        for worker in workers:
            worker.close()


def _work(model: InversionModel, scenario: Scenario, params, split, weights, slot: int, processes: int,
          commands, results) -> None:
    """The loop of gradient worker ``slot`` of ``processes``: for each batch
    in ``split`` with groups ``slot``, ``slot + processes``, ..., wait for a
    byte on ``commands``, then run each of those groups and write its
    losses and gradients to ``results``, releasing each gradient once it is
    written.  Returns when ``commands`` ends (the parent closed it, or is
    gone) or after writing a group's error."""
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
            try:
                values = _train_group(model, scenario, group, weights, inv_count)
            except Exception as exc:  # the parent raises it in group order
                payload = pickle.dumps(exc)
                results.write(_FAILED + len(payload).to_bytes(8, "little") + payload)
                results.flush()
                return
            results.write(_DONE + np.array(values).tobytes() + bytes(p.grad is not None for p in params))
            for p in params:
                if p.grad is not None:
                    results.write(memoryview(np.ascontiguousarray(p.grad)).cast("B"))
                    p.grad = None
            results.flush()


class _GradientWorker:
    """This process's end of one forked gradient worker: the pipe that
    starts the worker's groups of a batch, and the pipe their losses and
    gradients come back on."""

    def __init__(self, pid: int, params, commands, results):
        self.pid = pid
        self.params = params
        self.commands = commands  # unbuffered
        self.results = results

    @classmethod
    def fork(cls, model, scenario, params, split, weights, slot, earlier) -> _GradientWorker:
        """Fork worker ``slot`` (its index and the process count).  The child
        closes every pipe end but its own two, including those of the
        ``earlier`` workers, so each pipe ends when this process does; it
        ignores SIGINT (this process ends it) and leaves by ``os._exit``."""
        command_r, command_w = os.pipe()
        result_r, result_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (command_r, command_w, result_r, result_w):
                os.close(fd)
            raise
        if pid == 0:
            code = 1
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                for fd in (command_w, result_r):
                    os.close(fd)
                for worker in earlier:
                    worker.commands.close()
                    worker.results.close()
                with open(command_r, "rb", buffering=0) as commands, open(result_w, "wb") as results:
                    _work(model, scenario, params, split, weights, *slot, commands, results)
                code = 0
            finally:
                os._exit(code)
        os.close(command_r)
        os.close(result_w)
        return cls(pid, params, open(command_w, "wb", buffering=0), open(result_r, "rb"))

    def _read(self, size: int) -> bytes:
        data = self.results.read(size)
        if len(data) < size:
            raise WorkerDied(_DIED)
        return data

    def go(self) -> None:
        """Start the worker's groups of the next batch that has any."""
        try:
            self.commands.write(b"\x01")
        except BrokenPipeError:
            raise WorkerDied(_DIED) from None

    def receive(self, group) -> list:
        """The losses of the worker's next group, ``group``; its gradients are
        added to those the parameters hold, as one more backward would."""
        if self._read(1) == _FAILED:
            raise pickle.loads(self._read(int.from_bytes(self._read(8), "little")))
        values = np.frombuffer(self._read(8 * len(group))).tolist()
        for p, sent in zip(self.params, self._read(len(self.params))):
            if sent:
                g = np.empty(p.data.shape)
                if self.results.readinto(memoryview(g).cast("B")) < g.nbytes:
                    raise WorkerDied(_DIED)
                if p.grad is not None:
                    np.add(p.grad, g, out=g)  # p.grad + g, into the buffer just read
                p.grad = g
        return values

    def kill(self) -> None:
        with contextlib.suppress(ProcessLookupError):
            os.kill(self.pid, signal.SIGKILL)

    def close(self) -> None:
        """Close both pipes, which ends an idle worker, and reap it."""
        self.commands.close()
        self.results.close()
        with contextlib.suppress(ChildProcessError):
            os.waitpid(self.pid, 0)


def evaluate_loss(model: InversionModel, scenario: Scenario, samples, weights=(1.0, 1.0)) -> float:
    """Mean per-utterance loss without touching parameters or the tape;
    utterances run in the same packed groups as training."""
    values = []
    with ad.no_grad():
        for group in pack_groups([s for s in samples if s.ema.shape[0] > 0]):
            values += _finite_values(_group_losses(model, scenario, group, weights), group, "validation")
    return float(np.mean(values)) if values else float("nan")
