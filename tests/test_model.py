"""Model assembly, joint loss, scenario semantics, and the training loop."""

import functools
import inspect
import itertools
import math
import mmap
import os
import tracemalloc

import numpy as np
import pytest

from artinv import autodiff as ad
from artinv import gradcheck
from artinv import layers
from artinv import model as mdl
from artinv import training
from artinv.autodiff import ShapeError, Tensor
from artinv.dataio import UtteranceSample
from artinv.errors import NumericalError, UsageError
from artinv.model import InversionModel, ModelConfig, SCENARIOS, apply_scenario, scenario_loss
from artinv.training import PACK_FRAMES, Hyper, evaluate_loss, pack_groups, train_model
from forks import forked_pids

SMALL = ModelConfig(
    conv_channels=4, kernel_sizes=(1, 3), attn_model_dim=16, attn_layers=2,
    attn_heads=2, attn_head_dim=8, speech_fc_units=10, blstm_hidden=4,
)
SMALL_SPEECH_ONLY = ModelConfig(
    variant="speech_only",
    conv_channels=4, kernel_sizes=(1, 3), attn_model_dim=16, attn_layers=2,
    attn_heads=2, attn_head_dim=8, speech_fc_units=10, blstm_hidden=4,
)
S3 = SCENARIOS["S3"]


def make_samples(count, frames=6, speakers=("a", "b"), seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        t = int(rng.integers(frames, frames + 4))
        onehot = np.zeros((t, 39))
        onehot[np.arange(t), rng.integers(0, 39, t)] = 1.0
        out.append(UtteranceSample(
            utterance_id=f"u{i:03d}",
            speaker_id=speakers[i % len(speakers)],
            mfcc=rng.normal(size=(t, 39)),
            phonemes=onehot,
            ema=rng.normal(scale=3.0, size=(t, 12)),
        ))
    return out


def snapshot(model, partition):
    return {n: p.data.copy() for n, p in model.partition_params(partition).items()}


class TestForward:
    def test_output_shapes(self):
        model = InversionModel(SMALL, seed=0)
        rng = np.random.default_rng(1)
        inv, pho = model.forward(rng.normal(size=(50, 39)), rng.normal(size=(50, 39)))
        assert inv.data.shape == (50, 12)
        assert pho.data.shape == (50, 12)

    def test_zero_parameters_give_zero_outputs(self):
        model = InversionModel(SMALL, seed=0)
        for p in model.parameters().values():
            p.data[:] = 0.0
        rng = np.random.default_rng(2)
        inv, pho = model.forward(rng.normal(size=(5, 39)), rng.normal(size=(5, 39)))
        np.testing.assert_array_equal(inv.data, np.zeros((5, 12)))
        np.testing.assert_array_equal(pho.data, np.zeros((5, 12)))

    def test_frame_count_mismatch_rejected(self):
        model = InversionModel(SMALL, seed=0)
        with pytest.raises(ShapeError, match="frame counts"):
            model.forward(np.zeros((4, 39)), np.zeros((5, 39)))

    def test_finite_outputs_for_random_inputs(self):
        model = InversionModel(SMALL, seed=3)
        rng = np.random.default_rng(4)
        for _ in range(5):
            inv, pho = model.forward(rng.normal(size=(8, 39)) * 10, rng.normal(size=(8, 39)))
            assert np.all(np.isfinite(inv.data))
            assert np.all(np.isfinite(pho.data))

    def test_speech_only_variant_has_no_phoneme_partition(self):
        model = InversionModel(SMALL_SPEECH_ONLY, seed=0)
        assert model.partition_params("phoneme_stream") == {}
        inv, pho = model.forward(np.random.default_rng(0).normal(size=(4, 39)), None)
        assert pho is None
        assert inv.data.shape == (4, 12)

    def test_gradient_reaches_all_partitions(self):
        model = InversionModel(SMALL, seed=5)
        rng = np.random.default_rng(6)
        sample = make_samples(1, seed=7)[0]
        model.set_trainable(mdl.PARTITIONS)

        def build():
            inv, pho = model.forward(sample.mfcc, sample.phonemes)
            return scenario_loss(S3, inv, pho, Tensor(sample.ema), reduction="frame_mean")

        loss = build()
        ad.backward(loss)
        picks = []
        for partition in mdl.PARTITIONS:
            name, p = next(iter(model.partition_params(partition).items()))
            assert p.grad is not None and np.any(p.grad != 0), f"no gradient in {partition} ({name})"
            picks.append(p)
        # finite-difference spot check, one weight per sub-network
        err = ad.check_gradients(build, picks, max_coords=2, rng=rng)
        assert err < 1e-4


def test_tape_holds_exactly_the_model_primitives():
    """Every public autodiff function that records a node is reached from
    the S3 or speech-only training loss (the sum of the per-utterance
    losses), and the losses reach nothing else."""
    primitives = {name for name, fn in vars(ad).items()
                  if inspect.isfunction(fn) and fn.__module__ == ad.__name__ and not name.startswith("_")}
    primitives -= {"backward", "no_grad", "check_gradients"}
    sample = make_samples(1, seed=32)[0]
    reached = set()
    for config, scenario in ((SMALL, S3), (SMALL_SPEECH_ONLY, SCENARIOS["SPEECH_ONLY"])):
        model = InversionModel(config, seed=33)
        apply_scenario(scenario, model)
        inv, pho = model.forward(sample.mfcc, sample.phonemes if scenario.use_phonemes else None)
        seen, stack = set(), [ad.tsum(scenario_loss(scenario, inv, pho, Tensor(sample.ema)))]
        while stack:
            node = stack.pop()
            if node._op is not None and id(node) not in seen:
                seen.add(id(node))
                reached.add(node._op)
                stack.extend(node._parents)
    assert reached == primitives


def test_gradcheck_primitive_suite_covers_the_tape(monkeypatch):
    """The ops that ``artinv gradcheck``'s primitive cases record are
    exactly the tape's primitive set, so no primitive goes unchecked."""
    primitives = {name for name, fn in vars(ad).items()
                  if inspect.isfunction(fn) and fn.__module__ == ad.__name__ and not name.startswith("_")}
    primitives -= {"backward", "no_grad", "check_gradients"}
    recorded = set()

    def record_ops(build_loss, tensors, **kwargs):
        stack = [build_loss()]
        while stack:
            node = stack.pop()
            if node._op is not None:
                recorded.add(node._op)
                stack.extend(node._parents)
        return 0.0

    monkeypatch.setattr(ad, "check_gradients", record_ops)
    gradcheck.primitive_suite()
    assert recorded == primitives


def test_full_size_s3_utterance_records_72_nodes():
    """The per-utterance S3 loss of the full-size model is 72 tape nodes:
    31 ``linear`` (6 attention layers of 4 projections, and 7 dense layers),
    10 LSTM directions, 8 concats (5 BLSTM layers, the conv bank, the
    speech-stream merge and the head's input), 7 residual and loss adds and
    per loss term a ``squared_error`` and its weight's ``mul``."""
    rng = np.random.default_rng(34)
    model = InversionModel(ModelConfig(), seed=35)
    apply_scenario(S3, model)
    frames = 3
    inv, pho = model.forward(rng.normal(size=(frames, 39)), np.eye(39)[rng.integers(0, 39, frames)])
    ops, seen, stack = {}, set(), [scenario_loss(S3, inv, pho, Tensor(rng.normal(size=(frames, 12))))]
    while stack:
        node = stack.pop()
        if node._vjp is not None and id(node) not in seen:
            seen.add(id(node))
            ops[node._op] = ops.get(node._op, 0) + 1
            stack.extend(node._parents)
    assert ops == {"linear": 31, "lstm_sequence": 10, "concat": 8, "add": 7, "attention": 6, "conv1d": 5,
                   "layer_norm": 1, "squared_error": 2, "mul": 2}
    assert sum(ops.values()) == 72


class TestJointLoss:
    """The S3 loss (both terms): per frame, the squared error summed over
    channels; per utterance, its mean over frames."""

    def test_zero_when_predictions_match(self):
        t = Tensor(np.random.default_rng(0).normal(size=(4, 12)))
        assert scenario_loss(S3, t, t, t).item() == 0.0

    def test_unit_offset_sums_cells(self):
        target = np.zeros((2, 12))
        off = Tensor(target + 1.0)
        exact = Tensor(target)
        # 12 channels of squared unit error in each of the 2 frames
        assert scenario_loss(S3, off, exact, Tensor(target), weights=(1.0, 1.0)).item() == 12.0

    def test_zero_phoneme_weight_reduces_to_single_stream(self):
        rng = np.random.default_rng(1)
        a, b, t = (Tensor(rng.normal(size=(3, 12))) for _ in range(3))
        full = scenario_loss(S3, a, b, t, weights=(1.0, 0.0)).item()
        single = ad.squared_error(a, t).item()
        assert full == single

    def test_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = Tensor(rng.normal(size=(3, 12)))
            b = Tensor(rng.normal(size=(3, 12)))
            t = Tensor(rng.normal(size=(3, 12)))
            value = scenario_loss(S3, a, b, t).item()
            assert value >= 0.0
            assert (value == 0.0) == (np.array_equal(a.data, t.data) and np.array_equal(b.data, t.data))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            scenario_loss(S3, Tensor(np.zeros((3, 12))), Tensor(np.zeros((3, 12))), Tensor(np.zeros((4, 12))))

    def test_frame_mean_reduction(self):
        target = np.zeros((4, 12))
        off = Tensor(target + 2.0)
        got = ad.squared_error(off, Tensor(target)).item()
        assert got == 48.0  # per-frame 4*12 = 48, identical frames
        with pytest.raises(ValueError, match="reduction"):
            scenario_loss(S3, off, off, Tensor(target), reduction="sum")


class TestScenarios:
    def test_s1_trains_only_phoneme_stream(self):
        model = InversionModel(SMALL, seed=11)
        before = {part: snapshot(model, part) for part in mdl.PARTITIONS}
        apply_scenario(SCENARIOS["S1"], model)
        for part in mdl.PARTITIONS:
            assert all(p.requires_grad == (part == "phoneme_stream")
                       for p in model.partition_params(part).values()), part
        samples = make_samples(6, seed=12)
        train_model(model, SCENARIOS["S1"], samples, samples[:2], Hyper(epochs=2, learning_rate=1e-2, batch_size=3), seed=13)
        for part in ("speech_stream", "fusion", "inversion_head"):
            for name, arr in before[part].items():
                assert np.array_equal(arr, model.parameters()[name].data), f"{name} changed"
        changed = any(not np.array_equal(before["phoneme_stream"][n], p.data)
                      for n, p in model.partition_params("phoneme_stream").items())
        assert changed

    def test_s2_requires_and_freezes_pretrained(self):
        pre = InversionModel(SMALL, seed=14)
        pre_arrays = {n: p.data.copy() for n, p in pre.partition_params("phoneme_stream").items()}

        model = InversionModel(SMALL, seed=15)
        with pytest.raises(UsageError, match="pretrained"):
            apply_scenario(SCENARIOS["S2"], model)

        apply_scenario(SCENARIOS["S2"], model, pretrained_arrays=pre_arrays)
        samples = make_samples(6, seed=16)
        train_model(model, SCENARIOS["S2"], samples, samples[:2], Hyper(epochs=2, learning_rate=1e-2, batch_size=3), seed=17)
        for name, arr in pre_arrays.items():
            assert np.array_equal(arr, model.parameters()[name].data), f"{name} not frozen"

    def test_s3_moves_both_partitions_in_one_step(self):
        model = InversionModel(SMALL, seed=18)
        before_speech = snapshot(model, "speech_stream")
        before_phoneme = snapshot(model, "phoneme_stream")
        apply_scenario(SCENARIOS["S3"], model)
        samples = make_samples(3, seed=19)
        train_model(model, SCENARIOS["S3"], samples, [], Hyper(epochs=1, learning_rate=1e-2, batch_size=3), seed=20)

        def linf_change(before, partition):
            return max(np.max(np.abs(before[n] - p.data))
                       for n, p in model.partition_params(partition).items())

        assert linf_change(before_speech, "speech_stream") > 0
        assert linf_change(before_phoneme, "phoneme_stream") > 0


class TestTraining:
    def test_seeded_training_is_bitwise_deterministic(self):
        results = []
        for _ in range(2):
            model = InversionModel(SMALL, seed=21)
            apply_scenario(SCENARIOS["S3"], model)
            samples = make_samples(5, seed=22)
            res = train_model(model, SCENARIOS["S3"], samples, samples[:1], Hyper(epochs=2, batch_size=2), seed=23)
            results.append(({n: p.data.copy() for n, p in model.parameters().items()}, res.trace))
        (params_a, trace_a), (params_b, trace_b) = results
        assert trace_a == trace_b
        for name in params_a:
            assert np.array_equal(params_a[name], params_b[name]), name

    def test_validation_does_not_update_parameters(self):
        model = InversionModel(SMALL, seed=24)
        apply_scenario(SCENARIOS["S3"], model)
        samples = make_samples(4, seed=25)
        model.target_mean, model.target_std = np.zeros(12), np.ones(12)
        before = {n: p.data.copy() for n, p in model.parameters().items()}
        evaluate_loss(model, SCENARIOS["S3"], samples)
        for name, arr in before.items():
            assert np.array_equal(arr, model.parameters()[name].data)

    def test_empty_utterances_skipped_with_warning(self, caplog):
        model = InversionModel(SMALL, seed=26)
        apply_scenario(SCENARIOS["S3"], model)
        samples = make_samples(3, seed=27)
        samples.append(UtteranceSample("empty", "a", np.zeros((0, 39)), np.zeros((0, 39)), np.zeros((0, 12))))
        with caplog.at_level("WARNING"):
            res = train_model(model, SCENARIOS["S3"], samples, [], Hyper(epochs=1, batch_size=2), seed=28)
        assert res.skipped == ["empty"]
        assert "empty" in caplog.text

    def test_loss_trace_rows(self):
        model = InversionModel(SMALL, seed=29)
        apply_scenario(SCENARIOS["S1"], model)
        samples = make_samples(4, seed=30)
        res = train_model(model, SCENARIOS["S1"], samples, samples[:1], Hyper(epochs=5, batch_size=2), seed=31)
        assert [row[0] for row in res.trace] == [1, 2, 3, 4, 5]
        assert all(np.isfinite(row[1]) for row in res.trace)


def packed_losses(model, scenario, samples):
    """Per-utterance losses of one packed forward, and the model outputs."""
    lengths = tuple(s.ema.shape[0] for s in samples)
    inv, pho = model.forward(np.concatenate([s.mfcc for s in samples]),
                             np.concatenate([s.phonemes for s in samples]), lengths)
    target = Tensor(np.concatenate([s.ema for s in samples]))
    return scenario_loss(scenario, inv, pho, target, lengths=lengths), inv, pho


class TestPacking:
    def test_packed_equals_sum_of_utterances_full_size(self):
        """One packed forward/backward of the full-size model gives each
        utterance's loss and the summed per-utterance gradients."""
        model = InversionModel(ModelConfig(), seed=40)
        apply_scenario(S3, model)
        samples = make_samples(3, frames=1, seed=41)
        samples[0] = UtteranceSample("one", "a", samples[0].mfcc[:1], samples[0].phonemes[:1], samples[0].ema[:1])
        params = model.parameters()

        single, summed = [], {}
        for sample in samples:
            loss, _, _ = packed_losses(model, S3, [sample])
            single.append(loss.item())
            ad.backward(loss)
            for name, p in params.items():
                summed[name] = summed.get(name, 0.0) + p.grad
                p.zero_grad()

        losses, _, _ = packed_losses(model, S3, samples)
        np.testing.assert_allclose(losses.data[:, 0], single, rtol=1e-12, atol=0)
        ad.backward(ad.tsum(losses))
        for name, p in params.items():
            scale = np.max(np.abs(summed[name]))
            assert np.max(np.abs(p.grad - summed[name])) <= 1e-12 * scale, name

    def test_perturbing_one_utterance_leaves_the_others_bitwise(self):
        model = InversionModel(SMALL, seed=42)
        samples = make_samples(4, seed=43)
        before = packed_losses(model, S3, samples)
        changed = list(samples)
        changed[2] = UtteranceSample("u002", "a", samples[2].mfcc + 1.0, samples[2].phonemes[::-1].copy(),
                                     samples[2].ema)
        after = packed_losses(model, S3, changed)
        bounds = np.cumsum([0] + [s.ema.shape[0] for s in samples])
        for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            same = [np.array_equal(b.data[lo:hi], a.data[lo:hi]) for b, a in zip(before[1:], after[1:])]
            same.append(np.array_equal(before[0].data[i], after[0].data[i]))
            assert all(same) == (i != 2), i

    def test_non_finite_features_name_the_utterance(self):
        model = InversionModel(SMALL, seed=44)
        apply_scenario(S3, model)
        samples = make_samples(5, seed=45)
        samples[3].mfcc[1, 4] = np.nan  # the loader would reject this; train_model must still name it
        with pytest.raises(NumericalError, match="u003"):
            train_model(model, S3, samples, [], Hyper(epochs=1, batch_size=5), seed=46)

    def test_groups_keep_order_and_frame_limit(self):
        def sample(i, frames):
            return UtteranceSample(f"u{i}", "a", np.zeros((frames, 39)), np.zeros((frames, 39)), np.zeros((frames, 12)))

        frames = [200, 300, 13, PACK_FRAMES + 1, 5, PACK_FRAMES]
        groups = pack_groups([sample(i, n) for i, n in enumerate(frames)])
        assert [[s.utterance_id for s in g] for g in groups] == [["u0", "u1"], ["u2"], ["u3"], ["u4"], ["u5"]]


class RecordingAdam(layers.Adam):
    """Adam that keeps a list of its instances and counts its batch calls."""

    made = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = {"zero_grad": 0, "step": 0}
        RecordingAdam.made.append(self)

    def zero_grad(self):
        self.calls["zero_grad"] += 1
        super().zero_grad()

    def step(self):
        self.calls["step"] += 1
        super().step()


def trained(monkeypatch, scenario, pack_limit=None, plain=False, epochs=2, cores=1):
    """Train a fresh small model under ``scenario`` on ``cores`` processes;
    return copies of its parameters and its optimizer, which holds the loss
    trace as ``trace``.  ``plain`` runs backward without the per-parameter
    hook, so each batch's ``step`` does every update."""
    with monkeypatch.context() as patch:
        RecordingAdam.made = []
        patch.setattr(training, "Adam", RecordingAdam)
        if pack_limit is not None:
            patch.setattr(training, "pack_groups", functools.partial(pack_groups, limit=pack_limit))
        if plain:
            backward = ad.backward
            patch.setattr(ad, "backward", lambda loss, on_leaf=None, on_grad=None: backward(loss))
        model = InversionModel(SMALL, seed=50)
        pretrained = None
        if scenario.needs_pretrained:
            pre = InversionModel(SMALL, seed=51)
            pretrained = {n: p.data.copy() for n, p in pre.partition_params("phoneme_stream").items()}
        apply_scenario(scenario, model, pretrained_arrays=pretrained)
        samples = make_samples(7, seed=52)
        result = train_model(model, scenario, samples, samples[:2],
                             Hyper(epochs=epochs, learning_rate=1e-2, batch_size=3), seed=53, cores=cores)
    (optimizer,) = RecordingAdam.made
    optimizer.trace = result.trace
    return {n: p.data.copy() for n, p in model.parameters().items()}, optimizer


class TestOptimizerInBackward:
    @pytest.mark.parametrize("scenario, pack_limit", [(S3, 12), (S3, None), (SCENARIOS["S2"], None)],
                             ids=["S3_several_groups", "S3_one_group", "S2"])
    def test_equals_plain_backward_then_step(self, monkeypatch, scenario, pack_limit):
        # make_samples draws 6-9 frames, so with a 12-frame limit every batch
        # of 3 spans 2-3 groups and only the last group's backward updates
        hooked, opt_hooked = trained(monkeypatch, scenario, pack_limit=pack_limit)
        plain, opt_plain = trained(monkeypatch, scenario, pack_limit=pack_limit, plain=True)
        assert hooked.keys() == plain.keys()
        for name in hooked:
            assert np.array_equal(hooked[name], plain[name]), name
        assert opt_hooked._m.keys() == opt_plain._m.keys()
        for name in opt_plain._m:
            assert np.array_equal(opt_hooked._m[name], opt_plain._m[name]), name
            assert np.array_equal(opt_hooked._v[name], opt_plain._v[name]), name

    def test_zero_grad_and_step_once_per_batch(self, monkeypatch):
        _, optimizer = trained(monkeypatch, S3, pack_limit=12, epochs=3)
        batches = 3 * math.ceil(7 / 3)
        assert optimizer.calls == {"zero_grad": batches, "step": batches}
        assert optimizer.step_count == batches

    def test_full_size_batch_holds_fewer_gradients(self, monkeypatch):
        """One full-size batch in one packed group: updating each parameter
        as backward finishes it lowers the peak of traced allocations (the
        74.5 MB of gradients are never all held)."""
        samples = make_samples(5, frames=40, seed=54)
        backward = ad.backward
        peaks = {}
        for plain in (True, False):
            model = InversionModel(ModelConfig(), seed=55)
            apply_scenario(S3, model)
            with monkeypatch.context() as patch:
                if plain:
                    patch.setattr(ad, "backward", lambda loss, on_leaf=None, on_grad=None: backward(loss))
                tracemalloc.start()
                try:
                    train_model(model, S3, samples, [], Hyper(epochs=1, batch_size=5), seed=56, cores=1)
                    peaks[plain] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        assert peaks[False] < peaks[True] - 25 * 2**20, peaks


class TestTrainingCores:
    """A batch of several packed groups splits them over forked workers;
    the parameters and losses do not change."""

    @pytest.mark.parametrize("scenario", [S3, SCENARIOS["S2"]], ids=["S3", "S2"])
    def test_outputs_are_bitwise_those_of_one_core(self, monkeypatch, scenario):
        # make_samples draws 6-9 frames, so with a 9-frame limit every
        # utterance is a group and a batch of 3 spans 3 groups
        parent_groups = {}
        train_group = training._train_group
        for cores in (1, 2, 3):
            parent_groups[cores] = []

            def recording(model, scenario, group, *args, _log=parent_groups[cores]):
                _log.append(group)
                return train_group(model, scenario, group, *args)

            monkeypatch.setattr(training, "_train_group", recording)
            params, optimizer = trained(monkeypatch, scenario, pack_limit=9, cores=cores)
            if cores == 1:
                reference, reference_optimizer = params, optimizer
                continue
            assert params.keys() == reference.keys()
            for name in params:
                assert params[name].tobytes() == reference[name].tobytes(), (cores, name)
            # worker 1 holds the moments: this process's optimizer holds none
            assert optimizer.params == {} and optimizer._m == {}
            assert optimizer.trace == reference_optimizer.trace
            assert optimizer.step_count == reference_optimizer.step_count
        # each epoch's batches span 3, 3 and 1 groups; this process ran
        # groups 0, cores, 2 * cores, ... of each, and the workers the rest
        assert [len(parent_groups[c]) for c in (1, 2, 3)] == [14, 10, 6]

    def test_nan_in_a_worker_group_raises_the_one_core_error(self, monkeypatch):
        samples = make_samples(6, seed=57)
        parent_groups = []
        train_group = training._train_group

        def recording(model, scenario, group, *args):
            parent_groups.append([s.utterance_id for s in group])
            return train_group(model, scenario, group, *args)

        def run(samples, cores):
            model = InversionModel(SMALL, seed=58)
            apply_scenario(S3, model)
            with pytest.raises(NumericalError) as exc:
                train_model(model, S3, samples, [], Hyper(epochs=1, batch_size=3), seed=59, cores=cores)
            return str(exc.value)

        with monkeypatch.context() as patch:
            patch.setattr(training, "pack_groups", functools.partial(pack_groups, limit=9))
            patch.setattr(training, "_train_group", recording)
            model = InversionModel(SMALL, seed=58)
            apply_scenario(S3, model)
            train_model(model, S3, samples, [], Hyper(epochs=1, batch_size=3), seed=59, cores=1)
            # the second group of the first batch runs in worker 1 at 2 or 3 cores
            (victim,) = parent_groups[1]
            broken = [UtteranceSample(s.utterance_id, s.speaker_id, s.mfcc.copy(), s.phonemes, s.ema)
                      for s in samples]
            broken[int(victim[1:])].mfcc[0, 0] = np.nan
            parent_groups.clear()
            message = run(broken, 1)
            assert message == f"non-finite training loss on utterance {victim}"
            for cores in (2, 3):
                parent_groups.clear()
                assert run(broken, cores) == message
                assert [victim] not in parent_groups

    def test_worker_loop_ends_when_its_commands_end(self):
        """A worker whose parent is gone reads end of file on its command
        pipe and returns without running a group."""
        model = InversionModel(SMALL, seed=60)
        apply_scenario(S3, model)
        trainable = {n: p for n, p in model.parameters().items() if p.requires_grad}
        groups = [[s] for s in make_samples(2, seed=61)]
        command_r, command_w = os.pipe()
        result_r, result_w = os.pipe()
        os.close(command_w)
        with open(command_r, "rb", buffering=0) as commands, open(result_w, "wb") as results:
            training._work(model, S3, trainable, [groups], Hyper(), mmap.mmap(-1, 4096), 1, 2, commands, results)
        with open(result_r, "rb") as results:
            assert results.read() == b""
        assert all(p.grad is None for p in trainable.values())


class TestWeightWorker:
    """On 2 or more cores, worker 1 runs Adam for every batch, and in a
    one-group batch it also forms the weight gradients while this process
    backpropagates.  The parameters and losses do not change."""

    @pytest.mark.parametrize("scenario", [S3, SCENARIOS["S2"]], ids=["S3", "S2"])
    def test_outputs_are_bitwise_those_of_one_core(self, monkeypatch, scenario):
        reference, reference_optimizer = trained(monkeypatch, scenario, cores=1)
        for cores in (2, 3):
            params, optimizer = trained(monkeypatch, scenario, cores=cores)
            assert params.keys() == reference.keys()
            for name in params:
                assert params[name].tobytes() == reference[name].tobytes(), (cores, name)
            assert optimizer.trace == reference_optimizer.trace
            # this process's optimizer holds no parameter and no moment
            assert optimizer.params == {} and optimizer._m == {}
            assert optimizer.calls == reference_optimizer.calls
            assert optimizer.step_count == reference_optimizer.step_count

    def test_only_the_worker_forms_weight_products(self, monkeypatch, tmp_path):
        log = tmp_path / "form.log"
        form = ad.Product.form

        def logged(self):  # in any process
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return form(self)

        monkeypatch.setattr(ad.Product, "form", logged)
        trained(monkeypatch, S3, cores=2)
        pids = set(log.read_text().split())
        assert len(pids) == 1 and str(os.getpid()) not in pids

    @pytest.mark.parametrize("ring_bytes", [2**14, 2**17], ids=["ring_16k", "ring_128k"])
    def test_operands_larger_than_the_ring_are_still_bitwise(self, monkeypatch, ring_bytes):
        """A 490-frame utterance, whose products' operands outgrow the
        ``RING_BYTES`` floor, so that the ring is sized from the plan,
        trains in one-group batches with short ones, whose operands wrap
        round the ring."""
        samples = make_samples(4, seed=65)
        samples[2] = make_samples(1, frames=490, seed=66)[0]
        sizes = []
        contribute = training._Keeper.contribute

        def measured(self, leaf, g):
            sizes.append(sum(a.nbytes for a in (g if isinstance(g, ad.Product) else (g,))))
            return contribute(self, leaf, g)

        results = {}
        with monkeypatch.context() as patch:
            patch.setattr(training, "RING_BYTES", ring_bytes)
            patch.setattr(training._Keeper, "contribute", measured)
            for cores in (1, 2):
                model = InversionModel(SMALL, seed=68)
                apply_scenario(S3, model)
                result = train_model(model, S3, samples, samples[1:3], Hyper(epochs=2, batch_size=2), seed=69,
                                     cores=cores)
                results[cores] = ({n: p.data.tobytes() for n, p in model.parameters().items()}, result.trace)
        assert results[2] == results[1]
        assert max(sizes) > ring_bytes and sum(size for size in sizes if size <= ring_bytes) > 2 * ring_bytes

    def test_a_plan_with_one_split_batch_forks_one_worker(self, monkeypatch, tmp_path):
        """Of two batches, only the longer packs into several groups: the
        plan forks one worker, which trains a group."""
        samples = make_samples(6, seed=70)
        hyper = Hyper(epochs=1, batch_size=3)

        def plan():
            return training._batch_plan(samples, hyper, np.random.default_rng(
                np.random.SeedSequence(entropy=71, spawn_key=(1,))))[0]

        totals = sorted(sum(s.ema.shape[0] for group in groups for s in group) for groups in plan())
        log = tmp_path / "groups.log"
        train_group = training._train_group

        def logged(*args):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return train_group(*args)

        with monkeypatch.context() as patch:
            patch.setattr(training, "pack_groups", functools.partial(pack_groups, limit=totals[0]))
            patch.setattr(training, "_train_group", logged)
            assert totals[1] > totals[0] and sorted(len(groups) for groups in plan())[0] == 1
            pids = forked_pids(patch)
            model = InversionModel(SMALL, seed=72)
            apply_scenario(S3, model)
            train_model(model, S3, samples, [], hyper, seed=71, cores=2)
        assert len(pids) == 1
        assert set(log.read_text().split()) == {str(os.getpid()), str(pids[0])}

    def test_a_mixed_plan_is_bitwise_and_worker_1_runs_every_update(self, monkeypatch, tmp_path):
        """Batches of 1 and 2 groups in one plan; the 2-group batch's last
        group runs on worker 1.  At 2 cores worker 1 makes every update and
        forms every weight product of the one-group batches."""
        log = tmp_path / "calls.log"
        running = []  # the group count of each batch this process has started
        train_batch, form, update = training._train_batch, ad.Product.form, layers.Adam.update

        def counted(model, scenario, groups, *args):
            running.append(len(groups))
            return train_batch(model, scenario, groups, *args)

        def logged(method, name):
            def logging(self, *args):  # in any process; a worker forked before the first batch
                with open(log, "a") as fh:
                    fh.write(f"{os.getpid()} {name} {running[-1] if running else 0}\n")
                return method(self, *args)
            return logging

        monkeypatch.setattr(training, "_train_batch", counted)
        monkeypatch.setattr(ad.Product, "form", logged(form, "form"))
        monkeypatch.setattr(layers.Adam, "update", logged(update, "update"))
        results = {}
        for cores in (1, 2, 3):
            # 2 epochs of batches of 3, 3 and 1 utterances, packed into 2, 1, 1
            # and 1, 2, 1 groups (the validation set, of 2, into 1)
            batches = itertools.count()
            monkeypatch.setattr(training, "pack_groups", lambda batch: [batch] if next(batches) % 2 or len(batch) < 3
                                else [batch[:2], batch[2:]])
            pids = forked_pids(monkeypatch)
            log.write_text("")
            running.clear()
            params, optimizer = trained(monkeypatch, S3, cores=cores)
            assert len(pids) == (cores > 1)
            assert sorted(running) == [1, 1, 1, 1, 2, 2]
            results[cores] = ({n: a.tobytes() for n, a in params.items()}, optimizer.trace,
                              optimizer.step_count, optimizer.calls)
            if cores == 2:
                calls = [line.split() for line in log.read_text().splitlines()]
                assert {pid for pid, name, _ in calls if name == "update"} == {str(pids[0])}
                assert {(pid, count) for pid, name, count in calls if name == "form" and count != "2"} \
                    == {(str(pids[0]), "0")}
        assert results[2] == results[1] and results[3] == results[1]
