"""Gradient-tape core: forward values, adjoints, and the checking harness."""

import zlib

import numpy as np
import pytest

from artinv import autodiff as ad
from artinv import gradcheck
from artinv.autodiff import Tensor
from artinv.errors import NumericalError
from oracles import attention_oracle, correlate_oracle, layer_norm_oracle, linear_oracle, squared_error_oracle


def central_diff(f, x, step=1e-6):
    """Independent finite-difference oracle: df/dx per coordinate of x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = f(x)
        flat[i] = orig - step
        lo = f(x)
        flat[i] = orig
        grad.reshape(-1)[i] = (hi - lo) / (2 * step)
    return grad


def attention_weights(q, k, heads):
    """The primitive's [heads, T, T] attention weights, read back through
    ``ad.attention`` with identity value blocks (weights @ I is exact)."""
    frames = q.shape[0]
    context = ad.attention(Tensor(q), Tensor(k), Tensor(np.tile(np.eye(frames), (1, heads))), heads)
    return context.data.reshape(frames, heads, frames).swapaxes(0, 1)


class TestForward:
    def test_matmul_hand_checked(self):
        y = ad.linear(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
        np.testing.assert_array_equal(y.data, [[3.0], [7.0]])

    def test_softmax_symmetry(self):
        # zero queries score every key alike: uniform 1/T attention weights
        rng = np.random.default_rng(6)
        weights = attention_weights(np.zeros((3, 4)), rng.normal(size=(3, 4)), heads=2)
        np.testing.assert_allclose(weights, 1 / 3, rtol=0, atol=1e-15)

    def test_softmax_rows_normalized(self):
        rng = np.random.default_rng(7)
        q, k = (rng.normal(size=(11, 6)) * 30.0 for _ in range(2))  # scores of O(1e3)
        weights = attention_weights(q, k, heads=3)
        assert np.all(weights >= 0)
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0, rtol=0, atol=1e-12)

    def test_cross_correlation_matches_sliding_oracle(self):
        signal = [1.0, 2.0, 3.0, 4.0]
        kernel = [1.0, 0.0, -1.0]
        expected = correlate_oracle(signal, kernel, pad=1)
        assert expected == [-2.0, -2.0, -2.0, 3.0]
        x = Tensor(np.array(signal).reshape(4, 1))
        w = Tensor(np.array(kernel).reshape(1, 1, 3))
        y = ad.conv1d(x, w, Tensor(np.zeros(1)))
        np.testing.assert_allclose(y.data[:, 0], expected, rtol=0, atol=0)

    def test_cross_correlation_random_vs_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(3, 12))
            k = int(rng.integers(1, 4)) * 2 + 1
            pad = (k - 1) // 2
            signal = rng.normal(size=n)
            kernel = rng.normal(size=k)
            expected = correlate_oracle(signal, kernel, pad)
            y = ad.conv1d(Tensor(signal.reshape(-1, 1)), Tensor(kernel.reshape(1, 1, -1)))
            np.testing.assert_allclose(y.data[:, 0], expected, atol=1e-10, rtol=0)

    def test_attention_random_vs_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            heads = int(rng.integers(1, 4))
            frames = int(rng.integers(1, 7))
            d, d_v = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            q, k = rng.normal(size=(2, frames, heads * d))
            v = rng.normal(size=(frames, heads * d_v))
            got = ad.attention(Tensor(q), Tensor(k), Tensor(v), heads).data
            np.testing.assert_allclose(got, attention_oracle(q, k, v, heads), atol=1e-12, rtol=0)

    def test_layer_norm_vs_oracle(self):
        rng = np.random.default_rng(12)
        shapes = [(int(rng.integers(1, 6)), int(rng.integers(1, 8))) for _ in range(10)] + [(1, 5), (1, 1), (4, 512)]
        for frames, dim in shapes:
            x = rng.normal(scale=3.0, size=(frames, dim))
            gain, offset = rng.normal(size=(2, dim))
            got = ad.layer_norm(Tensor(x), Tensor(gain), Tensor(offset), 1e-5).data
            np.testing.assert_allclose(got, layer_norm_oracle(x, gain, offset, 1e-5), atol=1e-12, rtol=0)

    def test_shape_mismatch_names_op_and_shapes(self):
        with pytest.raises(ad.ShapeError, match=r"linear.*\(2, 3\).*\(2, 3\)"):
            ad.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
        with pytest.raises(ad.ShapeError, match=r"linear: bias shape \(2,\)"):
            ad.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 4))), Tensor(np.zeros(2)))
        with pytest.raises(ad.ShapeError, match="add"):
            ad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))
        with pytest.raises(ad.ShapeError, match="add"):  # no broadcasting: a bias goes through linear
            ad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)))
        with pytest.raises(ad.ShapeError, match="mul"):  # only a constant scalar may stand for an array
            ad.mul(Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)))
        with pytest.raises(ad.ShapeError, match=r"squared_error.*\(2, 3\).*\(2, 4\)"):
            ad.squared_error(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))
        with pytest.raises(ad.ShapeError, match="squared_error: input has no frames"):
            ad.squared_error(Tensor(np.zeros((0, 3))), Tensor(np.zeros((0, 3))))
        with pytest.raises(ad.ShapeError, match="conv1d: input has no frames"):
            ad.conv1d(Tensor(np.zeros((0, 2))), Tensor(np.zeros((1, 2, 3))))
        with pytest.raises(ad.ShapeError, match=r"layer_norm.*\(2, 3\).*\(4,\)"):
            ad.layer_norm(Tensor(np.zeros((2, 3))), Tensor(np.ones(4)), Tensor(np.zeros(4)), 1e-5)
        with pytest.raises(ad.ShapeError, match=r"concat.*\(2, 3\), \(3, 3\)"):
            ad.concat([Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3)))])
        with pytest.raises(ad.ShapeError, match=r"concat.*\(2, 3, 1\)"):  # joins [T, C] tensors only
            ad.concat([Tensor(np.zeros((2, 3, 1))), Tensor(np.zeros((2, 3, 1)))])

    @pytest.mark.parametrize("wh_shape", [(8,), (2, 8, 1), ()])
    def test_lstm_wh_that_is_not_2d_is_a_shape_error(self, wh_shape):
        """H is read from ``wh``'s rows, so ``wh`` must be [H, 4H]."""
        x, wx, b = Tensor(np.zeros((3, 4))), Tensor(np.zeros((4, 8))), Tensor(np.zeros(8))
        with pytest.raises(ad.ShapeError, match=r"lstm_sequence: expects .* wh \[H, 4H\], got \(3, 4\) and"):
            ad.lstm_sequence(x, wx, Tensor(np.zeros(wh_shape)), b)
        assert ad.lstm_sequence(x, wx, Tensor(np.zeros((2, 8))), b).data.shape == (3, 2)
        with pytest.raises(ad.ShapeError, match=r"wx, wh and bias shapes .* are not \(4, 12\), \(3, 12\)"):
            ad.lstm_sequence(x, wx, Tensor(np.zeros((3, 12))), b)

    def test_determinism_bitwise(self):
        def run():
            rng = np.random.default_rng(11)
            x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
            w = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
            loss = ad.tsum(ad.squared_error(ad.linear(x, w, activation="tanh"), Tensor(np.zeros((4, 3)))))
            loss.backward()
            return loss.data.copy(), x.grad.copy(), w.grad.copy()

        first, second = run(), run()
        for a, b in zip(first, second):
            assert np.array_equal(a, b)


class TestBackward:
    def test_sum_of_squares(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        ad.tsum(ad.mul(x, x)).backward()
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_constant_loss_leaves_zero_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = Tensor(5.0)
        loss.backward()
        assert x.grad is None  # untouched: loss does not depend on x

    def test_matmul_grads_match_finite_differences(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))

        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        ad.tsum(ad.linear(ta, tb)).backward()

        ga = central_diff(lambda m: float((m @ b).sum()), a)
        gb = central_diff(lambda m: float((a @ m).sum()), b)
        np.testing.assert_allclose(ta.grad, ga, rtol=1e-7, atol=1e-7)
        np.testing.assert_allclose(tb.grad, gb, rtol=1e-7, atol=1e-7)

    def test_accumulation_over_two_branches(self):
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        ad.add(ad.tsum(ad.mul(x, x)), ad.tsum(ad.mul(x, 3.0))).backward()

        a = Tensor(x.data.copy(), requires_grad=True)
        ad.tsum(ad.mul(a, a)).backward()
        b = Tensor(x.data.copy(), requires_grad=True)
        ad.tsum(ad.mul(b, 3.0)).backward()

        np.testing.assert_array_equal(x.grad, a.grad + b.grad)

    def test_backward_rejects_non_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ad.ShapeError, match="scalar"):
            ad.mul(x, 2.0).backward()

    def test_repeated_use_of_same_tensor(self):
        x = Tensor([2.0], requires_grad=True)
        ad.tsum(ad.mul(x, x)).backward()
        np.testing.assert_array_equal(x.grad, [4.0])


def leaf_graph(seed):
    """Leaves x, w, b (trainable; each used twice) and frozen f, and a
    function building a scalar loss over them."""
    rng = np.random.default_rng(seed)
    leaves = {"x": Tensor(rng.normal(size=(4, 3)), requires_grad=True),
              "w": Tensor(rng.normal(size=(3, 3)), requires_grad=True),
              "b": Tensor(rng.normal(size=3), requires_grad=True),
              "f": Tensor(rng.normal(size=(3, 3)))}

    def build():
        x, w, b, f = (leaves[n] for n in "xwbf")
        h = ad.linear(ad.linear(x, w, b, activation="tanh"), f)
        return ad.tsum(ad.linear(ad.mul(h, ad.linear(x, w)), f, b))

    return leaves, build


class TestOnLeaf:
    def reference_grads(self, seed):
        leaves, build = leaf_graph(seed)
        ad.backward(build())
        return {name: t.grad for name, t in leaves.items() if t.requires_grad}

    def test_fires_once_per_leaf_with_the_final_gradient(self):
        reference = self.reference_grads(60)
        leaves, build = leaf_graph(60)
        names = {id(t): name for name, t in leaves.items()}
        seen = []
        ad.backward(build(), on_leaf=lambda leaf: seen.append((names[id(leaf)], leaf.grad.copy())))
        assert sorted(name for name, _ in seen) == ["b", "w", "x"]  # the frozen f never
        for name, grad in seen:
            # every one of the leaf's contributions was in when it fired
            np.testing.assert_array_equal(grad, reference[name], err_msg=name)
            np.testing.assert_array_equal(leaves[name].grad, reference[name], err_msg=name)

    def test_fires_after_the_last_contribution(self):
        x = Tensor([2.0, -1.0], requires_grad=True)
        seen = []
        ad.backward(ad.tsum(ad.add(ad.mul(x, x), ad.mul(x, 3.0))), on_leaf=lambda leaf: seen.append(leaf.grad.copy()))
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0], [7.0, 1.0])  # 2x + 3, summed over three uses

    def test_callback_may_consume_the_leaf(self):
        """Overwriting a leaf's data and dropping its gradient inside the
        callback changes no other gradient: no adjoint still to run reads it."""
        reference = self.reference_grads(61)
        leaves, build = leaf_graph(61)
        names = {id(t): name for name, t in leaves.items()}
        taken = {}

        def consume(leaf):
            taken[names[id(leaf)]] = leaf.grad
            leaf.grad = None
            leaf.data[...] = np.nan

        ad.backward(build(), on_leaf=consume)
        assert sorted(taken) == ["b", "w", "x"]
        for name, grad in taken.items():
            np.testing.assert_array_equal(grad, reference[name], err_msg=name)
            assert leaves[name].grad is None


class TestGradCheck:
    def test_quadratic_is_nearly_exact(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        assert ad.check_gradients(lambda: ad.tsum(ad.mul(x, x)), [x], step=1e-6) < 1e-7

    def test_tanh_sum(self):
        x = Tensor(np.random.default_rng(1).normal(size=(2, 4)), requires_grad=True)
        identity = Tensor(np.eye(4))
        assert ad.check_gradients(lambda: ad.tsum(ad.linear(x, identity, activation="tanh")), [x], step=1e-6) < 1e-6

    def test_softmax_sum_has_zero_gradient(self):
        # attention rows sum to one, so identical value rows give the same
        # context for any weights and d(context)/d(q, k) vanishes identically
        rng = np.random.default_rng(8)
        q, k = (Tensor(rng.normal(size=(4, 6)), requires_grad=True) for _ in range(2))
        v = Tensor(np.tile(rng.normal(size=6), (4, 1)))
        ad.tsum(ad.mul(ad.attention(q, k, v, heads=2), Tensor(rng.normal(size=(4, 6))))).backward()
        np.testing.assert_allclose(q.grad, 0.0, atol=1e-12)
        np.testing.assert_allclose(k.grad, 0.0, atol=1e-12)

    def test_step_bounds(self):
        x = Tensor([1.0], requires_grad=True)
        with pytest.raises(ValueError):
            ad.check_gradients(lambda: ad.tsum(x), [x], step=0.5)
        with pytest.raises(ValueError):
            ad.check_gradients(lambda: ad.tsum(x), [x], step=0.0)

    def test_non_finite_reports_coordinate(self):
        x = Tensor([-1.0], requires_grad=True)
        with pytest.raises(NumericalError, match="coordinate 0"):
            ad.check_gradients(lambda: ad.tsum(ad.mul(x, np.nan)), [x], step=1e-6)

    def test_layer_norm_gradients_of_every_operand(self):
        rng = np.random.default_rng(9)
        x, gain, offset = (Tensor(rng.normal(size=shape), requires_grad=True) for shape in ((4, 5), (5,), (5,)))
        coeffs = Tensor(rng.normal(size=(4, 5)))

        def build():
            return ad.tsum(ad.mul(ad.layer_norm(x, gain, offset, 1e-5), coeffs))

        for _ in range(3):
            assert ad.check_gradients(build, [x, gain, offset], step=1e-6) < 1e-6
            x.data[:] = rng.normal(size=(4, 5))


LINEAR_VARIANTS = [(bias, activation) for bias in (False, True) for activation in (None, "tanh")]


class TestFused:
    """``linear`` and ``squared_error``: forward values against plain-loop
    oracles, the gradient of every operand against ``check_gradients`` and
    central differences of the oracle, and bitwise equality with the op
    chains each node replaces."""

    @pytest.mark.parametrize("bias, activation", LINEAR_VARIANTS)
    def test_linear_vs_oracle(self, bias, activation):
        rng = np.random.default_rng(50)
        for _ in range(10):
            frames, n_in, n_out = (int(n) for n in rng.integers(1, 6, size=3))
            x, w, b = rng.normal(size=(frames, n_in)), rng.normal(size=(n_in, n_out)), rng.normal(size=n_out)
            b = b if bias else None
            got = ad.linear(Tensor(x), Tensor(w), b if b is None else Tensor(b), activation).data
            np.testing.assert_allclose(got, linear_oracle(x, w, b, activation), atol=1e-12, rtol=0)

    @pytest.mark.parametrize("bias, activation", LINEAR_VARIANTS)
    def test_linear_gradients_of_every_operand(self, bias, activation):
        rng = np.random.default_rng(51)
        operands = [rng.normal(size=(4, 3)), rng.normal(size=(3, 2))] + ([rng.normal(size=2)] if bias else [])
        coeffs = rng.normal(size=(4, 2))
        tensors = [Tensor(a.copy(), requires_grad=True) for a in operands]

        def build():
            return ad.tsum(ad.mul(ad.linear(*tensors, activation=activation), Tensor(coeffs)))

        assert ad.check_gradients(build, tensors, step=1e-6) < 1e-6  # leaves the analytic gradients
        for i, t in enumerate(tensors):
            def oracle_loss(a, i=i):
                args = operands[:i] + [a] + operands[i + 1:]
                return float((linear_oracle(*args, activation=activation) * coeffs).sum())

            np.testing.assert_allclose(t.grad, central_diff(oracle_loss, operands[i].copy()), rtol=1e-6, atol=1e-8)

    def test_linear_replays_the_op_chain_bitwise(self):
        """Output and gradients equal, bit for bit, a product, a bias add and
        a tanh run as separate numpy ops with their adjoints in turn."""
        rng = np.random.default_rng(52)
        x, w, b, g = rng.normal(size=(6, 5)), rng.normal(size=(5, 4)), rng.normal(size=4), rng.normal(size=(6, 4))
        tx, tw, tb = (Tensor(a, requires_grad=True) for a in (x, w, b))
        y = ad.linear(tx, tw, tb, activation="tanh")
        ad.tsum(ad.mul(y, Tensor(g))).backward()
        chain = np.tanh(x @ w + b)
        g_pre = g * (1.0 - chain * chain)
        assert np.array_equal(y.data, chain)
        assert np.array_equal(tb.grad, g_pre.sum(axis=0))
        assert np.array_equal(tx.grad, g_pre @ w.T)
        assert np.array_equal(tw.grad, x.T @ g_pre)

    def test_squared_error_vs_oracle(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            lengths = tuple(int(n) for n in rng.integers(1, 5, size=int(rng.integers(1, 4))))
            pred, target = rng.normal(size=(2, sum(lengths), int(rng.integers(1, 6))))
            for lens in (None, lengths):
                got = ad.squared_error(Tensor(pred), Tensor(target), lens).data
                np.testing.assert_allclose(got, squared_error_oracle(pred, target, lens), atol=1e-12, rtol=0)

    def test_squared_error_gradients_of_every_operand(self):
        rng = np.random.default_rng(54)
        lengths = (1, 3, 2)
        operands = [rng.normal(size=(6, 3)), rng.normal(size=(6, 3))]
        coeffs = rng.normal(size=(3, 1))
        tensors = [Tensor(a.copy(), requires_grad=True) for a in operands]

        def build():
            return ad.tsum(ad.mul(ad.squared_error(*tensors, lengths), Tensor(coeffs)))

        assert ad.check_gradients(build, tensors, step=1e-6) < 1e-6  # leaves the analytic gradients
        for i, t in enumerate(tensors):
            def oracle_loss(a, i=i):
                args = operands[:i] + [a] + operands[i + 1:]
                return float((squared_error_oracle(*args, lengths) * coeffs).sum())

            np.testing.assert_allclose(t.grad, central_diff(oracle_loss, operands[i].copy()), rtol=1e-6, atol=1e-8)

    def test_squared_error_replays_the_op_chain_bitwise(self):
        """Output and gradients equal, bit for bit, a difference, a square, a
        channel sum and a segment mean run as separate numpy ops with their
        adjoints in turn."""
        rng = np.random.default_rng(55)
        lens = np.array([2, 1, 3])
        pred, target, g = rng.normal(size=(6, 12)), rng.normal(size=(6, 12)), rng.normal(size=(3, 1))
        tp, tt = Tensor(pred, requires_grad=True), Tensor(target, requires_grad=True)
        y = ad.squared_error(tp, tt, lens)
        ad.tsum(ad.mul(y, Tensor(g))).backward()
        d = pred - target
        frame_errors = (d * d).sum(axis=1, keepdims=True)
        counts = lens.reshape(-1, 1)
        g_frames = np.repeat(g / counts, lens, axis=0)
        g_d = np.broadcast_to(g_frames, d.shape).copy() * 2.0 * d
        assert np.array_equal(y.data, np.add.reduceat(frame_errors, [0, 2, 3], axis=0) / counts)
        assert np.array_equal(tp.grad, g_d)
        assert np.array_equal(tt.grad, -g_d)


class TestPacked:
    """Sequences packed along the frame axis behave as if run one by one."""

    def test_attention_matches_oracle_per_segment(self):
        rng = np.random.default_rng(40)
        for _ in range(10):
            heads, d = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            lengths = tuple(int(n) for n in rng.integers(1, 6, size=int(rng.integers(1, 4))))
            q, k, v = rng.normal(size=(3, sum(lengths), heads * d))
            got = ad.attention(Tensor(q), Tensor(k), Tensor(v), heads, lengths=lengths).data
            lo = 0
            for n in lengths:
                seg = slice(lo, lo + n)
                np.testing.assert_allclose(got[seg], attention_oracle(q[seg], k[seg], v[seg], heads),
                                           atol=1e-12, rtol=0)
                lo += n

    def test_lstm_gradients_of_every_operand(self):
        rng = np.random.default_rng(42)
        x = Tensor(rng.normal(size=(7, 3)), requires_grad=True)
        wx, wh, b = (Tensor(rng.normal(size=shape), requires_grad=True) for shape in ((3, 8), (2, 8), (8,)))
        coeffs = Tensor(rng.normal(size=(7, 2)))
        for reverse in (False, True):
            def build():
                y = ad.lstm_sequence(x, wx, wh, b, lengths=(3, 1, 3), reverse=reverse)
                return ad.tsum(ad.mul(y, coeffs))

            assert ad.check_gradients(build, [x, wx, wh, b], step=1e-6) < 1e-6

    def test_segment_mean_and_sum(self):
        """Each segment's row is the channel-summed squared error averaged
        over that segment's frames, and equals the node run on it alone."""
        rng = np.random.default_rng(43)
        pred, target = rng.normal(size=(2, 6, 2))
        frame_errors = ((pred - target) ** 2).sum(axis=1)
        got = ad.squared_error(Tensor(pred), Tensor(target), lengths=(1, 3, 2)).data[:, 0]
        np.testing.assert_allclose(got, [frame_errors[0], frame_errors[1:4].mean(), frame_errors[4:].mean()],
                                   atol=1e-15, rtol=0)
        for row, seg in zip(got, (slice(0, 1), slice(1, 4), slice(4, 6))):
            assert row == ad.squared_error(Tensor(pred[seg]), Tensor(target[seg])).item()

    def test_non_finite_value_stays_in_its_segment(self):
        pred = np.arange(6.0).reshape(6, 1)
        pred[4, 0] = np.nan
        got = ad.squared_error(Tensor(pred), Tensor(np.zeros((6, 1))), lengths=(4, 2)).data[:, 0]
        np.testing.assert_array_equal(got, [3.5, np.nan])  # (0 + 1 + 4 + 9) / 4

    @pytest.mark.parametrize("lengths", [(2, 2), (0, 5), (6, -1), (2.5, 2.5)])
    def test_lengths_must_cover_the_frames(self, lengths):
        x = Tensor(np.ones((5, 4)))
        with pytest.raises(ad.ShapeError, match="segment lengths"):
            ad.attention(x, x, x, heads=2, lengths=lengths)
        with pytest.raises(ad.ShapeError, match="segment lengths"):
            ad.squared_error(x, x, lengths=lengths)


def test_backward_consumes_the_graph():
    """After backward only leaves keep gradients; op nodes drop their grad,
    adjoint closure and parent links."""
    rng = np.random.default_rng(44)
    x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    hidden = ad.linear(x, w, activation="tanh")
    loss = ad.tsum(ad.squared_error(hidden, Tensor(np.zeros((4, 2)))))
    inner = [hidden, loss._parents[0], loss]
    ad.backward(loss)
    assert x.grad is not None and w.grad is not None
    for node in inner:
        assert node.grad is None and node._vjp is None and node._parents == ()


@pytest.mark.parametrize("name", sorted(gradcheck.PRIMITIVE_CASES))
def test_primitive_gradients(name):
    """Every primitive case of ``artinv gradcheck`` passes check_gradients
    at 10 random points (module invariant)."""
    err = gradcheck.check_primitive(name, np.random.default_rng(zlib.crc32(name.encode())), points=10)
    assert err < 1e-5, f"{name}: relative error {err}"


def test_no_grad_suppresses_recording():
    x = Tensor(np.ones(3), requires_grad=True)
    with ad.no_grad():
        y = ad.tsum(ad.mul(x, x))
    assert not y.requires_grad
    y.backward()
    assert x.grad is None


def test_check_gradients_helper_on_composite():
    rng = np.random.default_rng(5)
    w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=3), requires_grad=True)
    x = rng.normal(size=(5, 4))

    def build():
        return ad.tsum(ad.squared_error(ad.linear(Tensor(x), w, b, activation="tanh"), Tensor(np.zeros((5, 3)))))

    assert ad.check_gradients(build, [w, b], step=1e-6) < 1e-6
