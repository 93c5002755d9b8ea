"""Layer forward semantics against independent oracles, plus gradient checks."""

import math
import tracemalloc

import numpy as np
import pytest

from artinv import autodiff as ad
from artinv import gradcheck
from artinv import layers
from artinv.autodiff import ShapeError, Tensor
from oracles import attention_oracle, conv_bank_oracle, lstm_oracle


class TestConvBank:
    def test_all_ones_kernels(self):
        rng = np.random.default_rng(0)
        bank = layers.ConvBank(1, 1, kernel_sizes=(1, 3, 5, 7, 9), rng=rng)
        for branch in bank.branches:
            branch.weight.data[:] = 1.0
            branch.bias.data[:] = 0.0
        y = bank.forward(Tensor(np.ones((9, 1)))).data
        np.testing.assert_array_equal(y[:, 0], np.ones(9))  # k=1 branch
        np.testing.assert_array_equal(y[:, 1], [2, 3, 3, 3, 3, 3, 3, 3, 2])  # k=3 branch
        oracle = conv_bank_oracle(np.ones((9, 1)), bank)
        np.testing.assert_allclose(y, oracle, atol=1e-12, rtol=0)

    def test_zero_weights_zero_output(self):
        rng = np.random.default_rng(1)
        bank = layers.ConvBank(3, 2, kernel_sizes=(1, 3), rng=rng)
        for branch in bank.branches:
            branch.weight.data[:] = 0.0
            branch.bias.data[:] = 0.0
        y = bank.forward(Tensor(np.random.default_rng(2).normal(size=(6, 3))))
        np.testing.assert_array_equal(y.data, np.zeros((6, 4)))

    def test_output_shape_and_gradients(self):
        rng = np.random.default_rng(3)
        bank = layers.ConvBank(39, 4, rng=rng)
        x = Tensor(rng.normal(size=(7, 39)), requires_grad=True)

        def build():
            y = bank.forward(x)
            return ad.tsum(ad.mul(y, Tensor(np.linspace(-1, 1, y.data.size).reshape(y.data.shape))))

        assert bank.forward(x).data.shape == (7, 20)
        params = [p for _, p in bank.parameters()]
        err = ad.check_gradients(build, params + [x], max_coords=25, rng=rng)
        assert err < 1e-5

    def test_matches_oracle_random_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            c_in = int(rng.integers(1, 4))
            c_out = int(rng.integers(1, 3))
            t_len = int(rng.integers(1, 8))
            bank = layers.ConvBank(c_in, c_out, kernel_sizes=(1, 3, 5), rng=rng)
            x = rng.normal(size=(t_len, c_in))
            got = bank.forward(Tensor(x)).data
            np.testing.assert_allclose(got, conv_bank_oracle(x, bank), atol=1e-10, rtol=0)

    def test_packed_matches_oracle_per_segment(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            bank = layers.ConvBank(2, 2, kernel_sizes=(1, 3, 5), rng=rng)
            lengths = tuple(int(n) for n in rng.integers(1, 7, size=int(rng.integers(1, 4))))
            x = rng.normal(size=(sum(lengths), 2))
            got = bank.forward(Tensor(x), lengths).data
            bounds = np.cumsum((0,) + lengths)
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                np.testing.assert_allclose(got[lo:hi], conv_bank_oracle(x[lo:hi], bank), atol=1e-12, rtol=0)

    def test_shift_equivariance_in_the_interior(self):
        rng = np.random.default_rng(5)
        bank = layers.ConvBank(2, 2, kernel_sizes=(1, 3, 5), rng=rng)
        x = np.zeros((16, 2))
        x[5:10] = rng.normal(size=(5, 2))  # interior support, clear of padding
        shifted = np.roll(x, 1, axis=0)
        y = bank.forward(Tensor(x)).data
        y_shifted = bank.forward(Tensor(shifted)).data
        np.testing.assert_array_equal(y_shifted[6:11], y[5:10])

    def test_empty_input_rejected(self):
        bank = layers.ConvBank(2, 1, kernel_sizes=(3,), rng=np.random.default_rng(0))
        with pytest.raises(ShapeError):
            bank.forward(Tensor(np.zeros((0, 2))))

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeError):
            layers.Conv1DLayer(4, 1, 1, rng=np.random.default_rng(0))


class TestAttention:
    def test_single_frame_attention_weight_is_one(self):
        rng = np.random.default_rng(6)
        mha = layers.MultiHeadAttention(8, heads=2, head_dim=4, rng=rng)
        x = rng.normal(size=(1, 8))
        out, weights = mha.forward(Tensor(x), return_weights=True)
        for w in weights:
            np.testing.assert_array_equal(w.data, [[1.0]])
        expected = x + (x @ mha.wv.data) @ mha.wo.data
        np.testing.assert_allclose(out.data, expected, atol=1e-12, rtol=0)

    def test_identical_frames_give_identical_outputs(self):
        rng = np.random.default_rng(7)
        mha = layers.MultiHeadAttention(8, heads=2, head_dim=4, rng=rng)
        frame = rng.normal(size=8)
        out = mha.forward(Tensor(np.tile(frame, (5, 1)))).data
        for row in out[1:]:
            np.testing.assert_allclose(row, out[0], atol=1e-12, rtol=0)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(8)
        mha = layers.MultiHeadAttention(512, rng=rng)
        _, weights = mha.forward(Tensor(rng.normal(size=(5, 512))), return_weights=True)
        assert len(weights) == 8
        for w in weights:
            assert np.all(w.data >= 0)
            np.testing.assert_allclose(w.data.sum(axis=1), 1.0, atol=1e-9, rtol=0)

    def test_matches_oracle_random_instances(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            heads, head_dim = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            mha = layers.MultiHeadAttention(heads * head_dim, heads=heads, head_dim=head_dim, rng=rng)
            x = rng.normal(size=(int(rng.integers(1, 7)), heads * head_dim))
            q, k, v = (x @ w.data for w in (mha.wq, mha.wk, mha.wv))
            expected = x + attention_oracle(q, k, v, heads) @ mha.wo.data
            np.testing.assert_allclose(mha.forward(Tensor(x)).data, expected, atol=1e-12, rtol=0)

    def test_one_attention_node_per_layer(self):
        rng = np.random.default_rng(18)
        mha = layers.MultiHeadAttention(8, heads=2, head_dim=4, rng=rng)
        seen, stack = {}, [mha.forward(Tensor(rng.normal(size=(5, 8))))]
        while stack:
            node = stack.pop()
            if node._op is not None and id(node) not in seen:
                seen[id(node)] = node._op
                stack.extend(node._parents)
        # q, k and v projections, all heads, output projection, residual
        assert sorted(seen.values()) == ["add", "attention", "linear", "linear", "linear", "linear"]

    def test_stack_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        enc = layers.AttentionEncoder(8, layers=2, heads=2, head_dim=4, rng=rng)
        x = rng.normal(size=(6, 8))
        perm = rng.permutation(6)
        base = enc.forward(Tensor(x)).data
        permuted = enc.forward(Tensor(x[perm])).data
        np.testing.assert_allclose(permuted, base[perm], atol=1e-12, rtol=0)

    def test_wrong_feature_dim_rejected(self):
        enc = layers.AttentionEncoder(8, layers=1, heads=2, head_dim=4, rng=np.random.default_rng(0))
        with pytest.raises(ShapeError, match="feature dim"):
            enc.forward(Tensor(np.zeros((3, 9))))


class TestLayerNorm:
    def test_normalizes_per_frame(self):
        # output variance is v/(v+eps), so the 1e-6 band needs input variance
        # comfortably above eps*1e6 = 10
        rng = np.random.default_rng(10)
        norm = layers.LayerNorm(64)
        out = norm.forward(Tensor(rng.normal(scale=5.0, size=(12, 64)))).data
        assert np.all(np.abs(out.mean(axis=1)) < 1e-9)
        assert np.all(np.abs(out.var(axis=1) - 1.0) < 1e-6)

    def test_gain_offset_applied(self):
        rng = np.random.default_rng(11)
        norm = layers.LayerNorm(4)
        norm.gain.data[:] = 2.0
        norm.offset.data[:] = -1.0
        x = rng.normal(size=(3, 4))
        base = layers.LayerNorm(4).forward(Tensor(x)).data
        np.testing.assert_allclose(norm.forward(Tensor(x)).data, 2.0 * base - 1.0, atol=1e-12)


class TestBLSTM:
    def test_zero_parameters_give_zero_output(self):
        layer = layers.BLSTMLayer(3, hidden=2, rng=np.random.default_rng(12))
        for _, p in layer.parameters():
            p.data[:] = 0.0
        out = layer.forward(Tensor(np.random.default_rng(13).normal(size=(4, 3))))
        np.testing.assert_array_equal(out.data, np.zeros((4, 4)))

    def test_single_frame(self):
        rng = np.random.default_rng(14)
        layer = layers.BLSTMLayer(3, hidden=2, rng=rng)
        x = rng.normal(size=(1, 3))
        out = layer.forward(Tensor(x)).data
        assert out.shape == (1, 4)
        fw = lstm_oracle(x, layer.fw.wx.data, layer.fw.wh.data, layer.fw.bias.data, 2)
        bw = lstm_oracle(x, layer.bw.wx.data, layer.bw.wh.data, layer.bw.bias.data, 2)
        np.testing.assert_allclose(out, np.concatenate([fw, bw], axis=1), atol=1e-12)

    def test_matches_per_gate_oracle(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            layer = layers.BLSTMLayer(3, hidden=2, rng=rng)
            x = rng.normal(size=(3, 3))
            got = layer.forward(Tensor(x)).data
            fw = lstm_oracle(x, layer.fw.wx.data, layer.fw.wh.data, layer.fw.bias.data, 2)
            bw = lstm_oracle(x[::-1], layer.bw.wx.data, layer.bw.wh.data, layer.bw.bias.data, 2)[::-1]
            np.testing.assert_allclose(got, np.concatenate([fw, bw], axis=1), atol=1e-10, rtol=0)

    def test_packed_matches_per_gate_oracle_per_segment(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            layer = layers.BLSTMLayer(3, hidden=2, rng=rng)
            lengths = tuple(int(n) for n in rng.integers(1, 6, size=int(rng.integers(1, 5))))
            x = rng.normal(size=(sum(lengths), 3))
            got = layer.forward(Tensor(x), lengths).data
            bounds = np.cumsum((0,) + lengths)
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                seg = x[lo:hi]
                fw = lstm_oracle(seg, layer.fw.wx.data, layer.fw.wh.data, layer.fw.bias.data, 2)
                bw = lstm_oracle(seg[::-1], layer.bw.wx.data, layer.bw.wh.data, layer.bw.bias.data, 2)[::-1]
                np.testing.assert_allclose(got[lo:hi], np.concatenate([fw, bw], axis=1), atol=1e-12, rtol=0)

    def test_time_reversal_wiring_is_exact(self):
        rng = np.random.default_rng(16)
        layer = layers.BLSTMLayer(2, hidden=3, rng=rng)
        x = rng.normal(size=(5, 2))
        out = layer.forward(Tensor(x)).data
        manual = layer.bw.run(Tensor(x[::-1].copy())).data[::-1]
        np.testing.assert_array_equal(out[:, 3:], manual)
        np.testing.assert_array_equal(out[:, :3], layer.fw.run(Tensor(x)).data)


class TestAdam:
    def test_zero_gradient_leaves_parameter(self):
        p = Tensor(np.array([1.5, -2.0]), requires_grad=True)
        opt = layers.Adam({"p": p}, learning_rate=0.1)
        p.grad = np.zeros(2)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.5, -2.0])
        # moments decay toward zero under later nonzero then zero grads
        p.grad = np.ones(2)
        opt.step()
        m_after_push = opt._m["p"].copy()
        p.grad = np.zeros(2)
        opt.step()
        assert np.all(np.abs(opt._m["p"]) < np.abs(m_after_push))

    def test_single_step_matches_learning_rate(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = layers.Adam({"p": p}, learning_rate=1e-4)
        p.grad = np.ones(1)
        opt.step()
        assert np.isclose(-p.data[0], 1e-4, rtol=1e-7)

    def test_two_steps_match_textbook_recurrence(self):
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        grads = [0.7, -1.3]
        theta, m, v = 0.5, 0.0, 0.0
        for t, g in enumerate(grads, start=1):
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * (g * g)
            m_hat = m / (1.0 - b1 ** t)
            v_hat = v / (1.0 - b2 ** t)
            theta = theta - lr * m_hat / (math.sqrt(v_hat) + eps)

        p = Tensor(np.array([0.5]), requires_grad=True)
        opt = layers.Adam({"p": p}, learning_rate=lr, beta1=b1, beta2=b2, epsilon=eps)
        for g in grads:
            p.grad = np.array([g])
            opt.step()
        assert p.data[0] == theta

    def test_missing_grad_raises(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = layers.Adam({"p": p})
        with pytest.raises(ValueError, match="no gradient"):
            opt.step()

    def test_gradient_shape_mismatch_raises(self):
        p = Tensor(np.zeros((2, 3)), requires_grad=True)
        opt = layers.Adam({"p": p})
        p.grad = np.ones((3, 2))
        with pytest.raises(ShapeError, match="gradient of 'p'"):
            opt.step()

    def test_blocked_step_is_bitwise_the_textbook_update(self):
        lr, b1, b2, eps = 3e-3, 0.9, 0.999, 1e-8
        block = layers.ADAM_BLOCK
        shapes = {"one": (1,), "below": (block - 1,), "exact": (block,), "above": (block + 1,),
                  "three_and_more": (3 * block + 7,), "matrix": (512, 512), "transposed": (40, 30),
                  "shared_a": (7, 5), "shared_b": (7, 5)}
        rng = np.random.default_rng(11)
        params = {name: Tensor(rng.standard_normal(shape), requires_grad=True)
                  for name, shape in shapes.items()}
        theta = {name: p.data.copy() for name, p in params.items()}
        m = {name: np.zeros(shape) for name, shape in shapes.items()}
        v = {name: np.zeros(shape) for name, shape in shapes.items()}
        opt = layers.Adam(params, learning_rate=lr, beta1=b1, beta2=b2, epsilon=eps)
        for t in range(1, 6):
            grads = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
            grads["transposed"] = rng.standard_normal((30, 40)).T
            grads["shared_b"] = grads["shared_a"]
            assert not grads["transposed"].flags.c_contiguous
            before = {name: g.copy() for name, g in grads.items()}
            for name, p in params.items():
                p.grad = grads[name]
            opt.step()
            for name, g in grads.items():
                m[name] = b1 * m[name] + (1.0 - b1) * g
                v[name] = b2 * v[name] + (1.0 - b2) * (g * g)
                m_hat = m[name] / (1.0 - b1 ** t)
                v_hat = v[name] / (1.0 - b2 ** t)
                theta[name] = theta[name] - lr * m_hat / (np.sqrt(v_hat) + eps)
                np.testing.assert_array_equal(g, before[name], err_msg=f"{name}: gradient written")
                np.testing.assert_array_equal(params[name].data, theta[name], err_msg=f"{name} step {t}")
                np.testing.assert_array_equal(opt._m[name], m[name], err_msg=name)
                np.testing.assert_array_equal(opt._v[name], v[name], err_msg=name)

    def test_step_allocates_nothing(self):
        rng = np.random.default_rng(12)
        p = Tensor(rng.standard_normal(1 << 20), requires_grad=True)
        opt = layers.Adam({"p": p})
        p.grad = rng.standard_normal(1 << 20)
        opt.step()
        m, v = opt._m["p"], opt._v["p"]
        tracemalloc.start()
        try:
            opt.step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, f"step allocated {peak} bytes at peak"  # one array is 8 MB
        assert opt._m["p"] is m and opt._v["p"] is v

    def test_update_then_step_is_bitwise_step(self):
        """Parameters updated through ``update``, the rest by ``step``, end
        bitwise where ``step`` alone puts them."""
        shapes = {"a": (30, 40), "b": (layers.ADAM_BLOCK + 5,), "c": (4,)}
        rng = np.random.default_rng(13)
        start = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
        sides = [{name: Tensor(a.copy(), requires_grad=True) for name, a in start.items()} for _ in range(2)]
        plain, hooked = (layers.Adam(params, learning_rate=1e-2) for params in sides)
        for _ in range(4):
            grads = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
            for params in sides:
                for name, p in params.items():
                    p.grad = grads[name]
            plain.step()
            hooked.update(sides[1]["a"])
            hooked.update(sides[1]["b"])
            assert sides[1]["a"].grad is None and sides[1]["b"].grad is None
            hooked.step()
            assert sides[1]["c"].grad is grads["c"]
            for name in shapes:
                np.testing.assert_array_equal(sides[1][name].data, sides[0][name].data, err_msg=name)
                np.testing.assert_array_equal(hooked._m[name], plain._m[name], err_msg=name)
                np.testing.assert_array_equal(hooked._v[name], plain._v[name], err_msg=name)
        assert hooked.step_count == plain.step_count == 4

    def test_update_refuses_a_second_update_in_one_step(self):
        p = Tensor(np.ones(3), requires_grad=True)
        opt = layers.Adam({"p": p})
        p.grad = np.ones(3)
        opt.update(p)
        p.grad = np.ones(3)
        with pytest.raises(ValueError, match="already updated"):
            opt.update(p)
        opt.step()
        opt.update(p)  # the next step may update it again


@pytest.mark.parametrize("name,layer,in_shape", gradcheck.layer_cases(np.random.default_rng(20)),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_layer_gradients(name, layer, in_shape):
    """All parameters and the input pass the finite-difference check at three
    random points (relative error < 1e-5)."""
    err = gradcheck.check_layer(layer, in_shape, np.random.default_rng(21))
    assert err < gradcheck.LAYER_TOLERANCE, f"{name}: relative error {err}"
