"""Property tests over generated inputs (hypothesis)."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from artinv import autodiff as ad
from artinv.autodiff import Tensor
from artinv.evaluation import pcc, rmse
from artinv.model import SCENARIOS, scenario_loss
from test_autodiff import attention_weights

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False)
# 0.01-granular grid in [-50, 50]: keeps affine maps and squared errors
# numerically faithful (no sub-ulp structure to absorb or underflow)
coarse = st.integers(min_value=-5000, max_value=5000).map(lambda i: i / 100.0)


def matrices(rows=st.integers(2, 8), cols=st.integers(1, 6)):
    return st.tuples(rows, cols).flatmap(
        lambda shape: arrays(np.float64, shape, elements=finite))


@settings(max_examples=60, deadline=None)
@given(st.tuples(st.integers(1, 3), st.integers(2, 8), st.integers(1, 3)).flatmap(
    lambda s: st.tuples(st.just(s[0]), *(arrays(np.float64, (s[1], s[0] * s[2]), elements=finite)
                                         for _ in range(2)))))
def test_softmax_rows_are_distributions(case):
    heads, q, k = case  # attention scores of up to O(1e3)
    weights = attention_weights(q, k, heads)
    assert np.all(weights >= 0)
    np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-12, rtol=0)


@settings(max_examples=40, deadline=None)
@given(st.tuples(st.integers(2, 8), st.integers(1, 5)).flatmap(
    lambda shape: st.tuples(
        arrays(np.float64, shape, elements=finite),
        arrays(np.float64, shape, elements=finite),
        arrays(np.float64, shape, elements=finite),
    )))
def test_rmse_triangle_like_bound(abc):
    a, b, c = abc
    assert np.all(rmse(a, c) <= rmse(a, b) + rmse(b, c) + 1e-9)


@settings(max_examples=40, deadline=None)
@given(st.tuples(st.integers(3, 10), st.integers(1, 4)).flatmap(
    lambda shape: st.tuples(
        arrays(np.float64, shape, elements=coarse),
        arrays(np.float64, shape, elements=coarse),
    )),
    st.integers(min_value=1, max_value=1600).map(lambda i: i / 100.0),
    st.integers(min_value=-800, max_value=800).map(lambda i: i / 100.0))
def test_pcc_invariant_under_positive_affine_maps(pair, scale, shift):
    pred, target = pair
    base = pcc(pred, target)
    mapped = pcc(scale * pred + shift, target)
    mask = ~np.isnan(base)
    np.testing.assert_allclose(mapped[mask], base[mask], atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.tuples(st.integers(1, 6), st.integers(1, 12)).flatmap(
    lambda shape: st.tuples(
        arrays(np.float64, shape, elements=coarse),
        arrays(np.float64, shape, elements=coarse),
        arrays(np.float64, shape, elements=coarse),
    )))
def test_joint_loss_nonnegative_zero_iff_exact(abc):
    inv, pho, target = abc
    value = scenario_loss(SCENARIOS["S3"], Tensor(inv), Tensor(pho), Tensor(target)).item()
    assert value >= 0.0
    exact = np.array_equal(inv, target) and np.array_equal(pho, target)
    assert (value == 0.0) == exact


@settings(max_examples=30, deadline=None)
@given(matrices(rows=st.integers(1, 6), cols=st.integers(1, 6)))
def test_gradient_accumulation_matches_branch_sum(x):
    both = Tensor(x.copy(), requires_grad=True)
    ad.add(ad.tsum(ad.mul(both, both)), ad.tsum(ad.mul(both, 3.0))).backward()

    first = Tensor(x.copy(), requires_grad=True)
    ad.tsum(ad.mul(first, first)).backward()
    second = Tensor(x.copy(), requires_grad=True)
    ad.tsum(ad.mul(second, 3.0)).backward()

    np.testing.assert_array_equal(both.grad, first.grad + second.grad)
