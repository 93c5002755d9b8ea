"""Gradient verification suites: primitives, layers, and the assembled model.

Layer checks cover every parameter and the input of small layer instances
at several random points; the end-to-end check samples a handful of
parameter coordinates across all four partitions of the full-size model
on a 3-frame utterance and compares against central finite differences.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import layers
from .autodiff import Tensor
from .model import InversionModel, ModelConfig, PARTITIONS, Scenario, SCENARIOS, scenario_loss

LAYER_TOLERANCE = 1e-5
END_TO_END_TOLERANCE = 1e-4


def _ramp(x: Tensor, lo: float, hi: float) -> Tensor:
    """A constant of ``x``'s shape running evenly from ``lo`` to ``hi``."""
    return Tensor(np.linspace(lo, hi, x.data.size).reshape(x.data.shape))


def _weighted(op, x: Tensor) -> Tensor:
    """Reduce an op output to a scalar with fixed weights so no gradient is
    structurally zero (plain sums hide softmax/normalization errors)."""
    y = op(x)
    return ad.tsum(ad.mul(y, _ramp(y, 0.5, 1.5)))


_W = Tensor(np.linspace(-1, 1, 12).reshape(4, 3))
_LSTM_WEIGHTS = (Tensor(np.linspace(-1, 1, 32).reshape(4, 8)), Tensor(np.linspace(1, -0.5, 16).reshape(2, 8)),
                 Tensor(np.linspace(-0.3, 0.3, 8)))
_ATTENTION_V = Tensor(np.linspace(1, -1, 16).reshape(4, 4))
_CONV = (Tensor(np.linspace(-1, 1, 6).reshape(1, 2, 3)), Tensor(np.array([0.1])))

# name -> (input shape, op on the input x): every tape primitive, each
# operand path of the fused nodes, and the sequence ops on packed segments
PRIMITIVE_CASES = {
    "add": ((3, 4), lambda x: ad.add(x, _ramp(x, -1, 1))),
    "mul": ((3, 4), lambda x: ad.mul(x, _ramp(x, 0.5, 2))),
    # linear's paths: x as the left operand of the product, alone and under
    # bias and tanh, as the right operand under tanh, and as a [4] bias
    # broadcast over 3 frames (its gradient sums back over the rows)
    "linear": ((3, 4), lambda x: ad.linear(x, _W, Tensor(np.array([0.1, 0.0, -0.2])), activation="tanh")),
    "matmul": ((3, 4), lambda x: ad.linear(x, _W)),
    "tanh": ((3, 4), lambda x: ad.linear(Tensor(np.linspace(-1, 1, 6).reshape(2, 3)), x, activation="tanh")),
    "broadcast": ((4,), lambda x: ad.linear(Tensor(np.linspace(-1, 1, 6).reshape(3, 2)),
                                            Tensor(np.linspace(1, -1, 8).reshape(2, 4)), x, activation="tanh")),
    # squared_error's operands: the prediction, squared, and the subtracted
    # target; then both at once, over segments of 1, 3 and 2 frames
    "square": ((3, 4), lambda x: ad.squared_error(x, _ramp(x, -1, 1))),
    "sub": ((3, 4), lambda x: ad.squared_error(_ramp(x, -1, 1), x)),
    "squared_error_packed": ((6, 2), lambda x: ad.squared_error(x, ad.mul(x, x), lengths=(1, 3, 2))),
    "conv1d": ((5, 2), lambda x: ad.conv1d(x, *_CONV)),
    "layer_norm": ((3, 4), lambda x: ad.layer_norm(x, Tensor(np.linspace(0.5, 2, 4)), Tensor(np.linspace(-1, 1, 4)),
                                                   1e-5)),
    "concat": ((3, 4), lambda x: ad.concat([x, ad.mul(x, x)])),
    "attention": ((3, 4), lambda x: ad.attention(x, ad.mul(x, x), ad.linear(x, _ATTENTION_V), heads=2)),
    "lstm_sequence": ((3, 4), lambda x: ad.lstm_sequence(x, *_LSTM_WEIGHTS)),
    # packed sequences: segments of 1 and 2 frames (2 and 3 for conv1d)
    "conv1d_packed": ((5, 2), lambda x: ad.conv1d(x, *_CONV, lengths=(2, 3))),
    "attention_packed": ((3, 4), lambda x: ad.attention(x, ad.mul(x, x), ad.linear(x, _ATTENTION_V), heads=2,
                                                        lengths=(1, 2))),
    "lstm_sequence_packed": ((3, 4), lambda x: ad.lstm_sequence(x, *_LSTM_WEIGHTS, lengths=(1, 2))),
    "lstm_sequence_packed_reverse": ((3, 4), lambda x: ad.lstm_sequence(x, *_LSTM_WEIGHTS, lengths=(2, 1),
                                                                        reverse=True)),
}


def check_primitive(name: str, rng, points: int) -> float:
    """Worst ``check_gradients`` error of primitive case ``name`` over
    ``points`` random inputs drawn from ``rng``."""
    shape, op = PRIMITIVE_CASES[name]
    worst = 0.0
    for _ in range(points):
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        worst = max(worst, ad.check_gradients(lambda: _weighted(op, x), [x], step=1e-6))
    return worst


def primitive_suite(seed: int = 0) -> dict[str, float]:
    """check_gradients on each primitive case at three random points."""
    rng = np.random.default_rng(seed)
    return {name: check_primitive(name, rng, points=3) for name in PRIMITIVE_CASES}


def layer_cases(rng) -> list:
    """(name, small instance with parameters drawn from ``rng``, input
    shape) for each layer type."""
    return [
        ("dense", layers.Dense(3, 2, activation="tanh", rng=rng), (4, 3)),
        ("conv", layers.Conv1DLayer(3, 2, 2, rng=rng), (5, 2)),
        ("bank", layers.ConvBank(2, 2, kernel_sizes=(1, 3), rng=rng), (5, 2)),
        ("norm", layers.LayerNorm(4), (3, 4)),
        ("mha", layers.MultiHeadAttention(8, heads=2, head_dim=4, rng=rng), (4, 8)),
        ("encoder", layers.AttentionEncoder(8, layers=2, heads=2, head_dim=4, rng=rng), (3, 8)),
        ("blstm", layers.BLSTMLayer(3, hidden=2, rng=rng), (4, 3)),
    ]


def check_layer(layer, shape, rng) -> float:
    """Worst finite-difference error over every parameter and the input of
    ``layer`` at three random points drawn from ``rng``."""
    worst = 0.0
    for _ in range(3):
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        coeffs = rng.normal(size=layer.forward(x).data.shape)

        def build():
            return ad.tsum(ad.mul(layer.forward(x), Tensor(coeffs)))

        tensors = [p for _, p in layer.parameters()] + [x]
        worst = max(worst, ad.check_gradients(build, tensors, max_coords=20, rng=rng))
    return worst


def layer_suite(seed: int = 0) -> dict[str, float]:
    """Finite-difference check over all parameters and inputs of each layer
    type (small instances, three random points each)."""
    rng = np.random.default_rng(seed)
    return {name: check_layer(layer, shape, rng) for name, layer, shape in layer_cases(rng)}


def end_to_end(seed: int = 0, config: ModelConfig | None = None,
               scenario: Scenario | None = None, coords_per_partition: int = 2) -> float:
    """Scenario-loss (S3 by default) gradient check on a 3-frame utterance:
    sample parameters from every partition and compare single coordinates
    against central differences."""
    rng = np.random.default_rng(seed)
    model = InversionModel(config or ModelConfig(), seed=seed)
    scenario = scenario or SCENARIOS["S3"]
    model.set_trainable(PARTITIONS)

    frames = 3
    mfcc = rng.normal(size=(frames, 39))
    onehot = np.zeros((frames, 39))
    onehot[np.arange(frames), rng.integers(0, 39, frames)] = 1.0
    target = Tensor(rng.normal(size=(frames, 12)))

    def build():
        inversion_pred, phoneme_pred = model.forward(mfcc, onehot)
        return scenario_loss(scenario, inversion_pred, phoneme_pred, target)

    picks = []
    for partition in PARTITIONS:
        params = list(model.partition_params(partition).values())
        chosen = rng.choice(len(params), size=min(coords_per_partition, len(params)), replace=False)
        picks.extend(params[i] for i in chosen)
    # step 1e-5: the loss is O(10), so a 1e-6 step leaves the difference
    # quotient with only ~1e-9 absolute precision, swamping small coordinates
    return ad.check_gradients(build, picks, step=1e-5, max_coords=1, rng=rng, coord_mode="largest")


def run_all(seed: int = 0) -> tuple[dict[str, float], float, bool]:
    """(per-item max relative errors, end-to-end error, everything-passed)."""
    report = {}
    report.update({f"primitive.{k}": v for k, v in primitive_suite(seed).items()})
    report.update({f"layer.{k}": v for k, v in layer_suite(seed).items()})
    e2e = end_to_end(seed)
    passed = all(v < LAYER_TOLERANCE for v in report.values()) and e2e < END_TO_END_TOLERANCE
    return report, e2e, passed
