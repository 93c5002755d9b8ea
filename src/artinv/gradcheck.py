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


def primitive_suite(seed: int = 0) -> dict[str, float]:
    """check_gradients on each tape primitive at random points."""
    rng = np.random.default_rng(seed)

    def weighted(build, x):
        y = build(x)
        w = Tensor(np.linspace(0.5, 1.5, y.data.size).reshape(y.data.shape))
        return ad.tsum(ad.mul(y, w))

    lstm_weights = (Tensor(np.linspace(-1, 1, 32).reshape(4, 8)), Tensor(np.linspace(1, -0.5, 16).reshape(2, 8)),
                    Tensor(np.linspace(-0.3, 0.3, 8)))
    attention_v = Tensor(np.linspace(1, -1, 16).reshape(4, 4))
    cases = {
        "add": lambda x: ad.add(x, Tensor(np.ones_like(x.data))),
        "mul": lambda x: ad.mul(x, Tensor(np.full_like(x.data, 1.5))),
        "linear": lambda x: ad.linear(x, Tensor(np.linspace(-1, 1, 12).reshape(4, 3)),
                                      Tensor(np.array([0.1, 0.0, -0.2])), activation="tanh"),
        "squared_error": lambda x: ad.squared_error(x, Tensor(np.linspace(-1, 1, 12).reshape(3, 4))),
        "conv1d": lambda x: ad.conv1d(x, Tensor(np.linspace(-1, 1, 24).reshape(2, 4, 3)),
                                      Tensor(np.array([0.1, -0.2]))),
        "layer_norm": lambda x: ad.layer_norm(x, Tensor(np.linspace(0.5, 1.5, 4)), Tensor(np.linspace(-1, 1, 4)),
                                              1e-5),
        "concat": lambda x: ad.concat([x, ad.mul(x, x)], axis=-1),
        "attention": lambda x: ad.attention(x, ad.mul(x, x), ad.linear(x, attention_v), heads=2),
        "lstm_sequence": lambda x: ad.lstm_sequence(x, *lstm_weights, hidden=2),
        # two sequences of 1 and 2 frames packed along the frame axis
        "conv1d_packed": lambda x: ad.conv1d(x, Tensor(np.linspace(-1, 1, 24).reshape(2, 4, 3)),
                                             Tensor(np.array([0.1, -0.2])), lengths=(1, 2)),
        "tmean_packed": lambda x: ad.tmean(x, lengths=(1, 2)),
        "attention_packed": lambda x: ad.attention(x, ad.mul(x, x), ad.linear(x, attention_v), heads=2, lengths=(1, 2)),
        "lstm_sequence_packed": lambda x: ad.lstm_sequence(x, *lstm_weights, hidden=2, lengths=(2, 1),
                                                           reverse=True),
    }
    results = {}
    for name, op in cases.items():
        worst = 0.0
        for _ in range(3):
            x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
            worst = max(worst, ad.check_gradients(lambda: weighted(op, x), [x], step=1e-6))
        results[name] = worst
    return results


def layer_suite(seed: int = 0) -> dict[str, float]:
    """Finite-difference check over all parameters and inputs of each layer
    type (small instances, three random points each)."""
    rng = np.random.default_rng(seed)
    cases = [
        ("dense", layers.Dense(3, 2, activation="tanh", rng=rng), (4, 3)),
        ("conv1d_layer", layers.Conv1DLayer(3, 2, 2, rng=rng), (5, 2)),
        ("conv_bank", layers.ConvBank(2, 2, kernel_sizes=(1, 3, 5), rng=rng), (6, 2)),
        ("layer_norm", layers.LayerNorm(4), (3, 4)),
        ("attention", layers.MultiHeadAttention(8, heads=2, head_dim=4, rng=rng), (4, 8)),
        ("attention_stack", layers.AttentionEncoder(8, layers=2, heads=2, head_dim=4, rng=rng), (3, 8)),
        ("blstm", layers.BLSTMLayer(3, hidden=2, rng=rng), (4, 3)),
    ]
    results = {}
    for name, layer, shape in cases:
        worst = 0.0
        for _ in range(3):
            x = Tensor(rng.normal(size=shape), requires_grad=True)
            coeffs = rng.normal(size=layer.forward(x).data.shape)

            def build():
                return ad.tsum(ad.mul(layer.forward(x), Tensor(coeffs)))

            tensors = [p for _, p in layer.parameters()] + [x]
            worst = max(worst, ad.check_gradients(build, tensors, max_coords=12, rng=rng))
        results[name] = worst
    return results


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
