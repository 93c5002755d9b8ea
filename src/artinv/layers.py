"""Parametric layers: convolution bank, multi-head attention, layer
normalization, bidirectional LSTM, dense layers, and the Adam optimizer.

Layers hold their parameters as requires-grad tensors and expose
``parameters()`` as (name, tensor) pairs; forward passes build the
gradient tape through the autodiff primitives.  The sequence layers
(convolution, attention, BLSTM) take optional segment ``lengths`` for
inputs that pack several sequences along the frame axis.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor


def uniform_init(rng: np.random.Generator | None, shape, fan_in: int) -> Tensor:
    """U(-1/sqrt(fan_in), 1/sqrt(fan_in)) draws, or zeros without ``rng``."""
    if rng is None:
        return Tensor(np.zeros(shape), requires_grad=True)
    limit = 1.0 / math.sqrt(fan_in)
    return Tensor(rng.uniform(-limit, limit, size=shape), requires_grad=True)


def named_parameters(children):
    """(prefix.name, tensor) for each parameter of each (prefix, layer) pair
    of ``children``, in order."""
    for prefix, child in children:
        for name, p in child.parameters():
            yield f"{prefix}.{name}", p


class Dense:
    """Per-frame affine map [T, in] -> [T, out] with optional activation."""

    def __init__(self, in_dim: int, out_dim: int, activation=None, rng=None):
        self.activation = activation  # None or "tanh", as ``autodiff.linear`` takes it
        self.weight = uniform_init(rng, (in_dim, out_dim), in_dim)
        self.bias = uniform_init(rng, (out_dim,), in_dim)

    def parameters(self):
        yield "weight", self.weight
        yield "bias", self.bias

    def forward(self, x: Tensor) -> Tensor:
        return ad.linear(x, self.weight, self.bias, self.activation)


class Conv1DLayer:
    """Length-preserving 1-D convolution branch (zero same-padding)."""

    def __init__(self, kernel_size: int, in_channels: int, out_channels: int, rng=None):
        if kernel_size < 1 or kernel_size % 2 == 0:
            raise ShapeError(f"kernel size must be odd and positive, got {kernel_size}")
        self.kernel_size = kernel_size
        self.in_channels = in_channels
        self.out_channels = out_channels
        fan_in = in_channels * kernel_size
        self.weight = uniform_init(rng, (out_channels, in_channels, kernel_size), fan_in)
        self.bias = uniform_init(rng, (out_channels,), fan_in)

    def parameters(self):
        yield "weight", self.weight
        yield "bias", self.bias

    def forward(self, x: Tensor, lengths=None) -> Tensor:
        return ad.conv1d(x, self.weight, self.bias, lengths)


class ConvBank:
    """Parallel multi-scale convolution branches concatenated by ascending
    kernel size; output is [T, len(kernel_sizes) * channels_per_branch]."""

    def __init__(self, in_channels: int, channels_per_branch: int, kernel_sizes, rng=None):
        self.kernel_sizes = tuple(sorted(kernel_sizes))
        self.branches = [
            Conv1DLayer(k, in_channels, channels_per_branch, rng=rng)
            for k in self.kernel_sizes
        ]

    def parameters(self):
        return named_parameters((f"k{k}", branch) for k, branch in zip(self.kernel_sizes, self.branches))

    def forward(self, x: Tensor, lengths=None) -> Tensor:
        return ad.concat([branch.forward(x, lengths) for branch in self.branches])


LAYER_NORM_EPSILON = 1e-5


class LayerNorm:
    """Per-frame normalization over the feature axis with learned gain/offset."""

    def __init__(self, dim: int):
        self.dim = dim
        self.gain = Tensor(np.ones(dim), requires_grad=True)
        self.offset = Tensor(np.zeros(dim), requires_grad=True)

    def parameters(self):
        yield "gain", self.gain
        yield "offset", self.offset

    def forward(self, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self.gain, self.offset, LAYER_NORM_EPSILON)


class MultiHeadAttention:
    """Scaled dot-product self-attention with per-head projections fused into
    [model_dim, heads * head_dim] matrices, one ``attention`` tape node for
    all heads, one output projection, and a residual add."""

    def __init__(self, model_dim: int, heads: int, head_dim: int, rng=None):
        if heads * head_dim != model_dim:
            raise ShapeError(f"model dim {model_dim} must equal heads*head_dim = {heads * head_dim}")
        self.model_dim = model_dim
        self.heads = heads
        self.head_dim = head_dim
        self.wq = uniform_init(rng, (model_dim, model_dim), model_dim)
        self.wk = uniform_init(rng, (model_dim, model_dim), model_dim)
        self.wv = uniform_init(rng, (model_dim, model_dim), model_dim)
        self.wo = uniform_init(rng, (model_dim, model_dim), model_dim)

    def parameters(self):
        yield "wq", self.wq
        yield "wk", self.wk
        yield "wv", self.wv
        yield "wo", self.wo

    def forward(self, x: Tensor, lengths=None) -> Tensor:
        """Attention within each of the ``lengths`` segments of ``x`` (one
        segment by default)."""
        if x.data.shape[-1] != self.model_dim:
            raise ShapeError(f"attention: expected feature dim {self.model_dim}, got {x.data.shape[-1]}")
        q, k, v = (ad.linear(x, w) for w in (self.wq, self.wk, self.wv))
        return ad.add(x, ad.linear(ad.attention(q, k, v, self.heads, lengths), self.wo))


class AttentionEncoder:
    """Chained attention layers followed by a single layer norm; produces the
    global feature view of the input sequence."""

    def __init__(self, model_dim: int, layers: int, heads: int, head_dim: int, rng=None):
        self.model_dim = model_dim
        self.layers = [MultiHeadAttention(model_dim, heads, head_dim, rng=rng) for _ in range(layers)]
        self.norm = LayerNorm(model_dim)

    def parameters(self):
        return named_parameters([(f"attn{i}", layer) for i, layer in enumerate(self.layers)] + [("norm", self.norm)])

    def forward(self, x: Tensor, lengths=None) -> Tensor:
        for layer in self.layers:
            x = layer.forward(x, lengths)
        return self.norm.forward(x)


class _LSTMCell:
    """Single-direction LSTM with standard input/forget/output gates and tanh
    candidate; gate blocks are ordered (i, f, g, o) in the fused matrices."""

    def __init__(self, input_dim: int, hidden: int, rng=None):
        self.wx = uniform_init(rng, (input_dim, 4 * hidden), input_dim)
        self.wh = uniform_init(rng, (hidden, 4 * hidden), hidden)
        self.bias = uniform_init(rng, (4 * hidden,), hidden)

    def parameters(self):
        yield "wx", self.wx
        yield "wh", self.wh
        yield "bias", self.bias

    def run(self, x: Tensor, lengths=None, reverse: bool = False) -> Tensor:
        return ad.lstm_sequence(x, self.wx, self.wh, self.bias, lengths, reverse)


class BLSTMLayer:
    """Bidirectional LSTM: per frame the forward state and the backward state
    (the second cell run from each sequence's last frame to its first) are
    concatenated, giving [T, 2 * hidden]."""

    def __init__(self, input_dim: int, hidden: int, rng=None):
        self.input_dim = input_dim
        self.hidden = hidden
        self.fw = _LSTMCell(input_dim, hidden, rng=rng)
        self.bw = _LSTMCell(input_dim, hidden, rng=rng)

    def parameters(self):
        return named_parameters((("fw", self.fw), ("bw", self.bw)))

    def forward(self, x: Tensor, lengths=None) -> Tensor:
        if x.data.shape[-1] != self.input_dim:
            raise ShapeError(f"blstm: expected input dim {self.input_dim}, got {x.data.shape[-1]}")
        forward_states = self.fw.run(x, lengths)
        backward_states = self.bw.run(x, lengths, reverse=True)
        return ad.concat([forward_states, backward_states])


# Elements per Adam block: 256 KB of float64, so a block of the gradient,
# both moments, the parameter and the two scratch blocks fit in a 2 MB L2.
ADAM_BLOCK = 32768


class Adam:
    """Adam with bias correction.

    Each parameter's update allocates nothing: it walks the flattened
    parameter in blocks of ``ADAM_BLOCK`` elements and updates the moments
    and the parameter in place, through two scratch blocks made here.  Per
    element it performs the textbook operations in the textbook order, so
    its results are bitwise those of ``m = b1*m + (1-b1)*g; v = b2*v +
    (1-b2)*(g*g); p -= (lr * (m/c1)) / (sqrt(v/c2) + eps)``.  Gradients are
    only read (a vjp may hand one array to two parameters); a non-contiguous
    gradient is copied once to flatten it.

    A step can run inside backward.  ``update`` is backward's ``on_leaf``
    hook: it updates the parameter as soon as its gradient is final and
    drops the gradient, so gradients are released one parameter at a time
    instead of all being held until the pass ends.  ``step`` closes the
    step by updating, from its ``grad``, every parameter ``update`` did not
    reach (on its own, it updates them all and leaves the gradients in
    place).  Either way each parameter sees the same operations on the
    same gradient, so the result is bitwise the same.
    """

    def __init__(self, params: dict[str, Tensor], learning_rate: float = 1e-4,
                 beta1: float = 0.9, beta2: float = 0.999, epsilon: float = 1e-8):
        self.params = dict(params)
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.step_count = 0
        self._m = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self._v = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        block = min(ADAM_BLOCK, max((p.data.size for p in self.params.values()), default=0))
        self._scratch = (np.empty(block), np.empty(block))
        self._names = {id(p): name for name, p in self.params.items()}
        self._updated = set()  # names updated in the step in progress

    def update(self, p: Tensor):
        """Apply the step in progress to ``p``, one of this optimizer's
        parameters, now, from its final gradient, and drop the gradient."""
        name = self._names[id(p)]
        if name in self._updated:
            raise ValueError(f"adam: parameter {name!r} is already updated in this step")
        self._update(name, self.step_count + 1)
        p.grad = None
        self._updated.add(name)

    def step(self):
        """Close the step in progress (``finish``); a trainer calls this
        once per batch."""
        self.finish()

    def finish(self):
        """Update, from its gradient, every parameter ``update`` did not
        reach, and close the step.  A process that applies a trainer's
        updates calls this rather than ``step``, whose calls mark the
        trainer's batches."""
        t = self.step_count + 1
        for name in self.params:
            if name not in self._updated:
                self._update(name, t)
        self._updated.clear()
        self.step_count = t

    def _update(self, name: str, t: int):
        """Step ``t`` of parameter ``name`` from its gradient, block by block."""
        p = self.params[name]
        if p.grad is None:
            raise ValueError(f"adam: trainable parameter {name!r} has no gradient")
        if p.grad.shape != p.data.shape:
            raise ShapeError(f"adam: gradient of {name!r} has shape {p.grad.shape}, "
                             f"parameter {p.data.shape}")
        assert p.data.flags.c_contiguous, f"adam: parameter {name!r} is not C-contiguous"
        b1, b2, lr, eps = self.beta1, self.beta2, self.learning_rate, self.epsilon
        c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
        scratch1, scratch2 = self._scratch
        g_all = p.grad.reshape(-1)
        p_all = p.data.reshape(-1)
        m_all = self._m[name].reshape(-1)
        v_all = self._v[name].reshape(-1)
        for lo in range(0, p_all.size, ADAM_BLOCK):
            hi = lo + ADAM_BLOCK
            g, m, v, x = g_all[lo:hi], m_all[lo:hi], v_all[lo:hi], p_all[lo:hi]
            s1, s2 = scratch1[:x.size], scratch2[:x.size]
            np.multiply(m, b1, out=m)             # m = b1*m + (1-b1)*g
            np.multiply(g, 1.0 - b1, out=s1)
            np.add(m, s1, out=m)
            np.multiply(v, b2, out=v)             # v = b2*v + (1-b2)*(g*g)
            np.square(g, out=s1)
            np.multiply(s1, 1.0 - b2, out=s1)
            np.add(v, s1, out=v)
            np.divide(v, c2, out=s1)              # denom = sqrt(v/c2) + eps
            np.sqrt(s1, out=s1)
            np.add(s1, eps, out=s1)
            np.divide(m, c1, out=s2)              # p -= (lr * (m/c1)) / denom
            np.multiply(s2, lr, out=s2)
            np.divide(s2, s1, out=s2)
            np.subtract(x, s2, out=x)

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()
