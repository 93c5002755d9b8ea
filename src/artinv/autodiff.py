"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation records its parent tensors and a vector-Jacobian-product
closure on the result tensor; ``backward`` linearizes the recorded graph
into reverse topological order and replays the adjoints, accumulating
gradients additively wherever a tensor is used more than once.  It
consumes the graph as it goes: each node's adjoint, parent links and
gradient are dropped once used, so only the leaves keep gradients.  It
can hand each leaf to a callback as soon as the leaf's gradient is final
(the optimizer's per-parameter update).

The sequence primitives (``conv1d``, ``attention``, ``lstm_sequence``)
and the loss (``squared_error``) take optional segment ``lengths``:
several sequences packed along the frame axis of one [sum(T), .] array,
each processed as if alone.  Every other op works per frame and needs no
lengths.  All arithmetic is 64-bit and single-threaded, so identical
inputs produce bitwise identical outputs and gradients.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from .errors import NumericalError


class ShapeError(ValueError):
    """Operand shapes do not conform for the attempted operation."""


_grad_enabled = True


@contextmanager
def no_grad():
    """Suppress graph recording inside the block (forward-only evaluation)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """N-dimensional float64 array participating in the gradient tape."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp", "_op")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._vjp = None
        self._op = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(()))

    def zero_grad(self):
        self.grad = None

    def backward(self):
        backward(self)

    def __repr__(self):
        grad = ", grad" if self.grad is not None else ""
        return f"Tensor(shape={self.data.shape}, op={self._op}{grad})"


def _as_tensor(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def _make(data, op: str, parents, vjp) -> Tensor:
    """Wrap an op result; record parents + adjoint only when grads are live."""
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
        out._op = op
    return out


# -- elementwise primitives ---------------------------------------------

def add(a, b) -> Tensor:
    """Elementwise sum of two tensors of one shape."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add: shapes {a.data.shape} and {b.data.shape} differ")
    return _make(a.data + b.data, "add", (a, b), lambda g: (g, g))


def mul(a, b) -> Tensor:
    """Elementwise product of ``a`` and ``b``: a tensor of ``a``'s shape, or a
    constant scalar (a loss weight or scale), which takes no gradient."""
    a, b = _as_tensor(a), _as_tensor(b)
    scalar = b.data.ndim == 0 and not b.requires_grad
    if a.data.shape != b.data.shape and not scalar:
        raise ShapeError(f"mul: shapes {a.data.shape} and {b.data.shape} differ and the second is no constant scalar")

    def vjp(g):
        return g * b.data, None if scalar else g * a.data

    return _make(a.data * b.data, "mul", (a, b), vjp)


# -- dense layers and the loss ---------------------------------------------

def linear(x, w, b=None, activation=None) -> Tensor:
    """Per-frame affine map of a [T, in] input: ``x @ w``, then ``+ b`` for a
    [out] bias, then ``tanh`` when ``activation`` is "tanh".  One tape node
    (the fusion of ``torch.nn.functional.linear`` and its activation); its
    adjoint chains the adjoints of the three ops in order, so it matches one
    node per op bit for bit."""
    x, w = _as_tensor(x), _as_tensor(w)
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ShapeError(f"linear: expects x [T, in] and w [in, out], got {x.data.shape} and {w.data.shape}")
    if activation not in (None, "tanh"):
        raise ValueError(f"linear: unknown activation {activation!r}")
    y = x.data @ w.data
    if b is not None:
        b = _as_tensor(b)
        if b.data.shape != w.data.shape[1:]:
            raise ShapeError(f"linear: bias shape {b.data.shape} does not match {w.data.shape[1]} outputs")
        y += b.data
    if activation == "tanh":
        np.tanh(y, out=y)

    def vjp(g):
        if activation == "tanh":
            g = g * (1.0 - y * y)
        g_b = () if b is None else (g.sum(axis=0),)
        return (g @ w.data.T, x.data.T @ g) + g_b

    return _make(y, "linear", (x, w) if b is None else (x, w, b), vjp)


def squared_error(pred, target, lengths=None) -> Tensor:
    """Per segment of ``lengths`` (one segment by default), the mean over
    its frames of the squared error of two [T, C] tensors summed over the C
    channels, as [segments, 1].  A mean rather than a sum, so utterance
    length does not rescale the step; each segment reduces only its own
    frames, so a non-finite value stays in its segment's result.  One tape
    node; its adjoint chains the adjoints of the difference, the square,
    the channel sum and the segment mean in order, so it matches one node
    per op bit for bit."""
    pred, target = _as_tensor(pred), _as_tensor(target)
    if pred.data.ndim != 2 or pred.data.shape != target.data.shape:
        raise ShapeError(f"squared_error: prediction shape {pred.data.shape} != target shape {target.data.shape}")
    lens = _segments(lengths, pred.data.shape[0], "squared_error")
    starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
    counts = lens.reshape(-1, 1)
    d = pred.data - target.data

    def vjp(g):
        g_d = (np.repeat(g / counts, lens, axis=0) * 2.0) * d
        return g_d, -g_d

    frame_errors = (d * d).sum(axis=1, keepdims=True)
    return _make(np.add.reduceat(frame_errors, starts, axis=0) / counts, "squared_error", (pred, target), vjp)


# -- structure and reductions ----------------------------------------------

def concat(tensors) -> Tensor:
    """Join [T, C_i] tensors along the feature axis into [T, sum(C_i)]."""
    parts = [_as_tensor(t) for t in tensors]
    shapes = [p.data.shape for p in parts]
    if not parts or any(len(shape) != 2 or shape[0] != shapes[0][0] for shape in shapes):
        raise ShapeError(f"concat: expects [T, C] tensors of one T, got shapes {shapes}")
    offsets = np.cumsum([shape[1] for shape in shapes])[:-1]

    def vjp(g):
        return tuple(np.split(g, offsets, axis=1))

    return _make(np.concatenate([p.data for p in parts], axis=1), "concat", parts, vjp)


def _segments(lengths, frames: int, op: str) -> np.ndarray:
    """Validated segment lengths of a [sum(lengths), ...] packed array; the
    default is one segment spanning all ``frames`` rows."""
    if lengths is None:
        if frames < 1:
            raise ShapeError(f"{op}: input has no frames")
        return np.array([frames])
    lens = np.asarray(lengths)
    if lens.ndim != 1 or lens.size < 1 or lens.dtype.kind not in "iu" or np.any(lens < 1) \
            or int(lens.sum()) != frames:
        raise ShapeError(f"{op}: segment lengths {lengths!r} must be positive integers summing to {frames}")
    return lens


def tsum(x) -> Tensor:
    """Sum of all elements, as a scalar."""
    x = _as_tensor(x)

    def vjp(g):
        return (np.broadcast_to(g, x.data.shape).copy(),)

    return _make(x.data.sum(), "tsum", (x,), vjp)


def layer_norm(x, gain, offset, epsilon: float) -> Tensor:
    """Per-row normalization of a [T, D] input over its D features with a
    [D] gain and offset (Ba et al. 2016): ``(x - mean) / sqrt(var + epsilon)
    * gain + offset``.  One tape node; its adjoint chains the adjoints of the
    formula's ops in order, so it matches one node per op bit for bit."""
    x, gain, offset = _as_tensor(x), _as_tensor(gain), _as_tensor(offset)
    if x.data.ndim != 2 or gain.data.shape != x.data.shape[1:] or offset.data.shape != gain.data.shape:
        raise ShapeError(f"layer_norm: expects x [T, D] with gain and offset [D], got "
                         f"{x.data.shape}, {gain.data.shape} and {offset.data.shape}")
    dim = x.data.shape[1]
    c = x.data - x.data.mean(axis=-1, keepdims=True)
    s = np.sqrt((c * c).mean(axis=-1, keepdims=True) + epsilon)
    n = c / s

    def vjp(g):
        g_n = g * gain.data
        g_var = ((-g_n * c) / (s * s)).sum(axis=-1, keepdims=True) * 0.5 / s
        g_c = g_n / s + (g_var / dim) * 2.0 * c
        g_x = g_c + (-g_c).sum(axis=-1, keepdims=True) / dim
        return g_x, (g * n).sum(axis=0), g.sum(axis=0)

    return _make(n * gain.data + offset.data, "layer_norm", (x, gain, offset), vjp)


def conv1d(x, w, b=None, lengths=None) -> Tensor:
    """Length-preserving 1-D cross-correlation over the time axis.

    ``x`` is [T, C_in], ``w`` is [C_out, C_in, K] with K odd, ``b`` is
    [C_out] or None.  The input gets (K - 1) / 2 zero rows at each end, and
    no kernel flip is applied: output
    ``y[t, o] = b[o] + sum_{c,k} w[o, c, k] * x_padded[t + k, c]``.
    With ``lengths``, ``x`` packs several sequences along T and each one is
    padded on its own, so no window reads across a boundary.
    """
    x, w = _as_tensor(x), _as_tensor(w)
    if x.data.ndim != 2 or w.data.ndim != 3:
        raise ShapeError(f"conv1d: expects x [T, C_in] and w [C_out, C_in, K], got {x.data.shape} and {w.data.shape}")
    t_in, c_in = x.data.shape
    c_out, c_in_w, k = w.data.shape
    if c_in != c_in_w:
        raise ShapeError(f"conv1d: input has {c_in} channels but kernel expects {c_in_w}")
    if k % 2 == 0:
        raise ShapeError(f"conv1d: kernel size must be odd, got {k}")
    pad = (k - 1) // 2
    lens = _segments(lengths, t_in, "conv1d")

    parents = [x, w]
    if b is not None:
        b = _as_tensor(b)
        if b.data.shape != (c_out,):
            raise ShapeError(f"conv1d: bias shape {b.data.shape} does not match {c_out} output channels")
        parents.append(b)

    # segment s occupies T_s + 2 pad rows of the padded input, its frames
    # after its first pad rows; output t's window starts pad rows before t
    seg = np.repeat(np.arange(lens.size), lens)
    rows_in = np.arange(t_in) + pad * (2 * seg + 1)
    rows_out = rows_in - pad
    xp = np.zeros((t_in + 2 * pad * lens.size, c_in))
    xp[rows_in] = x.data
    windows = np.lib.stride_tricks.sliding_window_view(xp, k, axis=0)[rows_out]  # [T, C_in, K]
    y = np.tensordot(windows, w.data, axes=([1, 2], [1, 2]))
    if b is not None:
        y = y + b.data

    def vjp(g):
        gw = np.tensordot(g, windows, axes=(0, 0))  # [C_out, C_in, K]
        g_all = np.zeros((xp.shape[0] - k + 1, c_out))
        g_all[rows_out] = g
        gwin = np.lib.stride_tricks.sliding_window_view(np.pad(g_all, ((k - 1, k - 1), (0, 0))), k, axis=0)
        gx = np.tensordot(gwin, w.data[:, :, ::-1], axes=([1, 2], [0, 2]))[rows_in]
        if b is not None:
            return gx, gw, g.sum(axis=0)
        return gx, gw

    return _make(y, "conv1d", parents, vjp)


def _sigmoid_(a: np.ndarray) -> None:
    """In-place logistic function, 1 / (1 + exp(-a))."""
    np.negative(a, out=a)
    np.exp(a, out=a)
    a += 1.0
    np.reciprocal(a, out=a)


def lstm_sequence(x, wx, wh, b, lengths=None, reverse: bool = False) -> Tensor:
    """Single-direction LSTM over a [T, D] sequence with H = ``wh``'s row
    count; returns the [T, H] hidden-state trajectory from zero initial
    state.

    Fused primitive: gates use the (input, forget, candidate, output) block
    order in the [D, 4H] / [H, 4H] matrices, sigmoid for i/f/o and tanh for
    the candidate.  The adjoint is backprop-through-time with the weight
    gradients formed as whole-sequence GEMMs, which is why this is one tape
    node instead of ~15 per step.

    With ``lengths``, ``x`` packs several sequences along T, each run from
    its own zero state.  ``reverse`` runs every sequence from its last frame
    to its first; the output stays in input order.  The recurrence runs
    time-major on the sequences still active at each step, longest first
    (the packed layout of Appleyard et al. 2016 and PyTorch's
    ``pack_padded_sequence``), so no padded step is computed or stored.
    """
    x, wx, wh, b = _as_tensor(x), _as_tensor(wx), _as_tensor(wh), _as_tensor(b)
    if x.data.ndim != 2 or x.data.shape[0] < 1 or wh.data.ndim != 2:
        raise ShapeError(f"lstm_sequence: expects x [T, D] with T >= 1 and wh [H, 4H], got {x.data.shape} "
                         f"and {wh.data.shape}")
    (frames, in_dim), hidden = x.data.shape, wh.data.shape[0]
    if (wx.data.shape, wh.data.shape, b.data.shape) != ((in_dim, 4 * hidden), (hidden, 4 * hidden), (4 * hidden,)):
        raise ShapeError(f"lstm_sequence: wx, wh and bias shapes {wx.data.shape}, {wh.data.shape} and {b.data.shape} "
                         f"are not ({in_dim}, {4 * hidden}), ({hidden}, {4 * hidden}) and ({4 * hidden},)")
    lens = _segments(lengths, frames, "lstm_sequence")

    # packed position p holds (step t_of[p], sequence order[rank[p]]); each
    # step's block lists the sequences still running, longest first
    order = np.argsort(-lens, kind="stable")
    sorted_lens = lens[order]
    t_of, rank = np.nonzero(np.arange(sorted_lens[0])[:, None] < sorted_lens[None, :])
    batch = np.bincount(t_of).tolist()
    start = np.concatenate(([0], np.cumsum(batch)))  # first position of each step
    seq = order[rank]
    offsets = np.concatenate(([0], np.cumsum(lens)[:-1]))
    perm = offsets[seq] + (lens[seq] - 1 - t_of if reverse else t_of)  # input row of each position
    prev = start[t_of[batch[0]:] - 1] + rank[batch[0]:]  # position of the previous step, steps >= 1
    start = start.tolist()

    gates = x.data[perm] @ wx.data
    gates += b.data
    cells = np.empty((frames, hidden))
    states = np.empty((frames, hidden))
    cand_scratch = np.empty((batch[0], hidden))
    wh_data = wh.data
    for t, n in enumerate(batch):
        lo, hi = start[t], start[t] + n
        z = gates[lo:hi]
        if t:
            before = start[t - 1]
            z += states[before:before + n] @ wh_data
        # one sigmoid pass over the whole gate row; the candidate's tanh is
        # taken first and put back over the sigmoid written into its slot
        cand = z[:, 2 * hidden:3 * hidden]
        tanh_cand = np.tanh(cand, out=cand_scratch[:n])
        _sigmoid_(z)
        cand[...] = tanh_cand
        c = cells[lo:hi]
        np.multiply(z[:, :hidden], cand, out=c)
        if t:
            c += z[:, hidden:2 * hidden] * cells[before:before + n]
        h = states[lo:hi]
        np.tanh(c, out=h)
        h *= z[:, 3 * hidden:]
    out = np.empty((frames, hidden))
    out[perm] = states
    del states

    def vjp(g):
        gate_i, gate_f = gates[:, :hidden], gates[:, hidden:2 * hidden]
        cand, gate_o = gates[:, 2 * hidden:3 * hidden], gates[:, 3 * hidden:]
        tanh_c = np.tanh(cells)
        c_before = np.zeros((frames, hidden))
        c_before[batch[0]:] = cells[prev]
        # per-step factors of the gate adjoints, vectorised over all steps:
        # dz = (dc, dc, dc, dh) * factors, and dc = dh * through_o + dc_next
        factors = np.empty((frames, 4, hidden))
        factors[:, 0] = cand * gate_i * (1.0 - gate_i)
        factors[:, 1] = c_before * gate_f * (1.0 - gate_f)
        factors[:, 2] = gate_i * (1.0 - cand * cand)
        factors[:, 3] = tanh_c * gate_o * (1.0 - gate_o)
        through_o = gate_o * (1.0 - tanh_c * tanh_c)
        del tanh_c, c_before

        dh_all = g[perm]
        dz = np.empty((frames, 4 * hidden))
        dz3 = dz.reshape(frames, 4, hidden)
        wh_t = wh_data.T
        dh_next = dc_next = None
        for t in range(len(batch) - 1, -1, -1):
            lo, hi = start[t], start[t] + batch[t]
            dh = dh_all[lo:hi]
            if dh_next is not None:
                dh[:len(dh_next)] += dh_next
            dc = dh * through_o[lo:hi]
            if dc_next is not None:
                dc[:len(dc_next)] += dc_next
            np.multiply(factors[lo:hi, :3], dc[:, None, :], out=dz3[lo:hi, :3])
            np.multiply(factors[lo:hi, 3], dh, out=dz3[lo:hi, 3])
            if t:
                dh_next = dz[lo:hi] @ wh_t
                dc_next = dc * gate_f[lo:hi]
        dz_in = np.empty_like(dz)
        dz_in[perm] = dz
        g_wh = out[perm[prev]].T @ dz[batch[0]:]
        return dz_in @ wx.data.T, x.data.T @ dz_in, g_wh, dz.sum(axis=0)

    return _make(out, "lstm_sequence", (x, wx, wh, b), vjp)


def _split_heads(a: np.ndarray, heads: int) -> np.ndarray:
    """[T, heads * d] -> [heads, T, d] view (head h owns column block h)."""
    return a.reshape(a.shape[0], heads, -1).swapaxes(0, 1)


def _merge_heads(a: np.ndarray) -> np.ndarray:
    """[heads, T, d] -> [T, heads * d], the inverse of ``_split_heads``."""
    return a.swapaxes(0, 1).reshape(a.shape[1], -1)


def _attention_weights(q: np.ndarray, k: np.ndarray, heads: int) -> np.ndarray:
    """Per-head softmax(q_h k_h^T / sqrt(d)) over the last axis, [heads, T, T]."""
    qh, kh = _split_heads(q, heads), _split_heads(k, heads)
    scores = np.matmul(qh, kh.swapaxes(-1, -2)) * (1.0 / math.sqrt(qh.shape[-1]))
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def attention(q, k, v, heads: int, lengths=None) -> Tensor:
    """Multi-head scaled dot-product attention over [T, heads * d] projections.

    Head h attends with the weights softmax(q_h k_h^T / sqrt(d)) of its
    column block and returns weights @ v_h; the heads' contexts come back
    side by side as [T, heads * d_v].  Fused primitive: all heads run as
    batched matmuls on [heads, T, d] views (Vaswani et al. 2017, section
    3.2.2), so a whole attention layer is one tape node.  With ``lengths``,
    the rows pack several sequences and each attends only within itself.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if q.data.ndim != 2 or q.data.shape != k.data.shape or v.data.ndim != 2 \
            or v.data.shape[0] != q.data.shape[0] or q.data.shape[0] < 1:
        raise ShapeError(f"attention: expects q, k [T, H*d] and v [T, H*d_v] with T >= 1, got "
                         f"{q.data.shape}, {k.data.shape} and {v.data.shape}")
    if heads < 1 or q.data.shape[1] % heads or v.data.shape[1] % heads:
        raise ShapeError(f"attention: {heads} heads do not split widths {q.data.shape[1]} and {v.data.shape[1]}")
    lens = _segments(lengths, q.data.shape[0], "attention")
    bounds = np.concatenate(([0], np.cumsum(lens))).tolist()
    spans = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    scale = 1.0 / math.sqrt(q.data.shape[1] // heads)
    weights = [_attention_weights(q.data[s], k.data[s], heads) for s in spans]
    out = np.empty(v.data.shape)
    for s, w in zip(spans, weights):
        out[s] = _merge_heads(np.matmul(w, _split_heads(v.data[s], heads)))

    def vjp(g):
        g_q, g_k, g_v = np.empty(q.data.shape), np.empty(k.data.shape), np.empty(v.data.shape)
        for s, w in zip(spans, weights):
            qh, kh, vh, gh = (_split_heads(a[s], heads) for a in (q.data, k.data, v.data, g))
            g_weights = np.matmul(gh, vh.swapaxes(-1, -2))
            g_v[s] = _merge_heads(np.matmul(w.swapaxes(-1, -2), gh))
            dot = (g_weights * w).sum(axis=-1, keepdims=True)
            g_scores = w * (g_weights - dot) * scale
            g_q[s] = _merge_heads(np.matmul(g_scores, kh))
            g_k[s] = _merge_heads(np.matmul(qh.swapaxes(-1, -2), g_scores).swapaxes(-1, -2))
        return g_q, g_k, g_v

    return _make(out, "attention", (q, k, v), vjp)


# -- backward pass --------------------------------------------------------

def _topo_order(loss: Tensor):
    """Iterative post-order over the recorded graph (graphs outgrow the
    recursion limit for long sequences)."""
    order = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))
    return order


def backward(loss: Tensor, on_leaf=None):
    """Populate ``grad`` on every requires-grad leaf reachable from ``loss``.

    The graph is consumed: once a node's adjoint has run, its ``grad``,
    adjoint closure and parent links are dropped, so the arrays the tape
    saved are released as the pass runs and a graph can be replayed once.

    ``on_leaf(leaf)``, when given, is called once per requires-grad leaf,
    right after the last tape edge into it has added its contribution: the
    leaf's gradient is then final, no adjoint still to run reads the leaf,
    and the callback may update ``leaf.data`` in place or drop ``leaf.grad``.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return
    order = _topo_order(loss)
    edges_left = {}  # id(leaf) -> tape edges into it not yet replayed
    if on_leaf is not None:
        for node in order:
            for parent in node._parents:
                if parent.requires_grad and parent._vjp is None:
                    edges_left[id(parent)] = edges_left.get(id(parent), 0) + 1
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._vjp is None:
            continue
        grads = node._vjp(node.grad)
        parents = node._parents
        node.grad = node._vjp = None
        node._parents = ()
        for parent, g in zip(parents, grads):
            if not parent.requires_grad:
                continue
            # accumulation rebinds rather than mutating, so aliased arrays
            # coming out of a vjp are safe to hold
            if g is not None:
                parent.grad = g if parent.grad is None else parent.grad + g
            if id(parent) in edges_left:
                edges_left[id(parent)] -= 1
                if not edges_left[id(parent)]:
                    on_leaf(parent)


def check_gradients(build_loss, tensors, step: float = 1e-6, max_coords=None, rng=None,
                    coord_mode: str = "random") -> float:
    """Finite-difference check for gradients landing on existing tensors.

    ``build_loss`` reconstructs the scalar loss from current tensor contents
    each time it is called; ``tensors`` are the requires-grad leaves to check
    (layer parameters, inputs).  Coordinates are perturbed in place and
    restored.  When ``max_coords`` is set, that many coordinates per tensor
    are sampled with ``rng`` (coord_mode "random"), or the largest-gradient
    coordinates are taken (coord_mode "largest" - sidesteps the difference
    quotient's roundoff floor on near-zero coordinates).  Returns the max
    over checked coordinates of
    ``|analytic - numeric| / max(|analytic|, |numeric|, 1e-12)``.
    """
    if not (0.0 < step <= 1e-3):
        raise ValueError(f"check_gradients: step {step} outside (0, 1e-3]")
    tensors = list(tensors)
    for t in tensors:
        t.zero_grad()
    loss = build_loss()
    backward(loss)

    worst = 0.0
    with no_grad():
        for t in tensors:
            analytic = np.zeros_like(t.data) if t.grad is None else t.grad
            flat = t.data.reshape(-1)
            n = flat.size
            if max_coords is None or n <= max_coords:
                coords = range(n)
            elif coord_mode == "largest":
                coords = np.argsort(np.abs(analytic.reshape(-1)))[-max_coords:]
            else:
                coords = rng.choice(n, size=max_coords, replace=False)
            for i in coords:
                orig = flat[i]
                flat[i] = orig + step
                hi = build_loss().item()
                flat[i] = orig - step
                lo = build_loss().item()
                flat[i] = orig
                numeric = (hi - lo) / (2.0 * step)
                a = analytic.reshape(-1)[i]
                if not (np.isfinite(numeric) and np.isfinite(a)):
                    raise NumericalError(f"check_gradients: non-finite value at coordinate {i}")
                err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-12)
                worst = max(worst, err)
    return worst
