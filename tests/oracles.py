"""Independent brute-force oracles shared by the test modules.

These deliberately avoid the package's vectorized code paths: plain Python
loops and scalar math, so an implementation bug cannot hide in both sides.
The one exception is ``attention_reference``, which keeps the batched
formulas the attention primitive used to run, as a bit-for-bit reference.
"""

import math

import numpy as np


def correlate_oracle(signal, kernel, pad):
    """Sliding window over the zero-padded input, no kernel flip."""
    padded = [0.0] * pad + list(signal) + [0.0] * pad
    k = len(kernel)
    out = []
    for t in range(len(padded) - k + 1):
        out.append(sum(padded[t + j] * kernel[j] for j in range(k)))
    return out


def conv_bank_oracle(x, bank):
    """Per-branch sliding-window correlation with bias, concatenated."""
    t_len, _ = x.shape
    outs = []
    for branch in bank.branches:
        k = branch.kernel_size
        pad = (k - 1) // 2
        xp = np.pad(x, ((pad, pad), (0, 0)))
        w, b = branch.weight.data, branch.bias.data
        y = np.zeros((t_len, branch.out_channels))
        for t in range(t_len):
            for o in range(branch.out_channels):
                acc = b[o]
                for j in range(k):
                    for c in range(branch.in_channels):
                        acc += w[o, c, j] * xp[t + j, c]
                y[t, o] = acc
        outs.append(y)
    return np.concatenate(outs, axis=1)


def lstm_oracle(x, wx, wh, b, hidden):
    """Step-by-step scalar transcription of the gated cell (i, f, g, o order)."""
    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    h = [0.0] * hidden
    c = [0.0] * hidden
    states = []
    for t in range(x.shape[0]):
        z = [0.0] * (4 * hidden)
        for j in range(4 * hidden):
            acc = b[j]
            for d in range(x.shape[1]):
                acc += x[t, d] * wx[d, j]
            for d in range(hidden):
                acc += h[d] * wh[d, j]
            z[j] = acc
        new_c, new_h = [], []
        for u in range(hidden):
            gate_i = sig(z[u])
            gate_f = sig(z[hidden + u])
            cand = math.tanh(z[2 * hidden + u])
            gate_o = sig(z[3 * hidden + u])
            cu = gate_f * c[u] + gate_i * cand
            new_c.append(cu)
            new_h.append(gate_o * math.tanh(cu))
        c, h = new_c, new_h
        states.append(list(h))
    return np.array(states)


def attention_oracle(q, k, v, heads):
    """Scaled dot-product attention one head and one query frame at a time:
    column block h of q/k/v is head h, scores are scaled by 1/sqrt(d), and
    the softmax uses math.exp after subtracting the row maximum."""
    frames = q.shape[0]
    d = q.shape[1] // heads
    d_v = v.shape[1] // heads
    out = np.zeros((frames, heads * d_v))
    for h in range(heads):
        for t in range(frames):
            scores = []
            for s in range(frames):
                acc = 0.0
                for j in range(d):
                    acc += q[t, h * d + j] * k[s, h * d + j]
                scores.append(acc / math.sqrt(d))
            top = max(scores)
            exps = [math.exp(score - top) for score in scores]
            total = sum(exps)
            for j in range(d_v):
                out[t, h * d_v + j] = sum(exps[s] / total * v[s, h * d_v + j] for s in range(frames))
    return out


def attention_reference(q, k, v, heads, lengths=None, g=None):
    """Attention with all heads as batched matmuls on [heads, T, d] views,
    each step a fresh array.  Returns the [T, heads * d_v] output and, when
    the output gradient ``g`` is given, the gradients of q, k and v."""
    def split(a):
        return a.reshape(a.shape[0], heads, -1).swapaxes(0, 1)

    def merge(a):
        return a.swapaxes(0, 1).reshape(a.shape[1], -1)

    lengths = [q.shape[0]] if lengths is None else lengths
    bounds = np.cumsum([0, *lengths])
    scale = 1.0 / math.sqrt(q.shape[1] // heads)
    out = np.empty(v.shape)
    grads = [np.empty(a.shape) for a in (q, k, v)]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        s = slice(lo, hi)
        qh, kh, vh = split(q[s]), split(k[s]), split(v[s])
        scores = np.matmul(qh, kh.swapaxes(-1, -2)) * scale
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        w = e / e.sum(axis=-1, keepdims=True)
        out[s] = merge(np.matmul(w, vh))
        if g is not None:
            gh = split(g[s])
            g_weights = np.matmul(gh, vh.swapaxes(-1, -2))
            grads[2][s] = merge(np.matmul(w.swapaxes(-1, -2), gh))
            dot = (g_weights * w).sum(axis=-1, keepdims=True)
            g_scores = w * (g_weights - dot) * scale
            grads[0][s] = merge(np.matmul(g_scores, kh))
            grads[1][s] = merge(np.matmul(qh.swapaxes(-1, -2), g_scores).swapaxes(-1, -2))
    return out if g is None else (out, *grads)


def layer_norm_oracle(x, gain, offset, epsilon):
    """Each row normalized by its own mean and variance over the features,
    one scalar at a time with math.sqrt, then scaled and shifted."""
    out = np.zeros(x.shape)
    for t in range(x.shape[0]):
        row = [float(v) for v in x[t]]
        mean = sum(row) / len(row)
        var = sum((v - mean) ** 2 for v in row) / len(row)
        std = math.sqrt(var + epsilon)
        for d, v in enumerate(row):
            out[t, d] = (v - mean) / std * gain[d] + offset[d]
    return out


def linear_oracle(x, w, b=None, activation=None):
    """Each output a scalar dot product of a row of x with a column of w,
    plus the bias, through math.tanh when the activation is tanh."""
    out = np.zeros((x.shape[0], w.shape[1]))
    for t in range(x.shape[0]):
        for o in range(w.shape[1]):
            acc = 0.0 if b is None else float(b[o])
            for i in range(w.shape[0]):
                acc += x[t, i] * w[i, o]
            out[t, o] = math.tanh(acc) if activation == "tanh" else acc
    return out


def squared_error_oracle(pred, target, lengths=None):
    """Per segment of ``lengths`` (all frames by default), the mean over its
    frames of the sum over channels of the squared difference, [segments, 1]."""
    lengths = [pred.shape[0]] if lengths is None else lengths
    out = np.zeros((len(lengths), 1))
    start = 0
    for s, n in enumerate(lengths):
        total = 0.0
        for t in range(start, start + n):
            total += sum((pred[t, c] - target[t, c]) ** 2 for c in range(pred.shape[1]))
        out[s, 0] = total / n
        start += n
    return out


def rmse_oracle(pred, target):
    out = []
    for c in range(pred.shape[1]):
        acc = 0.0
        for t in range(pred.shape[0]):
            acc += (pred[t, c] - target[t, c]) ** 2
        out.append(math.sqrt(acc / pred.shape[0]))
    return np.array(out)


def pearson_oracle(pred, target):
    out = []
    for c in range(pred.shape[1]):
        n = pred.shape[0]
        mp = sum(pred[t, c] for t in range(n)) / n
        mt = sum(target[t, c] for t in range(n)) / n
        num = sum((pred[t, c] - mp) * (target[t, c] - mt) for t in range(n))
        dp = sum((pred[t, c] - mp) ** 2 for t in range(n))
        dt = sum((target[t, c] - mt) ** 2 for t in range(n))
        out.append(num / math.sqrt(dp * dt))
    return np.array(out)
