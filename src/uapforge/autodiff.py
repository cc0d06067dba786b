"""Reverse-mode automatic differentiation over numpy arrays.

A small tape: each `Var` wraps a numpy array and remembers the vector-Jacobian
product of the primitive that produced it. `backward` walks the graph once in
reverse topological order and accumulates gradients into `Var.grad`.

Only the gradients asked for are computed. A leaf says whether it needs a
gradient (`leaf(value, needs=...)`); any other node needs one when one of its
parents does. `backward` visits only nodes that need a gradient, and each vjp
returns None, skipping the work, for a parent that needs none, so such a
parent's `grad` stays None. A node that needs no gradient keeps neither its
parents nor its vjp, so a forward-only graph frees each layer's arrays as soon
as the next layer exists.

The primitive set is fixed to what a small classifier needs: matmul, 2-D
convolution (stride 1, no padding), bias add, ReLU, 2x2 max-pool, flatten,
per-channel affine normalization, and a fused softmax-cross-entropy. All
reductions run in a fixed order so repeated runs are bit-identical.

`maxpool2` takes the first maximal element of each window in row-major order
(top-left, top-right, bottom-left, bottom-right), as `argmax` would: a later
element wins only when it is strictly greater. So among equal values, also
`0.0` and `-0.0` (ReLU emits `-0.0`), the output is the first one's bytes, and
the gradient goes to that element alone; every other input entry, also an odd
trailing row or column, gets `+0.0`.
"""

import numpy as np


class Var:
    """Graph node: a cached forward value plus the recipe for its gradient."""

    __slots__ = ("value", "parents", "vjp", "grad", "needs")

    def __init__(self, value, parents=(), vjp=None, needs=False):
        self.value = value
        self.needs = needs or any(p.needs for p in parents)
        # backward never visits a node that needs no gradient: drop what its vjp would read
        self.parents = parents if self.needs else ()
        self.vjp = vjp if self.needs else None  # callable(grad_out) -> one gradient, or None, per parent
        self.grad = None


def leaf(value, needs=True):
    """A graph input; `needs=False` when no caller reads its gradient."""
    return Var(np.asarray(value), needs=needs)


def _topo_order(root):
    order, visited, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if parent.needs:
                stack.append((parent, False))
    return order


def backward(root):
    """Accumulate gradients of `root` (a scalar) into every reachable Var that needs one.

    Visits each such node exactly once, children before parents; accumulation
    order is fixed by the construction order of the graph.
    """
    if np.shape(root.value) != ():
        raise ValueError("backward expects a scalar root")
    order = _topo_order(root)
    for node in order:
        node.grad = None
    root.grad = np.asarray(1.0, dtype=np.asarray(root.value).dtype)
    for node in reversed(order):
        if node.grad is None or node.vjp is None:
            continue
        for parent, g in zip(node.parents, node.vjp(node.grad)):
            if g is None or not parent.needs:
                continue
            if parent.grad is None:
                parent.grad = g
            else:
                parent.grad = parent.grad + g


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape`, inverting numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def add(a, b):
    """Broadcasting add; gradients are summed over broadcast axes."""
    val = a.value + b.value

    def vjp(g):
        return (_unbroadcast(g, a.value.shape) if a.needs else None,
                _unbroadcast(g, b.value.shape) if b.needs else None)

    return Var(val, (a, b), vjp)


def add_scalars(terms, weights):
    """Weighted sum of scalar Vars (used to combine per-model losses)."""
    if not terms:
        raise ValueError("empty term list")
    val = sum(w * t.value for w, t in zip(weights, terms))

    def vjp(g):
        return tuple(g * w for w in weights)

    return Var(np.asarray(val), tuple(terms), vjp)


def matmul(x, w):
    """[b, n] @ [n, m] -> [b, m]."""
    val = x.value @ w.value

    def vjp(g):
        return g @ w.value.T if x.needs else None, x.value.T @ g if w.needs else None

    return Var(val, (x, w), vjp)


def relu(x):
    mask = x.value > 0

    def vjp(g):
        return (g * mask,)

    return Var(x.value * mask, (x,), vjp)


def flatten(x):
    """Collapse all non-batch axes: [b, ...] -> [b, prod(...)]."""
    shape = x.value.shape
    val = x.value.reshape(shape[0], -1)

    def vjp(g):
        return (g.reshape(shape),)

    return Var(val, (x,), vjp)


def normalize(x, mean, std):
    """Per-channel affine scale-shift with constant mean/std, x: [b, C, H, W]."""
    mean = np.asarray(mean, dtype=x.value.dtype).reshape(1, -1, 1, 1)
    std = np.asarray(std, dtype=x.value.dtype).reshape(1, -1, 1, 1)
    if np.any(std <= 0):
        raise ValueError("normalize std must be positive")
    inv = 1.0 / std

    def vjp(g):
        return (g * inv,)

    return Var((x.value - mean) * inv, (x,), vjp)


def _im2col(x, kh, kw):
    """Extract all kh x kw patches: [b, C, H, W] -> [b, oh*ow, C*kh*kw]."""
    b = x.shape[0]
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    oh, ow = windows.shape[2], windows.shape[3]
    return windows.transpose(0, 2, 3, 1, 4, 5).reshape(b, oh * ow, -1), oh, ow


def _col2im(grad_cols, x_shape, kh, kw):
    """Scatter-add patch gradients back onto the input, fixed loop order."""
    b, c, h, w = x_shape
    oh, ow = h - kh + 1, w - kw + 1
    gc = grad_cols.reshape(b, oh, ow, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    gx = np.zeros(x_shape, dtype=grad_cols.dtype)
    for i in range(kh):
        for j in range(kw):
            gx[:, :, i : i + oh, j : j + ow] += gc[:, :, i, j]
    return gx


def conv2d(x, w, bias):
    """2-D convolution, stride 1, no padding.

    x: [b, C, H, W], w: [outC, C, kh, kw], bias: [outC] -> [b, outC, oh, ow].
    """
    outc, inc, kh, kw = w.value.shape
    if x.value.shape[1] != inc:
        raise ValueError(f"conv2d channel mismatch: input {x.value.shape[1]}, kernel {inc}")
    cols, oh, ow = _im2col(x.value, kh, kw)
    w_mat = w.value.reshape(outc, -1)
    out = cols @ w_mat.T + bias.value
    val = out.transpose(0, 2, 1).reshape(x.value.shape[0], outc, oh, ow)

    def vjp(g):
        b = g.shape[0]
        gm = g.reshape(b, outc, oh * ow).transpose(0, 2, 1)  # [b, oh*ow, outc]
        grad_w = np.einsum("bpo,bpk->ok", gm, cols).reshape(w.value.shape) if w.needs else None
        grad_b = g.sum(axis=(0, 2, 3)) if bias.needs else None
        grad_x = _col2im(gm @ w_mat, x.value.shape, kh, kw) if x.needs else None
        return grad_x, grad_w, grad_b

    return Var(val, (x, w, bias), vjp)


def maxpool2(x):
    """2x2 max-pool, stride 2; odd trailing rows/columns are dropped.

    Ties keep the first maximal element of the window and route the gradient
    to it alone (see the module docstring).
    """
    v = x.value
    oh, ow = v.shape[2] // 2, v.shape[3] // 2
    # one slice per window element, in argmax's row-major order
    quads = [np.s_[:, :, i : 2 * oh : 2, j : 2 * ow : 2] for i in (0, 1) for j in (0, 1)]
    # beats[k]: window element k is above the maximum of the elements before it
    val, beats = v[quads[0]], [True]
    for q in quads[1:]:
        beats.append(v[q] > val)
        val = np.where(beats[-1], v[q], val)

    def vjp(g):
        gx = np.zeros_like(v)
        later = np.zeros(val.shape, dtype=bool)  # a later element of the window won
        for q, beat in zip(reversed(quads), reversed(beats)):
            gx[q] = np.where(beat & ~later, g, 0)
            later |= beat
        return (gx,)

    return Var(val, (x,), vjp)


def softmax_cross_entropy(logits, labels, reduction="mean"):
    """Fused softmax + cross-entropy, log-sum-exp shifted by the per-row max.

    logits: [b, k], labels: int vector [b]. Returns a scalar Var.
    """
    labels = np.asarray(labels)
    z = logits.value
    if z.ndim != 2:
        raise ValueError(f"logits must be [batch, classes], got shape {z.shape}")
    b, k = z.shape
    if labels.shape != (b,):
        raise ValueError(f"labels shape {labels.shape} does not match batch {b}")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError("labels out of range")
    shifted = z - z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - lse
    rows = np.arange(b)
    losses = -logp[rows, labels]
    if reduction == "mean":
        val = losses.sum(dtype=z.dtype) / b
    elif reduction == "sum":
        val = losses.sum(dtype=z.dtype)
    else:
        raise ValueError(f"unknown reduction {reduction!r}")

    def vjp(g):
        p = np.exp(logp)
        p[rows, labels] -= 1.0
        if reduction == "mean":
            p /= b
        return (p * g,)

    return Var(np.asarray(val), (logits,), vjp)
