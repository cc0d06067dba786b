"""Reverse-mode automatic differentiation over numpy arrays.

A small tape: each `Var` wraps a numpy array and remembers the vector-Jacobian
product of the primitive that produced it. `backward` walks the graph once in
reverse topological order and accumulates gradients into `Var.grad`.

The primitive set is fixed to what a small classifier needs: matmul, 2-D
convolution (stride 1, no padding), bias add, ReLU, 2x2 max-pool, flatten,
per-channel affine normalization, and a fused softmax-cross-entropy. All
reductions run in a fixed order so repeated runs are bit-identical.
"""

import numpy as np

from .tensor import require_finite


class Var:
    """Graph node: a cached forward value plus the recipe for its gradient."""

    __slots__ = ("value", "parents", "vjp", "grad")

    def __init__(self, value, parents=(), vjp=None):
        self.value = value
        self.parents = parents
        self.vjp = vjp  # callable(grad_out) -> one gradient per parent
        self.grad = None

    @property
    def shape(self):
        return np.shape(self.value)


def leaf(value):
    return Var(np.asarray(value))


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
            stack.append((parent, False))
    return order


def backward(root, seed=1.0):
    """Accumulate gradients of `root` (a scalar) into every reachable Var.

    Visits each node exactly once, children before parents; accumulation order
    is fixed by the construction order of the graph.
    """
    if np.shape(root.value) != ():
        raise ValueError("backward expects a scalar root")
    order = _topo_order(root)
    for node in order:
        node.grad = None
    root.grad = np.asarray(seed, dtype=np.asarray(root.value).dtype)
    for node in reversed(order):
        if node.grad is None or node.vjp is None:
            continue
        for parent, g in zip(node.parents, node.vjp(node.grad)):
            if g is None:
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
        return _unbroadcast(g, a.value.shape), _unbroadcast(g, b.value.shape)

    return Var(val, (a, b), vjp)


def add_scalars(terms, weights=None):
    """Weighted sum of scalar Vars (used to combine per-model losses)."""
    if not terms:
        raise ValueError("empty term list")
    if weights is None:
        weights = [1.0] * len(terms)
    val = sum(w * t.value for w, t in zip(weights, terms))

    def vjp(g):
        return tuple(g * w for w in weights)

    return Var(np.asarray(val), tuple(terms), vjp)


def matmul(x, w):
    """[b, n] @ [n, m] -> [b, m]."""
    val = x.value @ w.value

    def vjp(g):
        return g @ w.value.T, x.value.T @ g

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
        grad_w = np.einsum("bpo,bpk->ok", gm, cols).reshape(w.value.shape)
        grad_b = g.sum(axis=(0, 2, 3))
        grad_x = _col2im(gm @ w_mat, x.value.shape, kh, kw)
        return grad_x, grad_w, grad_b

    return Var(val, (x, w, bias), vjp)


def maxpool2(x):
    """2x2 max-pool, stride 2; odd trailing rows/columns are dropped.

    Ties route the gradient to the first maximal element of the window.
    """
    b, c, h, w = x.value.shape
    oh, ow = h // 2, w // 2
    win = (
        x.value[:, :, : oh * 2, : ow * 2]
        .reshape(b, c, oh, 2, ow, 2)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(b, c, oh, ow, 4)
    )
    idx = win.argmax(axis=-1)
    val = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]

    def vjp(g):
        gwin = np.zeros_like(win)
        np.put_along_axis(gwin, idx[..., None], g[..., None], axis=-1)
        gx = np.zeros_like(x.value)
        gx[:, :, : oh * 2, : ow * 2] = (
            gwin.reshape(b, c, oh, ow, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(b, c, oh * 2, ow * 2)
        )
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


def finite_difference_gradient(loss_fn, x, h=1e-5):
    """Central-difference gradient estimate of a scalar function, per coordinate."""
    if h <= 0:
        raise ValueError("h must be positive")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = loss_fn(x)
        flat[i] = orig - h
        down = loss_fn(x)
        flat[i] = orig
        require_finite(np.array([up, down]), "finite-difference probe")
        gflat[i] = (up - down) / (2.0 * h)
    return grad
