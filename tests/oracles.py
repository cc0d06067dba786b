"""Reference code the tests check the program against; no command runs it.

- `finite_difference_gradient` is the central-difference oracle that every
  analytic gradient is checked against (acceptance criterion 1).
- `loss` is a target's mean loss, forward only: the graph `loss_grad`
  differentiates, with no leaf needing a gradient, so probing it costs no
  backward pass.
- `save_idx` writes an IDX image/label pair, the input `dataset.source: "idx"`
  reads.
"""

import struct

import numpy as np

from uapforge.data import IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC
from uapforge.tensor import require_finite, write_atomic


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


def loss(target, X, Y, delta=None):
    """The mean cross-entropy of `target` (a model or an ensemble) at (X + delta, Y)."""
    loss_var, _, _ = target._loss_graph(X, Y, delta=delta)
    return float(loss_var.value)


def save_idx(dataset, images_path, labels_path):
    """Write a dataset as an IDX pair (pixels quantized back to bytes), each file through write_atomic."""
    images = dataset.images
    if images.ndim != 4 or images.shape[1] != 1:
        raise ValueError("IDX export expects [n, 1, H, W] images")
    n, _, rows, cols = images.shape
    pixels = np.clip(np.rint(images * 255.0), 0, 255).astype(np.uint8)
    write_atomic(images_path, struct.pack(">IIII", IDX_IMAGE_MAGIC, n, rows, cols) + pixels.tobytes())
    write_atomic(labels_path, struct.pack(">II", IDX_LABEL_MAGIC, n) + dataset.labels.astype(np.uint8).tobytes())
