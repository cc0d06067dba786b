"""Dataset ingestion, synthetic data, seeded mini-batches, pseudo-label cache.

Images are float arrays in [0, 1] with shape [n, C, H, W] (or [n, d] for flat
synthetic data). Every dataset carries a fingerprint of its images (see
tensor.array_fingerprint) so runs and reports can name their inputs exactly.
IDX files are read with tensor.read_file and written with tensor.write_atomic.
"""

import struct
from dataclasses import dataclass, field

import numpy as np

from .tensor import array_fingerprint, read_file, write_atomic

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


@dataclass
class Dataset:
    images: np.ndarray
    labels: np.ndarray | None = None
    name: str = ""
    fingerprint: str = field(init=False, compare=False)

    def __post_init__(self):
        lo, hi = float(self.images.min()), float(self.images.max())
        if lo < 0.0 or hi > 1.0:
            raise ValueError(f"image values outside [0, 1]: min {lo}, max {hi}")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.images.shape[0],):
                raise ValueError("label count does not match image count")
        self.fingerprint = array_fingerprint(self.images)

    def __len__(self):
        return self.images.shape[0]

    @property
    def sample_shape(self):
        return self.images.shape[1:]

    def take(self, idx, name):
        """The samples at `idx` (and their labels, if any) as a new dataset called `name`."""
        return Dataset(images=self.images[idx], labels=None if self.labels is None else self.labels[idx], name=name)


@dataclass
class Batch:
    X: np.ndarray
    Y: np.ndarray
    indices: np.ndarray


def _read_idx(path, magic, fields):
    """(the `fields` u32 header values after the magic, the uint8 payload) of the IDX file at `path`."""
    blob = read_file(path)
    offset = 4 * (1 + fields)
    if len(blob) < offset:
        raise ValueError(f"truncated IDX header in {path}: {len(blob)} bytes, expected at least {offset}")
    found, *values = struct.unpack_from(f">{1 + fields}I", blob)
    if found != magic:
        raise ValueError(f"bad magic {found:#010x} in {path}, expected {magic:#010x}")
    return values, np.frombuffer(blob, dtype=np.uint8, offset=offset)


def load_idx(images_path, labels_path, name="", dtype=np.float32):
    """Load an IDX image/label file pair, scaling pixel bytes to [0, 1]."""
    (n, rows, cols), pixels = _read_idx(images_path, IDX_IMAGE_MAGIC, 3)
    if len(pixels) != n * rows * cols:
        raise ValueError(f"truncated image data in {images_path}: {len(pixels)} bytes, expected {n * rows * cols}")
    images = pixels.reshape(n, 1, rows, cols).astype(dtype) / 255.0
    (n_labels,), labels = _read_idx(labels_path, IDX_LABEL_MAGIC, 1)
    if n_labels != n:
        raise ValueError(f"count mismatch: {n} images vs {n_labels} labels")
    if len(labels) != n_labels:
        raise ValueError(f"truncated label data in {labels_path}")
    return Dataset(images=images, labels=labels.astype(np.int64), name=name or "idx")


def save_idx(dataset, images_path, labels_path):
    """Write a dataset as an IDX pair (pixels quantized back to bytes), each file through write_atomic."""
    images = dataset.images
    if images.ndim != 4 or images.shape[1] != 1:
        raise ValueError("IDX export expects [n, 1, H, W] images")
    if dataset.labels is None:
        raise ValueError("IDX export needs labels")
    n, _, rows, cols = images.shape
    pixels = np.clip(np.rint(images * 255.0), 0, 255).astype(np.uint8)
    write_atomic(images_path, struct.pack(">IIII", IDX_IMAGE_MAGIC, n, rows, cols) + pixels.tobytes())
    write_atomic(labels_path, struct.pack(">II", IDX_LABEL_MAGIC, n) + dataset.labels.astype(np.uint8).tobytes())


def synth_blobs(num_classes, n, shape, spread, seed=0, modes=1, dtype=np.float32):
    """Gaussian clusters around seeded per-class centers, clipped to [0, 1].

    `shape` is either an int (flat feature vectors) or a (C, H, W) tuple.
    With `modes` > 1 each class mixes that many templates, so a small sample
    subset under-covers the class distribution. Class sizes are as equal as n
    allows; samples are laid out class-major.
    """
    if num_classes < 1 or n < num_classes:
        raise ValueError("need n >= num_classes >= 1")
    if spread <= 0:
        raise ValueError("spread must be positive")
    if modes < 1:
        raise ValueError("modes must be >= 1")
    sample_shape = (int(shape),) if np.isscalar(shape) else tuple(shape)
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.2, 0.8, size=(num_classes, modes, *sample_shape))
    counts = [n // num_classes + (1 if i < n % num_classes else 0) for i in range(num_classes)]
    images, labels = [], []
    for cls, count in enumerate(counts):
        # modes == 1 draws nothing here, keeping older seeded datasets identical
        which = rng.integers(0, modes, size=count) if modes > 1 else np.zeros(count, dtype=int)
        pts = centers[cls, which] + rng.normal(0.0, spread, size=(count, *sample_shape))
        images.append(np.clip(pts, 0.0, 1.0))
        labels.append(np.full(count, cls, dtype=np.int64))
    return Dataset(
        images=np.concatenate(images).astype(dtype),
        labels=np.concatenate(labels),
        name=f"blobs-k{num_classes}-n{n}-m{modes}-s{seed}",
    )


def subset(dataset, size, seed=0):
    """Seeded random subset without replacement (the limited-data setting)."""
    if not 0 < size <= len(dataset):
        raise ValueError(f"subset size {size} is not in [1, {len(dataset)}], the dataset size")
    idx = np.sort(np.random.default_rng(seed).choice(len(dataset), size=size, replace=False))
    return dataset.take(idx, f"{dataset.name}-sub{size}")


def minibatches(dataset, B, epoch_seed=0, labels=None):
    """Split a seeded permutation of the dataset into ceil(n/B) batches.

    The arguments are checked and the permutation drawn at the call; the
    returned iterator then copies out one batch at a time. The final batch
    may be partial and is kept. `labels` overrides the dataset's own labels
    (used for pseudo-labels during crafting).
    """
    if B < 1:
        raise ValueError("batch size must be >= 1")
    n = len(dataset)
    if n == 0:
        raise ValueError("empty dataset")
    Y = dataset.labels if labels is None else labels
    order = np.random.default_rng(epoch_seed).permutation(n)

    def batches():
        for start in range(0, n, B):
            idx = order[start : start + B]
            yield Batch(X=dataset.images[idx], Y=None if Y is None else Y[idx], indices=idx)

    return batches()


_pseudo_label_cache: dict = {}


def pseudo_labels(model, dataset):
    """Labels assigned by the clean model's argmax, computed once and cached."""
    key = (model.fingerprint(), dataset.fingerprint)
    if key not in _pseudo_label_cache:
        _pseudo_label_cache[key] = model.predict(dataset.images)
    return _pseudo_label_cache[key]


def clear_pseudo_label_cache():
    _pseudo_label_cache.clear()
