"""Dataset ingestion, synthetic data, seeded mini-batches, pseudo-labels.

Images are float arrays in [0, 1] with shape [n, C, H, W] (or [n, d] for flat
synthetic data), and every sample has a label: both sources, IDX files (read
with tensor.read_file) and synthetic blobs, give one. A dataset owns what is
derived from its images, each computed the first time it is read: its
fingerprint (see tensor.array_fingerprint), which runs and reports record to
name their inputs exactly, and each model's pseudo-labels, so crafts that
share a dataset and a model (an `ablate` sweep) label it once. A new dataset,
from `take` or `subset` too, starts with neither.
"""

import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .tensor import array_fingerprint, read_file

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


@dataclass
class Dataset:
    images: np.ndarray
    labels: np.ndarray
    name: str = ""
    # {model fingerprint: that model's argmax labels of the images}, filled by pseudo_labels
    model_labels: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.images.size:
            what = "values per sample" if len(self.images) else "samples"
            raise ValueError(f"empty dataset: images of shape {self.images.shape} hold no {what}")
        lo, hi = float(self.images.min()), float(self.images.max())
        if not (lo >= 0.0 and hi <= 1.0):  # written so that NaN fails it
            raise ValueError(f"image values outside [0, 1]: min {lo}, max {hi}")
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.shape != (self.images.shape[0],):
            raise ValueError("label count does not match image count")

    def __len__(self):
        return self.images.shape[0]

    @cached_property
    def fingerprint(self):
        return array_fingerprint(self.images)

    @property
    def sample_shape(self):
        return self.images.shape[1:]

    def take(self, idx, name):
        """The samples at `idx` and their labels as a new dataset called `name`."""
        return Dataset(images=self.images[idx], labels=self.labels[idx], name=name)


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


def load_idx(images_path, labels_path):
    """Load an IDX image/label file pair, scaling pixel bytes to [0, 1]."""
    (n, rows, cols), pixels = _read_idx(images_path, IDX_IMAGE_MAGIC, 3)
    if len(pixels) != n * rows * cols:
        raise ValueError(f"truncated image data in {images_path}: {len(pixels)} bytes, expected {n * rows * cols}")
    images = pixels.reshape(n, 1, rows, cols).astype(np.float32) / 255.0
    (n_labels,), labels = _read_idx(labels_path, IDX_LABEL_MAGIC, 1)
    if n_labels != n:
        raise ValueError(f"count mismatch: {n} images vs {n_labels} labels")
    if len(labels) != n_labels:
        raise ValueError(f"truncated label data in {labels_path}")
    return Dataset(images=images, labels=labels.astype(np.int64), name="idx")


def synth_blobs(num_classes, n, shape, spread, seed=0):
    """Gaussian clusters around seeded per-class centers, clipped to [0, 1].

    `shape` is either an int (flat feature vectors) or a (C, H, W) tuple.
    Class sizes are as equal as n allows; samples are laid out class-major.
    """
    if num_classes < 1 or n < num_classes:
        raise ValueError("need n >= num_classes >= 1")
    if spread <= 0:
        raise ValueError("spread must be positive")
    sample_shape = (int(shape),) if np.isscalar(shape) else tuple(shape)
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.2, 0.8, size=(num_classes, *sample_shape))
    counts = [n // num_classes + (1 if i < n % num_classes else 0) for i in range(num_classes)]
    images, labels = [], []
    for cls, count in enumerate(counts):
        pts = centers[cls] + rng.normal(0.0, spread, size=(count, *sample_shape))
        images.append(np.clip(pts, 0.0, 1.0))
        labels.append(np.full(count, cls, dtype=np.int64))
    return Dataset(
        images=np.concatenate(images).astype(np.float32),
        labels=np.concatenate(labels),
        # "m1" (one template per class) stays in the name so that delta sidecars, which record it, keep their bytes
        name=f"blobs-k{num_classes}-n{n}-m1-s{seed}",
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
    Y = dataset.labels if labels is None else labels
    order = np.random.default_rng(epoch_seed).permutation(n)

    def batches():
        for start in range(0, n, B):
            idx = order[start : start + B]
            yield Batch(X=dataset.images[idx], Y=Y[idx], indices=idx)

    return batches()


def pseudo_labels(model, dataset):
    """Labels assigned by the clean model's argmax, computed once per model and kept on the dataset."""
    key = model.fingerprint()
    if key not in dataset.model_labels:
        dataset.model_labels[key] = model.predict(dataset.images)
    return dataset.model_labels[key]
