"""Dense tensor utilities: binary container format, content hashes, finiteness checks.

Tensors are plain numpy arrays (row-major, float32 or float64). This module
owns the on-disk container used for perturbation artifacts and model
checkpoints, plus the small helpers shared by every other module.
"""

import math
import struct

import numpy as np

MAGIC = b"UAPT"
FORMAT_VERSION = 1

_DTYPE_TAGS = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_TAG_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


class TensorFormatError(ValueError):
    """Raised when a tensor container file is malformed."""


def require_finite(arr, what="tensor"):
    """Raise ValueError if `arr` contains NaN or Inf."""
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"non-finite values in {what}")
    return arr


def save_tensor(path, arr):
    """Write a float array to the little-endian binary container.

    Layout: magic "UAPT", format version u32, rank u32, one u32 per extent,
    dtype tag u8 (0=f32, 1=f64), then the raw row-major data.
    """
    arr = np.ascontiguousarray(arr)
    if arr.dtype not in _DTYPE_TAGS:
        raise TensorFormatError(f"unsupported dtype {arr.dtype}, need float32 or float64")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", FORMAT_VERSION))
        f.write(struct.pack("<I", arr.ndim))
        for extent in arr.shape:
            f.write(struct.pack("<I", extent))
        f.write(struct.pack("<B", _DTYPE_TAGS[arr.dtype]))
        f.write(arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes())


def _unpack(blob, offset, fmt, path):
    if len(blob) < offset + struct.calcsize(fmt):
        raise TensorFormatError(f"truncated header in {path}")
    return struct.unpack_from(fmt, blob, offset)


def load_tensor(path):
    """Read an array written by save_tensor; a malformed file raises TensorFormatError."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != MAGIC:
        raise TensorFormatError(f"bad magic in {path}")
    version, rank = _unpack(blob, 4, "<II", path)
    if version != FORMAT_VERSION:
        raise TensorFormatError(f"unsupported container version {version}")
    shape = _unpack(blob, 12, f"<{rank}I", path)
    offset = 12 + 4 * rank
    (tag,) = _unpack(blob, offset, "<B", path)
    offset += 1
    if tag not in _TAG_DTYPES:
        raise TensorFormatError(f"unknown dtype tag {tag}")
    dtype = _TAG_DTYPES[tag]
    count = math.prod(shape)
    expected = count * dtype.itemsize
    if len(blob) - offset != expected:
        raise TensorFormatError(
            f"truncated tensor file {path}: {len(blob) - offset} data bytes, expected {expected}"
        )
    arr = np.frombuffer(blob, dtype=dtype, count=count, offset=offset)
    return arr.reshape(shape).astype(dtype.newbyteorder("="))


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = 0xFFFFFFFFFFFFFFFF


def fnv1a_64(data: bytes) -> int:
    """64-bit FNV-1a over a byte string."""
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _U64
    return h


def array_fingerprint(arr) -> str:
    """Hex FNV-1a fingerprint of an array's canonical (contiguous) bytes."""
    return f"{fnv1a_64(np.ascontiguousarray(arr).tobytes()):016x}"
