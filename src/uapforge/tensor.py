"""Dense tensor utilities: the program's file boundary, content hashes and fingerprints, finiteness checks.

Tensors are plain numpy arrays (row-major, float32 or float64). This module alone
opens files: `read_file` reads every input (config, IDX data, artifacts, sidecars),
`read_json_object` parses the config file and every sidecar, and `write_atomic`
writes every output, making its directory first. An artifact, a delta or a model
checkpoint, is a UAPT container at <path>, a JSON sidecar at <path>.json and an
optional <path>.log.csv. `load_artifact` alone checks a payload against its
sidecar: a delta's `content_hash`, a checkpoint's `params_fingerprint`.
"""

import hashlib
import json
import math
import os
import struct

import numpy as np

from .errors import ArtifactMissing

MAGIC = b"UAPT"
FORMAT_VERSION = 1

_DTYPE_TAGS = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_TAG_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


class TensorFormatError(ValueError):
    """Raised when a tensor container file or its sidecar is malformed."""


class ContentMismatch(TensorFormatError):
    """Raised when a readable payload does not match the identity its sidecar records."""


def require_finite(arr, what="tensor"):
    """Raise ValueError if `arr` contains NaN or Inf."""
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"non-finite values in {what}")
    return arr


def _container_parts(arr):
    """The little-endian container of a float array as (header bytes, C-contiguous data array).

    Layout: magic "UAPT", format version u32, rank u32, one u32 per extent,
    dtype tag u8 (0=f32, 1=f64), then the raw row-major data.
    """
    arr = np.asarray(arr)
    if arr.dtype not in _DTYPE_TAGS:
        raise TensorFormatError(f"unsupported dtype {arr.dtype}, need float32 or float64")
    header = MAGIC + struct.pack(f"<II{arr.ndim}IB", FORMAT_VERSION, arr.ndim, *arr.shape, _DTYPE_TAGS[arr.dtype])
    return header, np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<"))


def content_hash(*parts):
    """SHA-1 hex digest over `parts` in order: a byte string as it is, an array as save_tensor would write it.

    The header and the array buffer are fed to the hash separately, so no
    copy of the array's bytes is made.
    """
    h = hashlib.sha1()
    for part in parts:
        for chunk in (part,) if isinstance(part, bytes) else _container_parts(part):
            h.update(chunk)
    return h.hexdigest()


def array_fingerprint(*parts):
    """The first 16 hex digits of content_hash(*parts): how sidecars and reports name arrays, models and datasets."""
    return content_hash(*parts)[:16]


def write_atomic(path, data):
    """Make the missing directories above `path`, then write through a temp file beside it and a rename,
    so `path` never holds a partial file."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def read_file(path):
    """The bytes of the file at `path`; raises ArtifactMissing, naming the path last, if it cannot be read."""
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError as exc:
        reason = "not found" if isinstance(exc, FileNotFoundError) else f"not readable ({exc.strerror})"
        raise ArtifactMissing(f"file {reason}: {path}") from None


def save_tensor(path, arr):
    """Write a float array to the container file at `path`."""
    header, data = _container_parts(arr)
    write_atomic(path, header + data.tobytes())


def _unpack(blob, offset, fmt, path):
    if len(blob) < offset + struct.calcsize(fmt):
        raise TensorFormatError(f"truncated header in {path}")
    return struct.unpack_from(fmt, blob, offset)


def load_tensor(path):
    """Read an array written by save_tensor; raises ArtifactMissing or TensorFormatError."""
    blob = read_file(path)
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


def save_artifact(path, arr, meta, log_csv=None):
    """Write the payload, the `log_csv` text if given and, last, the sidecar, so a partial artifact has none."""
    save_tensor(path, arr)
    if log_csv is not None:
        write_atomic(f"{path}.log.csv", log_csv.encode())
    write_atomic(f"{path}.json", json.dumps(meta, indent=2, sort_keys=True).encode())


def read_json_object(path):
    """The JSON object in the file at `path`; raises as read_file does or, for any other content
    (invalid UTF-8 or JSON, nesting too deep to parse, a non-object), TensorFormatError."""
    try:
        doc = json.loads(read_file(path))
    except (ValueError, RecursionError) as exc:
        raise TensorFormatError(f"file {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise TensorFormatError(f"file {path} holds a {type(doc).__name__}, not a JSON object")
    return doc


def load_artifact(path):
    """(array, metadata) of the artifact at `path`; raises as load_tensor and read_json_object do, and
    ContentMismatch unless the payload is exactly the one the sidecar's identity names."""
    arr, meta = load_tensor(path), read_json_object(f"{path}.json")
    key = "content_hash" if "content_hash" in meta else "params_fingerprint"
    if not isinstance(meta.get(key), str):
        raise TensorFormatError(f"sidecar {path}.json records no content_hash or params_fingerprint string")
    if (content_hash if key == "content_hash" else array_fingerprint)(arr) != meta[key]:
        raise ContentMismatch(f"artifact {path}: payload does not match the sidecar's {key}")
    return arr, meta
