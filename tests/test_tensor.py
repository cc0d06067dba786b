"""Binary tensor container and artifact file round-trips, malformed files, content hashes and fingerprints."""

import hashlib
import json
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uapforge import tensor as T
from uapforge.errors import ArtifactMissing, OutputNotWritable


@pytest.mark.parametrize("dtype,shape", [
    (np.float32, (2, 3, 4)),
    (np.float64, (2, 3, 4)),
    (np.float32, ()),
    (np.float64, ()),
], ids=["float32", "float64", "float32-0d", "float64-0d"])
def test_roundtrip(tmp_path, dtype, shape):
    arr = np.asarray(np.random.default_rng(0).normal(size=shape)).astype(dtype)
    path = tmp_path / "t.uapt"
    T.save_tensor(path, arr)
    back = T.load_tensor(path)
    assert back.dtype == dtype
    assert back.shape == arr.shape
    assert np.array_equal(back, arr)


def test_container_layout(tmp_path):
    arr = np.arange(6, dtype=np.float32).reshape(2, 3)
    path = tmp_path / "t.uapt"
    T.save_tensor(path, arr)
    blob = path.read_bytes()
    assert blob[:4] == b"UAPT"
    # version=1, rank=2, extents 2 and 3, dtype tag 0 (f32)
    assert blob[4:8] == (1).to_bytes(4, "little")
    assert blob[8:12] == (2).to_bytes(4, "little")
    assert blob[12:16] == (2).to_bytes(4, "little")
    assert blob[16:20] == (3).to_bytes(4, "little")
    assert blob[20] == 0
    assert blob[21:] == arr.tobytes()


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.uapt"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(T.TensorFormatError, match="magic"):
        T.load_tensor(path)


def test_truncated_data(tmp_path):
    arr = np.zeros((4, 4), dtype=np.float32)
    path = tmp_path / "t.uapt"
    T.save_tensor(path, arr)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(T.TensorFormatError, match="truncated"):
        T.load_tensor(path)


@pytest.mark.parametrize("blob", [
    b"UAPT",
    b"UAPT" + struct.pack("<II", 1, 1_000_000),
    b"UAPT" + struct.pack("<III", 1, 1, 3),
], ids=["no-version-or-rank", "rank-beyond-file", "no-dtype-tag"])
def test_short_header(tmp_path, blob):
    path = tmp_path / "t.uapt"
    path.write_bytes(blob)
    with pytest.raises(T.TensorFormatError, match="truncated header"):
        T.load_tensor(path)


_VALID = b"UAPT" + struct.pack("<IIII", 1, 2, 2, 3) + b"\x00" + np.arange(6, dtype="<f4").tobytes()


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.binary(max_size=64),
    st.binary(max_size=64).map(lambda tail: b"UAPT" + tail),
    st.binary(max_size=64).map(lambda tail: b"UAPT" + struct.pack("<I", 1) + tail),
    st.integers(0, len(_VALID)).map(lambda n: _VALID[:n]),
    st.tuples(st.integers(0, len(_VALID) - 1), st.integers(0, 255)).map(
        lambda flip: _VALID[: flip[0]] + bytes([flip[1]]) + _VALID[flip[0] + 1 :]
    ),
))
def test_any_bytes_load_or_raise_format_error(tmp_path_factory, blob):
    path = tmp_path_factory.mktemp("fuzz") / "t.uapt"
    path.write_bytes(blob)
    try:
        arr = T.load_tensor(path)
    except T.TensorFormatError:
        return
    assert isinstance(arr, np.ndarray) and arr.dtype in (np.float32, np.float64)


_JSON = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.binary(max_size=64),
    _JSON.map(lambda doc: json.dumps(doc).encode()),
    st.tuples(_JSON, st.integers(0, 40)).map(lambda d: json.dumps(d[0]).encode()[: d[1]]),
    st.integers(1, 100_000).map(lambda depth: b"[" * depth),
))
def test_any_sidecar_bytes_load_or_raise_format_error(tmp_path_factory, blob):
    path = tmp_path_factory.mktemp("sidecar") / "t.uapt"
    T.save_artifact(path, np.zeros(2), {})
    (path.parent / "t.uapt.json").write_bytes(blob)
    try:
        arr, meta = T.load_artifact(path)
    except T.TensorFormatError:
        return
    assert isinstance(meta, dict) and arr.shape == (2,)


def test_artifact_roundtrip_writes_payload_log_and_sidecar(tmp_path):
    arr = np.arange(4, dtype=np.float32)
    path = tmp_path / "a.uapt"
    T.save_artifact(path, arr, {"k": [1, 2], "content_hash": T.content_hash(arr)}, log_csv="epoch\n1\n")
    back, meta = T.load_artifact(path)
    assert np.array_equal(back, arr) and meta == {"k": [1, 2], "content_hash": T.content_hash(arr)}
    assert (tmp_path / "a.uapt.log.csv").read_text() == "epoch\n1\n"
    assert hashlib.sha1(path.read_bytes()).hexdigest() == T.content_hash(arr)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.uapt", "a.uapt.json", "a.uapt.log.csv"]


@pytest.mark.parametrize("missing", ["a.uapt", "a.uapt.json"])
def test_load_artifact_missing_file(tmp_path, missing):
    path = tmp_path / "a.uapt"
    T.save_artifact(path, np.zeros(3), {})
    (tmp_path / missing).unlink()
    with pytest.raises(ArtifactMissing, match=re.escape(missing) + "$"):
        T.load_artifact(path)


@pytest.mark.parametrize("how", ["missing", "directory", "through-a-file"])
def test_read_file_maps_every_os_error_to_artifact_missing(tmp_path, how):
    (tmp_path / "plain").write_text("x")
    (tmp_path / "dir").mkdir()
    path = str(tmp_path / {"missing": "nothing", "directory": "dir", "through-a-file": "plain/x"}[how])
    with pytest.raises(ArtifactMissing, match=re.escape(path) + "$"):
        T.read_file(path)
    with pytest.raises(ArtifactMissing, match=re.escape(path) + "$"):
        T.read_json_object(path)


def test_write_atomic_makes_the_missing_directories(tmp_path):
    path = tmp_path / "a" / "b" / "r.csv"
    T.write_atomic(path, b"x\n")
    assert T.read_file(path) == b"x\n"
    assert list((tmp_path / "a" / "b").iterdir()) == [path]


def test_write_atomic_maps_every_os_error_to_output_not_writable(tmp_path, fail_writes):
    (tmp_path / "plain").write_text("x")
    path = str(tmp_path / "plain" / "sub" / "r.csv")
    with pytest.raises(OutputNotWritable, match=r"^file not writable \(Not a directory\): " + re.escape(path) + "$") as info:
        T.write_atomic(path, b"x\n")
    assert not isinstance(info.value, FileNotFoundError)  # exit code 5 is for inputs that cannot be read
    fail_writes("r.csv")
    path = str(tmp_path / "r.csv")
    with pytest.raises(OutputNotWritable, match=r"\(No space left on device\): " + re.escape(path) + "$"):
        T.write_atomic(path, b"x\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plain"]  # the temp file is removed


def test_failed_payload_write_leaves_no_file(tmp_path, fail_writes):
    fail_writes("t.uapt")
    with pytest.raises(OSError):
        T.save_tensor(tmp_path / "t.uapt", np.zeros(64))
    assert list(tmp_path.iterdir()) == []


def test_rejects_non_float(tmp_path):
    with pytest.raises(T.TensorFormatError):
        T.save_tensor(tmp_path / "x.uapt", np.zeros(3, dtype=np.int32))


def test_save_identical_bytes(tmp_path):
    arr = np.random.default_rng(1).normal(size=(5, 5))
    p1, p2 = tmp_path / "a.uapt", tmp_path / "b.uapt"
    T.save_tensor(p1, arr)
    T.save_tensor(p2, arr)
    assert p1.read_bytes() == p2.read_bytes()


FINGERPRINTED = {
    "float32": np.arange(6, dtype=np.float32).reshape(2, 3),
    "float64": np.linspace(0.0, 1.0, 7),
    "float64-strided": np.arange(12.0).reshape(3, 4)[:, ::2],
    "float64-0d": np.array(2.5),
}


@pytest.mark.parametrize("arr", FINGERPRINTED.values(), ids=FINGERPRINTED.keys())
def test_fingerprint_is_content_hash_prefix(tmp_path, arr):
    assert T.array_fingerprint(arr) == T.content_hash(arr)[:16]
    path = tmp_path / "a.uapt"
    T.save_tensor(path, arr)
    assert T.content_hash(arr) == T.content_hash(arr.copy()) == hashlib.sha1(path.read_bytes()).hexdigest()
    assert T.content_hash(b"spec", arr) == hashlib.sha1(b"spec" + path.read_bytes()).hexdigest()


def test_require_finite():
    T.require_finite(np.zeros(3))
    with pytest.raises(ValueError, match="non-finite"):
        T.require_finite(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        T.require_finite(np.array([np.inf]))
