"""Dataset ingestion, synthetic blobs, mini-batching, pseudo-label cache."""

import struct
import tracemalloc

import numpy as np
import pytest

from uapforge import data as D
from uapforge import models as M


def write_idx_pair(tmp_path, images_u8, labels_u8):
    n, rows, cols = images_u8.shape
    ip = tmp_path / "images.idx"
    lp = tmp_path / "labels.idx"
    ip.write_bytes(struct.pack(">IIII", 0x803, n, rows, cols) + images_u8.tobytes())
    lp.write_bytes(struct.pack(">II", 0x801, len(labels_u8)) + bytes(labels_u8))
    return ip, lp


# -- IDX loading -------------------------------------------------------------


def test_load_idx_shapes_and_scaling(tmp_path):
    rng = np.random.default_rng(0)
    imgs = rng.integers(0, 256, (50, 9, 7), dtype=np.uint8)
    imgs[0, 0, 0] = 255
    imgs[0, 0, 1] = 0
    labels = rng.integers(0, 10, 50).astype(np.uint8)
    ip, lp = write_idx_pair(tmp_path, imgs, labels)
    ds = D.load_idx(ip, lp)
    assert ds.images.shape == (50, 1, 9, 7)
    assert ds.images[0, 0, 0, 0] == 1.0
    assert ds.images[0, 0, 0, 1] == 0.0
    assert np.array_equal(ds.labels, labels)
    assert len(ds.fingerprint) == 16


def test_load_idx_fingerprint_is_the_images_fingerprint(tmp_path):
    imgs = np.random.default_rng(1).integers(0, 256, (20, 5, 4), dtype=np.uint8)
    ds = D.load_idx(*write_idx_pair(tmp_path, imgs, np.zeros(20, dtype=np.uint8)))
    assert ds.fingerprint == D.Dataset(images=ds.images.copy(), labels=ds.labels).fingerprint
    with pytest.raises(TypeError):
        D.Dataset(images=ds.images, fingerprint="0" * 16)


def test_load_idx_bad_magic(tmp_path):
    ip = tmp_path / "images.idx"
    lp = tmp_path / "labels.idx"
    ip.write_bytes(struct.pack(">IIII", 0x123, 1, 2, 2) + bytes(4))
    lp.write_bytes(struct.pack(">II", 0x801, 1) + bytes(1))
    with pytest.raises(ValueError, match="magic"):
        D.load_idx(ip, lp)


def test_load_idx_count_mismatch(tmp_path):
    imgs = np.zeros((3, 2, 2), dtype=np.uint8)
    ip, lp = write_idx_pair(tmp_path, imgs, np.zeros(4, dtype=np.uint8))
    with pytest.raises(ValueError, match="count mismatch"):
        D.load_idx(ip, lp)


def test_load_idx_truncated(tmp_path):
    ip = tmp_path / "images.idx"
    lp = tmp_path / "labels.idx"
    # header claims 60000 MNIST-sized images, supplies eight bytes
    ip.write_bytes(struct.pack(">IIII", 0x803, 60000, 28, 28) + bytes(8))
    lp.write_bytes(struct.pack(">II", 0x801, 60000) + bytes(60000))
    with pytest.raises(ValueError, match="truncated"):
        D.load_idx(ip, lp)


@pytest.mark.parametrize("images,labels", [
    (struct.pack(">II", 0x803, 1), struct.pack(">II", 0x801, 1) + bytes(1)),
    (struct.pack(">IIII", 0x803, 1, 1, 1) + bytes(1), struct.pack(">I", 0x801)),
], ids=["image-header", "label-header"])
def test_load_idx_short_header(tmp_path, images, labels):
    ip, lp = tmp_path / "images.idx", tmp_path / "labels.idx"
    ip.write_bytes(images)
    lp.write_bytes(labels)
    with pytest.raises(ValueError, match="truncated IDX header"):
        D.load_idx(ip, lp)


def test_idx_roundtrip(tmp_path):
    ds = D.synth_blobs(3, 30, (1, 6, 6), spread=0.1, seed=4)
    ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"
    D.save_idx(ds, ip, lp)
    back = D.load_idx(ip, lp)
    assert back.images.shape == ds.images.shape
    assert np.array_equal(back.labels, ds.labels)
    # quantization to bytes is the only loss
    assert np.abs(back.images - ds.images).max() <= 0.5 / 255 + 1e-9


def test_failed_idx_label_write_leaves_no_label_file(tmp_path, fail_writes):
    ds = D.synth_blobs(3, 30, (1, 6, 6), spread=0.1, seed=4)
    fail_writes("labels.idx")
    with pytest.raises(OSError):
        D.save_idx(ds, tmp_path / "images.idx", tmp_path / "labels.idx")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["images.idx"]


# -- synthetic blobs -----------------------------------------------------------


def test_blobs_deterministic():
    a = D.synth_blobs(4, 100, 8, spread=0.1, seed=9)
    b = D.synth_blobs(4, 100, 8, spread=0.1, seed=9)
    assert a.images.tobytes() == b.images.tobytes()
    assert np.array_equal(a.labels, b.labels)
    assert a.fingerprint == b.fingerprint


def test_blobs_small_spread_concentrates():
    ds = D.synth_blobs(2, 40, 5, spread=1e-9, seed=0)
    for cls in (0, 1):
        pts = ds.images[ds.labels == cls]
        assert np.abs(pts - pts[0]).max() <= 1e-6


def test_blobs_separable_classes_trainable():
    ds = D.synth_blobs(2, 200, 6, spread=0.02, seed=3)
    m = M.build_model([M.dense(6, 2)], (6,), seed=0)
    trained = M.train_erm(m, ds, epochs=25, lr=0.5, batch=32, seed=0)
    assert trained.history[-1]["accuracy"] >= 0.99


def test_blobs_validation():
    with pytest.raises(ValueError):
        D.synth_blobs(5, 3, 4, spread=0.1)
    with pytest.raises(ValueError):
        D.synth_blobs(2, 10, 4, spread=0.0)


def test_blobs_image_shape():
    ds = D.synth_blobs(3, 12, (1, 5, 5), spread=0.1, seed=1)
    assert ds.images.shape == (12, 1, 5, 5)
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0


# -- mini-batches -----------------------------------------------------------------


def test_minibatches_full_batches():
    ds = D.synth_blobs(2, 500, 4, spread=0.1, seed=0)
    batches = D.minibatches(ds, 125, epoch_seed=1)
    assert [b.X.shape[0] for b in batches] == [125, 125, 125, 125]


def test_minibatches_partial_final():
    ds = D.synth_blobs(2, 10, 4, spread=0.1, seed=0)
    batches = D.minibatches(ds, 3, epoch_seed=0)
    assert [len(b.indices) for b in batches] == [3, 3, 3, 1]


def test_minibatches_cover_everything_once():
    ds = D.synth_blobs(3, 47, 4, spread=0.1, seed=0)
    batches = D.minibatches(ds, 10, epoch_seed=5)
    allidx = np.concatenate([b.indices for b in batches])
    assert sorted(allidx.tolist()) == list(range(47))


def test_minibatches_seeded():
    ds = D.synth_blobs(2, 30, 4, spread=0.1, seed=0)
    a = list(D.minibatches(ds, 8, epoch_seed=3))
    b = list(D.minibatches(ds, 8, epoch_seed=3))
    assert all(np.array_equal(x.indices, y.indices) for x, y in zip(a, b))
    c = list(D.minibatches(ds, 8, epoch_seed=4))
    assert any(not np.array_equal(x.indices, y.indices) for x, y in zip(a, c))


def test_minibatches_rejects_bad_args():
    ds = D.synth_blobs(2, 10, 4, spread=0.1, seed=0)
    with pytest.raises(ValueError):
        D.minibatches(ds, 0)


def test_minibatches_copy_one_batch_at_a_time():
    images = np.random.default_rng(0).uniform(0, 1, (4000, 1, 16, 16)).astype(np.float32)
    ds = D.Dataset(images=images, labels=np.arange(4000) % 4)
    tracemalloc.start()
    try:
        first = next(iter(D.minibatches(ds, 125, epoch_seed=0)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first.X.shape == (125, 1, 16, 16)
    assert peak < images.nbytes / 4


def test_batch_labels_follow_override():
    ds = D.synth_blobs(2, 20, 4, spread=0.1, seed=0)
    fake = np.arange(20) % 2
    for b in D.minibatches(ds, 6, epoch_seed=0, labels=fake):
        assert np.array_equal(b.Y, fake[b.indices])


# -- subset -------------------------------------------------------------------------


def test_subset_seeded_and_sized():
    ds = D.synth_blobs(4, 100, 4, spread=0.1, seed=0)
    s1 = D.subset(ds, 25, seed=1)
    s2 = D.subset(ds, 25, seed=1)
    assert len(s1) == 25
    assert s1.images.tobytes() == s2.images.tobytes()
    with pytest.raises(ValueError):
        D.subset(ds, 101)


def test_take_slices_images_and_labels():
    ds = D.synth_blobs(2, 10, 4, spread=0.1, seed=0)
    idx = np.array([7, 2, 5])
    part = ds.take(idx, "part")
    assert part.name == "part"
    assert np.array_equal(part.images, ds.images[idx])
    assert np.array_equal(part.labels, ds.labels[idx])
    assert D.Dataset(images=ds.images).take(idx, "bare").labels is None


# -- pseudo-labels --------------------------------------------------------------------


def test_pseudo_labels_cached_and_consistent():
    D.clear_pseudo_label_cache()
    ds = D.synth_blobs(3, 40, 5, spread=0.05, seed=2)
    m = M.build_model([M.dense(5, 3)], (5,), seed=1)
    first = D.pseudo_labels(m, ds)
    second = D.pseudo_labels(m, ds)
    assert first is second  # cache hit returns the same vector
    assert np.array_equal(first, m.predict(ds.images))


def test_pseudo_labels_match_ground_truth_on_well_trained_model():
    ds = D.synth_blobs(2, 150, 6, spread=0.02, seed=3)
    m = M.build_model([M.dense(6, 12), M.relu(), M.dense(12, 2)], (6,), seed=0)
    trained = M.train_erm(m, ds, epochs=25, lr=0.5, batch=25, seed=0)
    assert trained.history[-1]["accuracy"] == 1.0
    assert np.array_equal(D.pseudo_labels(trained, ds), ds.labels)


def test_batch_pseudo_label_slices_match_cache():
    ds = D.synth_blobs(3, 60, 5, spread=0.1, seed=5)
    m = M.build_model([M.dense(5, 3)], (5,), seed=2)
    cache = D.pseudo_labels(m, ds)
    for b in D.minibatches(ds, 16, epoch_seed=2, labels=cache):
        assert np.array_equal(b.Y, cache[b.indices])


# -- dataset validation ------------------------------------------------------------------


def test_dataset_rejects_out_of_range_values():
    with pytest.raises(ValueError, match="outside"):
        D.Dataset(images=np.array([[1.5]]))


def test_dataset_rejects_label_count_mismatch():
    with pytest.raises(ValueError, match="count"):
        D.Dataset(images=np.zeros((3, 2)), labels=np.zeros(2, dtype=np.int64))
