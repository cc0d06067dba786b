"""Dataset ingestion, synthetic blobs, mini-batching, pseudo-labels kept on a dataset."""

import struct
import tracemalloc

import numpy as np
import pytest

import oracles
from uapforge import attack as A
from uapforge import data as D
from uapforge import models as M
from uapforge.tensor import content_hash


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
        D.Dataset(images=ds.images, labels=ds.labels, fingerprint="0" * 16)


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
    oracles.save_idx(ds, ip, lp)
    back = D.load_idx(ip, lp)
    assert back.images.shape == ds.images.shape
    assert np.array_equal(back.labels, ds.labels)
    # quantization to bytes is the only loss
    assert np.abs(back.images - ds.images).max() <= 0.5 / 255 + 1e-9


# -- synthetic blobs -----------------------------------------------------------


def test_blobs_deterministic():
    a = D.synth_blobs(4, 100, 8, spread=0.1, seed=9)
    b = D.synth_blobs(4, 100, 8, spread=0.1, seed=9)
    assert a.images.tobytes() == b.images.tobytes()
    assert np.array_equal(a.labels, b.labels)
    assert a.fingerprint == b.fingerprint


# (content_hash of the images, content_hash of the int64 label bytes, name) per (num_classes, n, shape, spread,
# seed). They come from RNG draws alone (no BLAS), so they hold on any machine and guard the draw order.
BLOB_HASHES = {
    (3, 10, 5, 0.1, 7): ("ecb952c587064c370dc82307a6b04832861c9338", "49a69fd168971bdff4e9ba79b87db2920cb9b93a",
                         "blobs-k3-n10-m1-s7"),
    (4, 14, (2, 3, 3), 0.2, 5): ("58179f375a8c0f100ea28c56dd18644b7f6ddf0b", "5326a1a67d44d33c1bbba35c8974062ee16f0919",
                                 "blobs-k4-n14-m1-s5"),
}


@pytest.mark.parametrize("k,n,shape,spread,seed", BLOB_HASHES)
def test_blobs_pinned(k, n, shape, spread, seed):
    ds = D.synth_blobs(k, n, shape, spread=spread, seed=seed)
    want = BLOB_HASHES[k, n, shape, spread, seed]
    assert (content_hash(ds.images), content_hash(ds.labels.tobytes()), ds.name) == want


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


# -- pseudo-labels --------------------------------------------------------------------


def test_pseudo_labels_cached_and_consistent(monkeypatch):
    # a dataset keeps each model's labels: one predict per (dataset, model), however many crafts read them
    predicted = []
    predict = M.AttackTarget.predict

    def counting_predict(self, X):
        predicted.append(len(X))
        return predict(self, X)

    monkeypatch.setattr(M.AttackTarget, "predict", counting_predict)
    ds = D.synth_blobs(3, 40, 5, spread=0.05, seed=2)
    m = M.build_model([M.dense(5, 3)], (5,), seed=1)
    first = D.pseudo_labels(m, ds)
    second = D.pseudo_labels(m, ds)
    assert first is second and predicted == [40]
    assert np.array_equal(first, predict(m, ds.images))

    part = ds.take(np.arange(0, 40, 2), "part")
    assert np.array_equal(D.pseudo_labels(m, part), first[::2]) and predicted == [40, 20]
    other = m.with_params(np.zeros_like(m.params))
    assert other.fingerprint() != m.fingerprint()
    assert np.array_equal(D.pseudo_labels(other, ds), np.zeros(40)) and predicted == [40, 20, 40]
    assert D.pseudo_labels(m, ds) is first and predicted == [40, 20, 40]

    fresh = D.synth_blobs(3, 40, 5, spread=0.05, seed=2)
    config = A.AttackConfig(epochs=1, batch_size=20, k_model=1, k_data=1, rho=0.1, r=0.5, rescale_r=False)
    predicted.clear()
    deltas = [A.craft(config, m, fresh)[0] for _ in range(2)]
    assert predicted == [40]
    assert content_hash(deltas[0]) == content_hash(deltas[1])


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
    for bad in (1.5, -0.5, np.nan):
        with pytest.raises(ValueError, match="outside"):
            D.Dataset(images=np.array([[0.5], [bad]]), labels=np.zeros(2, dtype=np.int64))


def test_dataset_rejects_label_count_mismatch():
    with pytest.raises(ValueError, match="count"):
        D.Dataset(images=np.zeros((3, 2)), labels=np.zeros(2, dtype=np.int64))


def test_dataset_rejects_images_without_samples_or_values():
    with pytest.raises(ValueError, match=r"empty dataset: images of shape \(0, 1, 4, 4\) hold no samples"):
        D.Dataset(images=np.zeros((0, 1, 4, 4)), labels=np.zeros(0, dtype=np.int64))
    with pytest.raises(ValueError, match=r"empty dataset: images of shape \(3, 0\) hold no values per sample"):
        D.Dataset(images=np.zeros((3, 0)), labels=np.zeros(3, dtype=np.int64))
    with pytest.raises(ValueError, match="empty dataset"):
        D.synth_blobs(4, 40, 6, spread=0.1).take(np.array([], dtype=np.int64), "none")
