"""Fooling ratios against a naive loop oracle, transfer matrices, report files."""

import json

import numpy as np
import pytest

from uapforge import data as D
from uapforge import evaluate as E
from uapforge import models as M


def naive_fooling(model, dataset, delta):
    """Sample-by-sample loop: count prediction changes under clip(x + delta)."""
    changed = 0
    for i in range(len(dataset)):
        x = dataset.images[i]
        before = int(np.argmax(model.logits(x[None])[0]))
        after = int(np.argmax(model.logits(np.clip(x + delta, 0.0, 1.0)[None])[0]))
        changed += before != after
    return changed / len(dataset)


@pytest.fixture(scope="module")
def setup():
    ds = D.synth_blobs(3, 200, 5, spread=0.15, seed=0)
    m = M.build_model([M.dense(5, 8), M.relu(), M.dense(8, 3)], (5,), seed=1, dtype=np.float64)
    trained = M.train_erm(m, ds, epochs=8, lr=0.3, batch=32, seed=0)
    return trained, ds


def test_zero_delta_zero_ratio(setup):
    model, ds = setup
    rep = E.fooling_ratio(model, ds, np.zeros(5))
    assert rep.fooling_ratio == 0.0
    assert rep.n_changed == 0
    assert rep.n_evaluated == len(ds)


def test_hand_enumeration_threshold_model():
    # w = [[-1, 1]], bias 0: predicts 1 iff x > 0; inputs 0.6 and 0.1 with
    # delta -0.2 flip only the first (0.6 -> 0.4 stays >0... use threshold 0.5)
    m = M.build_model([M.dense(1, 2)], (1,), seed=0, dtype=np.float64)
    m = m.with_params(np.array([-1.0, 1.0, 0.5, -0.5]))  # decide sign of x - 0.5
    ds = D.Dataset(images=np.array([[0.6], [0.1]]), labels=np.array([1, 0]))
    rep = E.fooling_ratio(m, ds, np.array([-0.2]))
    assert rep.fooling_ratio == 0.5


def test_matches_naive_oracle(setup):
    model, ds = setup
    rng = np.random.default_rng(7)
    delta = rng.uniform(-0.3, 0.3, 5)
    rep = E.fooling_ratio(model, ds, delta)
    assert rep.fooling_ratio == naive_fooling(model, ds, delta)


def test_chunk_width_does_not_change_counts(setup, monkeypatch):
    model, ds = setup
    delta = np.random.default_rng(8).uniform(-0.3, 0.3, 5)
    reports = []
    for c in (1, 7, 64, 1000):
        monkeypatch.setattr(M, "PREDICT_CHUNK", c)
        reports.append(E.fooling_ratio(model, ds, delta))
    assert len({r.n_changed for r in reports}) == 1


def test_permutation_invariant(setup):
    model, ds = setup
    delta = np.random.default_rng(9).uniform(-0.3, 0.3, 5)
    perm = np.random.default_rng(0).permutation(len(ds))
    shuffled = D.Dataset(images=ds.images[perm], labels=ds.labels[perm])
    a = E.fooling_ratio(model, ds, delta)
    b = E.fooling_ratio(model, shuffled, delta)
    assert a.fooling_ratio == b.fooling_ratio


def test_accuracy_bookkeeping(setup):
    model, ds = setup
    delta = np.random.default_rng(10).uniform(-0.4, 0.4, 5)
    rep = E.fooling_ratio(model, ds, delta)
    assert 0.0 <= rep.fooling_ratio <= 1.0
    assert rep.n_changed >= rep.n_correct_to_wrong  # changes superset correct->wrong
    assert 0.0 <= rep.clean_accuracy <= 1.0
    assert 0.0 <= rep.perturbed_accuracy <= 1.0


def test_shape_mismatch(setup):
    model, ds = setup
    with pytest.raises(ValueError, match="delta shape"):
        E.fooling_ratio(model, ds, np.zeros(4))


# -- transfer matrix ----------------------------------------------------------


def test_single_model_matrix_equals_whitebox(setup):
    model, ds = setup
    delta = np.random.default_rng(11).uniform(-0.3, 0.3, 5)
    tm = E.transfer_matrix([("m0", model)], [("m0", delta)], ds)
    direct = E.fooling_ratio(model, ds, delta)
    assert tm.ratios == [[direct.fooling_ratio]]
    assert tm.row_averages == [direct.fooling_ratio]


def test_zero_delta_rows_are_zero(setup):
    model, ds = setup
    tm = E.transfer_matrix([("m0", model)], [("z", np.zeros(5))], ds)
    assert tm.ratios == [[0.0]]


def test_matrix_entries_match_direct_calls(setup):
    model, ds = setup
    second = M.train_erm(
        M.build_model([M.dense(5, 6), M.relu(), M.dense(6, 3)], (5,), seed=5, dtype=np.float64),
        ds, epochs=6, lr=0.3, batch=32, seed=1,
    )
    rng = np.random.default_rng(12)
    deltas = [("a", rng.uniform(-0.3, 0.3, 5)), ("b", rng.uniform(-0.3, 0.3, 5))]
    models = [("m0", model), ("m1", second)]
    tm = E.transfer_matrix(models, deltas, ds)
    for i, (_, delta) in enumerate(deltas):
        for j, (mid, m) in enumerate(models):
            assert tm.ratios[i][j] == E.fooling_ratio(m, ds, delta, model_id=mid).fooling_ratio


def test_matrix_predicts_clean_samples_once_per_target(setup, monkeypatch):
    model, ds = setup
    targets = [(f"m{j}", model.with_params(model.params * scale)) for j, scale in enumerate((1.0, 0.8, 1.3))]
    rng = np.random.default_rng(15)
    deltas = [("a", rng.uniform(-0.3, 0.3, 5)), ("b", rng.uniform(-0.3, 0.3, 5))]
    seen = []
    predict = M.AttackTarget.predict
    monkeypatch.setattr(M.AttackTarget, "predict", lambda self, X: seen.append(X) or predict(self, X))
    tm = E.transfer_matrix(targets, deltas, ds)
    # (D + 1) * T passes: three clean ones, then one clipped batch per delta shared by the three targets
    assert len(seen) == (len(deltas) + 1) * len(targets)
    assert all(X is ds.images for X in seen[:3])
    first, second = seen[3:6], seen[6:9]
    assert all(X is first[0] for X in first) and all(X is second[0] for X in second)
    assert first[0] is not second[0] and first[0] is not ds.images
    monkeypatch.undo()
    cells = [E.fooling_ratio(m, ds, delta, model_id=mid, surrogate=tag) for tag, delta in deltas for mid, m in targets]
    assert tm.reports == cells


# -- report files ----------------------------------------------------------------

CELL = E.FoolingReport(
    model_id="target", dataset_fingerprint="fp", delta_hash="dh", n_evaluated=100, n_changed=12,
    fooling_ratio=0.123456, surrogate="src", clean_accuracy=0.9, perturbed_accuracy=0.8, n_correct_to_wrong=11,
)


def one_by_one(report):
    """The 1x1 transfer matrix whose one cell is `report`."""
    return E.TransferMatrix(
        surrogates=[report.surrogate], targets=[report.model_id], ratios=[[report.fooling_ratio]],
        row_averages=[report.fooling_ratio], dataset_fingerprint=report.dataset_fingerprint, reports=[report],
    )


def test_json_roundtrip(tmp_path, setup):
    model, ds = setup
    tm = E.transfer_matrix([("m0", model)], [("", np.random.default_rng(13).uniform(-0.2, 0.2, 5))], ds)
    path = tmp_path / "report.json"
    E.report_write(tm, path, "json")
    parsed = json.loads(path.read_text())["reports"][0]
    assert parsed["fooling_ratio"] == round(tm.reports[0].fooling_ratio, 4)
    assert parsed["model_id"] == "m0"
    assert parsed["n_evaluated"] == len(ds)


def test_csv_formatting(tmp_path):
    path = tmp_path / "report.csv"
    E.report_write(one_by_one(CELL), path, "csv")
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "surrogate,target,fooling_ratio,n,dataset_fp,delta_hash"
    assert lines[1] == "src,target,0.1235,100,fp,dh"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_failed_report_write_leaves_no_file(tmp_path, fail_writes, fmt):
    fail_writes(f"report.{fmt}")
    with pytest.raises(OSError):
        E.report_write(one_by_one(CELL), tmp_path / f"report.{fmt}", fmt)
    assert list(tmp_path.iterdir()) == []


def test_writes_deterministic(tmp_path, setup):
    model, ds = setup
    tm = E.transfer_matrix([("", model)], [("", np.random.default_rng(14).uniform(-0.2, 0.2, 5))], ds)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    E.report_write(tm, p1, "json")
    E.report_write(tm, p2, "json")
    assert p1.read_bytes() == p2.read_bytes()


def test_unknown_format(tmp_path, setup):
    model, ds = setup
    tm = E.transfer_matrix([("", model)], [("", np.zeros(5))], ds)
    with pytest.raises(ValueError, match="format"):
        E.report_write(tm, tmp_path / "x.bin", "parquet")
