"""Schedule, step schedule and inner loop (vs grid search), Adam ascent step, full craft."""

import hashlib
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from uapforge import attack as A
from uapforge import data as D
from uapforge import models as M
from uapforge import optim
from uapforge.errors import CraftingFailed
from uapforge.tensor import content_hash


def paper_config(**overrides):
    base = dict(epsilon=10 / 255, epochs=20, batch_size=125, k_model=10, k_data=10,
                rho=1.0, r=32.0, gamma=0.01, seed=0)
    base.update(overrides)
    return A.AttackConfig(**base)


def naive_batch_ce(logits, labels):
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(-logp[np.arange(len(labels)), labels].mean())


def ball_grid(radius, n=201):
    """All (dx, dy) offsets of an n x n square grid that fall in the l2 ball."""
    side = np.linspace(-radius, radius, n)
    dx, dy = np.meshgrid(side, side)
    pts = np.stack([dx.ravel(), dy.ravel()], axis=1)
    return pts[np.linalg.norm(pts, axis=1) <= radius]


# -- schedule -----------------------------------------------------------------


def test_schedule_epoch_one():
    cfg = paper_config()
    rho_t, r_t, alpha_m, alpha_d = A.schedule(cfg, 1)
    assert (rho_t, r_t, alpha_m, alpha_d) == (0.05, 1.6, 0.005, 0.2)


def test_schedule_final_epoch():
    cfg = paper_config()
    rho_t, r_t, alpha_m, alpha_d = A.schedule(cfg, 20)
    assert (rho_t, r_t, alpha_m, alpha_d) == (1.0, 32.0, 0.1, 4.0)


def test_schedule_linear_in_t():
    cfg = paper_config()
    for t in range(1, 21):
        rho_t, r_t, _, _ = A.schedule(cfg, t)
        assert rho_t == t * cfg.rho / cfg.epochs
        assert r_t == t * cfg.r / cfg.epochs


def test_schedule_curriculum_off():
    cfg = paper_config(curriculum=False)
    for t in (1, 7, 20):
        assert A.schedule(cfg, t) == (1.0, 32.0, 0.1, 4.0)


def test_schedule_rejects_out_of_range():
    cfg = paper_config()
    for t in (0, 21, -3):
        with pytest.raises(ValueError):
            A.schedule(cfg, t)


def test_config_validation():
    with pytest.raises(ValueError):
        paper_config(rho=-1.0)
    with pytest.raises(ValueError):
        paper_config(gamma=0.0)
    with pytest.raises(ValueError):
        paper_config(order="sideways")
    with pytest.raises(ValueError):
        paper_config(epochs=0)


def test_effective_r_rescale():
    cfg = paper_config()
    assert cfg.effective_r((3, 224, 224)) == pytest.approx(32.0)
    scaled = cfg.effective_r((1, 16, 16))
    assert scaled == pytest.approx(32.0 * np.sqrt(256 / (3 * 224 * 224)))
    assert A.AttackConfig(r=32.0, rescale_r=False).effective_r((1, 16, 16)) == 32.0


def test_variants():
    cfg = paper_config()
    spgd = A.apply_variant(cfg, "spgd")
    assert spgd.rho == 0.0 and spgd.r == 0.0 and spgd.variant == "spgd"
    assert A.apply_variant(cfg, "optimal-data").rho == 0.0
    assert A.apply_variant(cfg, "optimal-params").r == 0.0
    with pytest.raises(ValueError):
        A.apply_variant(cfg, "mystery")


# -- step schedule ----------------------------------------------------------------


def test_step_schedule_orders():
    assert A.step_schedule("model_first", 2, 3) == ("model", "model", "data", "data", "data")
    assert A.step_schedule("data_first", 2, 3) == ("data", "data", "data", "model", "model")
    assert A.step_schedule("alternating", 2, 3) == ("model", "data", "model", "data", "data")
    assert A.step_schedule("alternating", 3, 1) == ("model", "data", "model", "model")
    assert A.step_schedule("none", 2, 3) == ()
    with pytest.raises(ValueError):
        A.step_schedule("sideways", 2, 3)


def inner_model(m, X, Y, rho_t, k):
    """The inner loop's model side alone: k model steps with r_t = 0."""
    model_star, x_star = A.inner_minimize(
        m, X, Y, A.step_schedule("model_first", k, k), rho_t, 0.0, rho_t / k, 0.0
    )
    assert x_star is X
    return model_star


def inner_data(m, X, Y, r_t, k):
    """The inner loop's data side alone: k data steps with rho_t = 0."""
    model_star, x_star = A.inner_minimize(
        m, X, Y, A.step_schedule("model_first", k, k), 0.0, r_t, 0.0, 1.25 * r_t / k
    )
    assert model_star is m
    return x_star


# -- inner model optimization ----------------------------------------------------


def two_param_logistic():
    """Single weight pair (w1, w2), logits = [w1*x, w2*x]: 2-parameter model."""
    m = M.build_model([M.dense(1, 2, bias=False)], (1,), seed=0, dtype=np.float64)
    return m.with_params(np.array([0.6, -0.4]))


def test_inner_model_zero_budget_identity():
    m = two_param_logistic()
    X, Y = np.array([[0.8], [0.3]]), np.array([0, 1])
    out = inner_model(m, X, Y, 0.0, 10)
    assert out is m


def test_inner_model_single_step_collapse():
    m = two_param_logistic()
    X, Y = np.array([[0.8], [0.3]]), np.array([0, 0])
    rho_t = 0.2
    out = inner_model(m, X, Y, rho_t, 1)
    _, grad = m.with_params(m.params.astype(np.float64)).loss_grad(X, Y, "parameters")
    want = optim.normalized_descent_step(m.params.astype(np.float64), grad, rho_t)
    assert np.array_equal(out.flat_params(), want)


def test_inner_model_budget_respected():
    m = two_param_logistic()
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 1, (8, 1))
    Y = rng.integers(0, 2, 8)
    for rho_t in (0.1, 0.5, 2.0):
        out = inner_model(m, X, Y, rho_t, 10)
        disp = np.linalg.norm(out.flat_params() - m.params)
        assert disp <= rho_t + 1e-6


def test_inner_model_beats_grid_oracle():
    # 201x201 grid over the rho ball is the independent optimality reference
    m = two_param_logistic()
    rng = np.random.default_rng(1)
    X = rng.uniform(0.2, 1.0, (6, 1))
    Y = rng.integers(0, 2, 6)
    rho_t = 0.3
    out = inner_model(m, X, Y, rho_t, 10)
    achieved = out.loss(X, Y)
    thetas = m.params + ball_grid(rho_t)  # [g, 2] candidate weight pairs
    w1 = thetas[:, 0][None, :] * X  # logits [x * w1_g] per sample, [6, g]
    w2 = thetas[:, 1][None, :] * X
    best = min(
        naive_batch_ce(np.stack([w1[:, g], w2[:, g]], axis=1), Y)
        for g in range(thetas.shape[0])
    )
    assert achieved <= best + 1e-3


def test_inner_model_original_untouched():
    m = two_param_logistic()
    before = m.params.tobytes()
    inner_model(m, np.array([[0.5]]), np.array([0]), 0.4, 5)
    assert m.params.tobytes() == before


# -- inner data optimization -------------------------------------------------------


def fixed_linear_2d():
    m = M.build_model([M.dense(2, 2, bias=False)], (2,), seed=0, dtype=np.float64)
    return m.with_params(np.array([1.2, -0.7, -0.5, 0.9]))  # W = [[1.2, -0.7], [-0.5, 0.9]]


def test_inner_data_zero_budget_identity():
    m = fixed_linear_2d()
    X = np.array([[0.4, 0.6]])
    out = inner_data(m, X, np.array([0]), 0.0, 10)
    assert out is X


def test_inner_data_budget_respected():
    m = fixed_linear_2d()
    rng = np.random.default_rng(2)
    X = rng.uniform(0, 1, (5, 2))
    Y = rng.integers(0, 2, 5)
    for r_t in (0.05, 0.3, 1.0):
        out = inner_data(m, X, Y, r_t, 10)
        disp = np.linalg.norm(out - X, axis=1)
        assert disp.max() <= r_t + 1e-6


def test_inner_data_beats_grid_oracle():
    m = fixed_linear_2d()
    x0 = np.array([[0.5, 0.5]])
    y = np.array([1])
    r_t = 0.25
    out = inner_data(m, x0, y, r_t, 10)
    achieved = m.loss(out, y)
    pts = x0 + ball_grid(r_t)
    W = m.params.reshape(2, 2)
    logits = pts @ W
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    best = float((-logp[:, y[0]]).min())
    assert achieved <= best + 1e-3


def test_inner_data_batch_equals_independent_runs():
    m = fixed_linear_2d()
    rng = np.random.default_rng(3)
    X = rng.uniform(0, 1, (7, 2))
    Y = rng.integers(0, 2, 7)
    batch_out = inner_data(m, X, Y, 0.3, 5)
    for i in range(7):
        single = inner_data(m, X[i : i + 1], Y[i : i + 1], 0.3, 5)
        # BLAS reduction order varies with batch size; agreement is to the ulp
        assert np.allclose(single[0], batch_out[i], rtol=0, atol=1e-14)


def test_inner_data_clamp_box_keeps_edge_samples_in_box_and_ball():
    m = fixed_linear_2d()
    X = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0], [1.0, 1.0], [0.0, 0.5]])
    Y = np.array([0, 1, 0, 1, 0])
    steps = A.step_schedule("model_first", 1, 10)
    r_t = 0.3
    free = A.inner_minimize(m, X, Y, steps, 0.0, r_t, 0.0, 1.25 * r_t / 10)[1]
    assert free.min() < 0.0 or free.max() > 1.0  # unclamped, the descent leaves the box
    _, x_star = A.inner_minimize(m, X, Y, steps, 0.0, r_t, 0.0, 1.25 * r_t / 10, clamp_box=True)
    assert x_star.min() >= 0.0 and x_star.max() <= 1.0
    assert np.linalg.norm(x_star - X, axis=1).max() <= r_t + 1e-12
    assert m.loss(x_star, Y) < m.loss(X, Y)


def test_inner_data_step_is_one_loss_grad_and_l2_pgd_step():
    # each data step is the summed loss's input gradient at theta-star fed to optim's per-sample
    # l2-PGD rule around the clean samples; the second step of 0.12 leaves the 0.2-ball and is projected
    m = fixed_linear_2d()
    rng = np.random.default_rng(4)
    X = rng.uniform(0, 1, (4, 2))
    Y = rng.integers(0, 2, 4)
    alpha, r_t = 0.12, 0.2
    for clamp in (False, True):
        _, x_star = A.inner_minimize(m, X, Y, ("data", "data"), 0.0, r_t, 0.0, alpha, clamp_box=clamp)
        want = X
        for _ in range(2):
            _, grad = m.loss_grad(want, Y, "input", reduction="sum")
            want = optim.l2_pgd_step(want, grad.astype(np.float64), alpha, X, r_t, clamp)
        assert x_star.tobytes() == want.tobytes()
        assert np.linalg.norm(x_star - X, axis=1).max() == pytest.approx(r_t, rel=1e-12)


# -- UAP update ------------------------------------------------------------------


def test_uap_update_clamps_to_epsilon():
    m = fixed_linear_2d()
    X = np.tile(np.array([[0.6, 0.4]]), (4, 1))
    Y = np.array([0, 0, 0, 0])
    uap = A.init_uap((2,), 0.05, seed=1)
    # enormous learning rate forces the pre-clamp value far outside the box
    out, _ = A.uap_update(uap, m, X, Y, gamma=10.0)
    assert np.abs(out.delta).max() <= 0.05
    assert np.any(np.abs(out.delta) == 0.05)


def test_uap_update_zero_gradient_keeps_delta():
    m = M.build_model([M.dense(2, 2)], (2,), seed=0, dtype=np.float64)
    m = m.with_params(np.zeros(6))  # constant logits: loss insensitive to delta
    uap = A.init_uap((2,), 0.05, seed=2)
    before = uap.delta.copy()
    out, _ = A.uap_update(uap, m, np.array([[0.4, 0.6]]), np.array([0]), gamma=0.01)
    assert np.array_equal(out.delta, before)


def test_uap_updates_ascend_loss():
    m = fixed_linear_2d()
    rng = np.random.default_rng(5)
    X = rng.uniform(0.2, 0.8, (16, 2))
    Y = m.predict(X)
    uap = A.init_uap((2,), 0.3, seed=3)
    before = m.loss(X, Y, delta=uap.delta)
    for _ in range(100):
        uap, _ = A.uap_update(uap, m, X, Y, gamma=1e-3)
    after = m.loss(X, Y, delta=uap.delta)
    assert after >= before


def test_init_uap_within_budget_and_seeded():
    a = A.init_uap((1, 4, 4), 0.1, seed=7)
    b = A.init_uap((1, 4, 4), 0.1, seed=7)
    assert np.array_equal(a.delta, b.delta)
    assert np.abs(a.delta).max() <= 0.1
    c = A.init_uap((1, 4, 4), 0.1, seed=8)
    assert not np.array_equal(a.delta, c.delta)


# -- craft --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def blob_setup():
    ds = D.synth_blobs(3, 48, 6, spread=0.08, seed=10)
    m = M.build_model([M.dense(6, 12), M.relu(), M.dense(12, 3)], (6,), seed=1)
    trained = M.train_erm(m, ds, epochs=10, lr=0.3, batch=16, seed=2)
    return trained, ds


def tiny_config(**overrides):
    base = dict(epsilon=0.08, epochs=3, batch_size=16, k_model=3, k_data=3,
                rho=0.2, r=0.15, gamma=0.01, seed=5, rescale_r=False)
    base.update(overrides)
    return A.AttackConfig(**base)


def test_craft_output_within_budget(blob_setup):
    model, ds = blob_setup
    delta, log = A.craft(tiny_config(), model, ds)
    assert np.abs(delta).max() <= 0.08
    assert len(log.epochs) == 3
    assert all(e["max_model_disp"] <= e["rho_t"] + 1e-6 for e in log.epochs)
    assert all(e["max_data_disp"] <= e["r_t"] + 1e-6 for e in log.epochs)


def test_craft_clamp_data_box_within_budgets(blob_setup):
    model, ds = blob_setup
    config = tiny_config(clamp_data_box=True, r=0.6)
    delta, log = A.craft(config, model, ds)
    assert np.abs(delta).max() <= config.epsilon
    assert len(log.epochs) == config.epochs
    assert all(e["max_model_disp"] <= e["rho_t"] + 1e-6 for e in log.epochs)
    assert all(0.0 < e["max_data_disp"] <= e["r_t"] + 1e-6 for e in log.epochs)


def test_craft_deterministic(blob_setup):
    model, ds = blob_setup
    d1, _ = A.craft(tiny_config(), model, ds)
    d2, _ = A.craft(tiny_config(), model, ds)
    assert d1.tobytes() == d2.tobytes()


def test_craft_degenerate_paths_identical(blob_setup):
    model, ds = blob_setup
    d_none, _ = A.craft(tiny_config(order="none"), model, ds)
    for order in A.ORDERS:
        d_zero, _ = A.craft(tiny_config(rho=0.0, r=0.0, order=order), model, ds)
        assert d_zero.tobytes() == d_none.tobytes(), order


def test_craft_budget_violation_raises(blob_setup, monkeypatch):
    model, ds = blob_setup
    ascent = A.uap_update

    def escaping_update(uap, *args):
        out, loss = ascent(uap, *args)
        return replace(out, delta=out.delta + 2 * out.epsilon), loss

    monkeypatch.setattr(A, "uap_update", escaping_update)
    with pytest.raises(CraftingFailed, match="l-infinity budget violated"):
        A.craft(tiny_config(), model, ds)


# a tiny craft whose ascent step leaves the l-infinity ball; prints the optimize flag and the error
_ESCAPING_CRAFT = """
import sys
from dataclasses import replace
from uapforge import attack as A, data as D, models as M
from uapforge.errors import CraftingFailed

ascent = A.uap_update


def escaping_update(uap, *args):
    out, loss = ascent(uap, *args)
    return replace(out, delta=out.delta + 2 * out.epsilon), loss


A.uap_update = escaping_update
ds = D.synth_blobs(3, 30, 6, spread=0.1, seed=0)
model = M.build_model([M.dense(6, 3)], (6,), seed=0)
try:
    A.craft(A.AttackConfig(epsilon=0.05, epochs=1, batch_size=10, k_model=1, k_data=1), model, ds)
except CraftingFailed as exc:
    print(sys.flags.optimize, exc)
"""


def test_craft_budget_violation_raises_under_python_O():
    src = os.path.dirname(os.path.dirname(A.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", _ESCAPING_CRAFT],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("1 ") and "l-infinity budget violated" in proc.stdout, proc.stdout


def test_seed_salts_and_initial_delta_pinned():
    # FNV-1a seed salts and the initial delta draw: these fix every crafted delta's bytes
    assert [A._subseed(s, "init-delta") for s in (0, 3)] == [11545150317119548076, 11545150317119548079]
    assert [A._subseed(s, "shuffle") for s in (0, 3)] == [5151100648028894894, 5151100648028894893]
    uap = A.init_uap((1, 8, 8), 0.1, seed=A._subseed(3, "init-delta"))
    assert content_hash(uap.delta) == "55255b8fc0e4471c02c529781e68770a36e45c96"


def test_craft_orders_pairwise_distinct(blob_setup):
    model, ds = blob_setup
    deltas = {}
    for order in A.ORDERS:
        deltas[order], _ = A.craft(tiny_config(order=order), model, ds)
    names = list(A.ORDERS)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            assert np.abs(deltas[a] - deltas[b]).max() > 1e-6, (a, b)


def test_craft_epoch_shuffles_differ(blob_setup):
    model, ds = blob_setup
    # different top seeds change both the init and the shuffles
    d1, _ = A.craft(tiny_config(seed=5), model, ds)
    d2, _ = A.craft(tiny_config(seed=6), model, ds)
    assert not np.array_equal(d1, d2)


def test_craft_rejects_shape_mismatch(blob_setup):
    model, _ = blob_setup
    other = D.synth_blobs(3, 16, 5, spread=0.1, seed=0)
    with pytest.raises(ValueError, match="sample shape"):
        A.craft(tiny_config(), model, other)


def test_craft_ensemble(blob_setup):
    model, ds = blob_setup
    other = M.train_erm(
        M.build_model([M.dense(6, 10), M.relu(), M.dense(10, 3)], (6,), seed=9),
        ds, epochs=8, lr=0.3, batch=16, seed=3,
    )
    delta, log = A.craft(tiny_config(epochs=2), [model, other], ds)
    assert delta.shape == (6,)
    assert np.abs(delta).max() <= 0.08
    assert len(log.epochs) == 2


def test_craft_parameterless_model_takes_no_model_step():
    ds = D.synth_blobs(3, 24, 3, spread=0.08, seed=11)
    m = M.build_model([M.relu()], (3,), dtype=np.float64)
    delta, log = A.craft(tiny_config(epochs=2, batch_size=8), m, ds)
    assert np.abs(delta).max() <= 0.08
    assert [e["max_model_disp"] for e in log.epochs] == [0.0, 0.0]


def test_artifact_roundtrip(tmp_path, blob_setup):
    model, ds = blob_setup
    cfg = tiny_config()
    delta, log = A.craft(cfg, model, ds)
    path = tmp_path / "delta.uapt"
    meta = A.save_uap_artifact(path, delta, cfg, model, ds, log)
    back, meta2 = A.load_uap_artifact(path)
    assert np.array_equal(back, delta)
    assert meta2["config"]["epsilon"] == cfg.epsilon
    assert meta2["model_fingerprint"] == model.fingerprint()
    assert meta2["dataset_fingerprint"] == ds.fingerprint
    assert meta2["content_hash"] == hashlib.sha1(path.read_bytes()).hexdigest()
    assert (tmp_path / "delta.uapt.log.csv").exists()
