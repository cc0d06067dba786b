"""Schedule, step schedule and inner loop (vs grid search), Adam ascent step, full craft."""

import hashlib
import os
import subprocess
import sys
import threading
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
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
    model_star, _, x_star = A.inner_minimize(
        m, X, Y, A.step_schedule("model_first", k, k), rho_t, 0.0, rho_t / k, 0.0
    )
    assert x_star is X
    return model_star


def inner_data(m, X, Y, r_t, k):
    """The inner loop's data side alone: k data steps with rho_t = 0."""
    model_star, theta_star, x_star = A.inner_minimize(
        m, X, Y, A.step_schedule("model_first", k, k), 0.0, r_t, 0.0, 1.25 * r_t / k
    )
    assert model_star is m and theta_star is None
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
    theta = m.params.astype(np.float64)[None]
    _, grad = m.with_params(theta[0]).loss_grad(X, Y, "parameters")
    want = optim.l2_pgd_step(theta, grad[None], rho_t, theta, rho_t)
    assert np.array_equal(out.params, want[0])


def test_inner_model_step_longer_than_the_budget_lands_on_the_ball():
    # a model step is projected onto the rho_t-ball, also when alpha_m alone would leave it
    m = two_param_logistic()
    X, Y = np.array([[0.8], [0.3]]), np.array([0, 0])
    rho_t = 0.2
    _, theta_star, _ = A.inner_minimize(m, X, Y, ("model",), rho_t, 0.0, 3 * rho_t, 0.0)
    assert optim.sample_norms(theta_star - m.params)[0] == pytest.approx(rho_t, rel=1e-12)
    assert optim.sample_norms(theta_star - m.params)[0] <= rho_t * (1 + 1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_inner_model_returns_theta_star_as_a_float64_batch_of_one(dtype):
    m = M.build_model([M.dense(2, 3)], (2,), seed=0, dtype=dtype)
    X, Y = np.array([[0.8, 0.1], [0.3, 0.5]]), np.array([0, 2])
    model_star, theta_star, _ = A.inner_minimize(m, X, Y, ("model", "model"), 0.2, 0.0, 0.1, 0.0)
    assert theta_star.dtype == np.float64 and theta_star.shape == (1, m.params.size)
    assert model_star.params.tobytes() == theta_star[0].astype(dtype).tobytes()


def test_inner_model_budget_respected():
    m = two_param_logistic()
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 1, (8, 1))
    Y = rng.integers(0, 2, 8)
    for rho_t in (0.1, 0.5, 2.0):
        out = inner_model(m, X, Y, rho_t, 10)
        disp = np.linalg.norm(out.params - m.params)
        assert disp <= rho_t + 1e-6


def test_inner_model_beats_grid_oracle():
    # 201x201 grid over the rho ball is the independent optimality reference
    m = two_param_logistic()
    rng = np.random.default_rng(1)
    X = rng.uniform(0.2, 1.0, (6, 1))
    Y = rng.integers(0, 2, 6)
    rho_t = 0.3
    out = inner_model(m, X, Y, rho_t, 10)
    achieved = oracles.loss(out, X, Y)
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
    achieved = oracles.loss(m, out, y)
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
    free = A.inner_minimize(m, X, Y, steps, 0.0, r_t, 0.0, 1.25 * r_t / 10)[2]
    assert free.min() < 0.0 or free.max() > 1.0  # unclamped, the descent leaves the box
    _, _, x_star = A.inner_minimize(m, X, Y, steps, 0.0, r_t, 0.0, 1.25 * r_t / 10, clamp_box=True)
    assert x_star.min() >= 0.0 and x_star.max() <= 1.0
    assert np.linalg.norm(x_star - X, axis=1).max() <= r_t + 1e-12
    assert oracles.loss(m, x_star, Y) < oracles.loss(m, X, Y)


def test_inner_data_step_is_one_loss_grad_and_l2_pgd_step():
    # each data step is the summed loss's input gradient at theta-star fed to optim's per-sample
    # l2-PGD rule around the clean samples; the second step of 0.12 leaves the 0.2-ball and is projected
    m = fixed_linear_2d()
    rng = np.random.default_rng(4)
    X = rng.uniform(0, 1, (4, 2))
    Y = rng.integers(0, 2, 4)
    alpha, r_t = 0.12, 0.2
    for clamp in (False, True):
        _, _, x_star = A.inner_minimize(m, X, Y, ("data", "data"), 0.0, r_t, 0.0, alpha, clamp_box=clamp)
        want = X
        for _ in range(2):
            _, grad = m.loss_grad(want, Y, "input", reduction="sum")
            want = optim.l2_pgd_step(want, grad.astype(np.float64), alpha, X, r_t, clamp)
        assert x_star.tobytes() == want.tobytes()
        assert np.linalg.norm(x_star - X, axis=1).max() == pytest.approx(r_t, rel=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_inner_gradients_run_at_the_surrogate_dtype(dtype, monkeypatch):
    # theta-star and x-star are stored in float64 inside their balls, while every gradient the inner
    # steps and the ascent step take runs at the surrogate's own dtype
    seen = []
    loss_grad = M.AttackTarget.loss_grad

    def recording(self, X, Y, wrt, **kwargs):
        loss, grad = loss_grad(self, X, Y, wrt, **kwargs)
        seen.append((wrt, self.params.dtype, grad.dtype))
        return loss, grad

    monkeypatch.setattr(M.AttackTarget, "loss_grad", recording)
    ds = D.synth_blobs(3, 24, 6, spread=0.1, seed=12)
    m = M.build_model([M.dense(6, 12), M.relu(), M.dense(12, 3)], (6,), seed=4, dtype=dtype)
    X, Y = ds.images[:16], ds.labels[:16]
    rho_t, r_t, k = 0.3, 0.2, 3
    model_star, theta_star, x_star = A.inner_minimize(
        m, X, Y, A.step_schedule("alternating", k, k), rho_t, r_t, rho_t / k, 1.25 * r_t / k
    )
    assert theta_star.dtype == x_star.dtype == np.float64
    assert optim.sample_norms(theta_star - m.params)[0] <= rho_t * (1 + 1e-12)
    assert optim.sample_norms(x_star - X).max() <= r_t * (1 + 1e-12)
    assert model_star.params.tobytes() == theta_star[0].astype(dtype).tobytes()
    A.uap_update(A.init_uap((6,), 0.05), optim.AdamState.zeros((6,)), model_star, x_star, Y, 0.01, 0.05)
    assert [wrt for wrt, _, _ in seen] == ["parameters", "input"] * k + ["perturbation"]
    seen.clear()
    A.craft(tiny_config(epochs=2, batch_size=8), m, ds)
    assert len(seen) == 2 * 3 * (3 + 3 + 1)  # epochs x batches x (k_model + k_data + ascent)
    assert {(p, g) for _, p, g in seen} == {(np.dtype(dtype), np.dtype(dtype))}


# a DM craft and the spgd set-up of the benchmark on a float32 3x32x32 cnn_small; prints the trained
# parameters' and the two deltas' SHA-1
_THREADED_CRAFTS = """
import hashlib
from uapforge import attack as A, data as D, models as M

shape = (3, 32, 32)
ds = D.synth_blobs(4, 500, shape, spread=0.12, seed=1)
model = M.train_erm(M.build_model(M.make_architecture("cnn_small", shape, 4), shape, seed=1),
                    ds, epochs=1, lr=0.15, batch=64, seed=1)
hashes = [hashlib.sha1(model.params.tobytes()).hexdigest()]
for variant, data, epochs in (("dm-uap", D.subset(ds, 250, seed=1), 1), ("spgd", ds, 2)):
    cfg = A.apply_variant(A.AttackConfig(epochs=epochs, batch_size=125, k_model=3, k_data=3, seed=1), variant)
    hashes.append(hashlib.sha1(A.craft(cfg, model, data)[0].tobytes()).hexdigest())
print(" ".join(hashes))
"""


def test_delta_bytes_do_not_depend_on_the_blas_thread_count():
    # the model step's norm over 20186 parameters is where a thread-split BLAS dot would differ
    src = os.path.dirname(os.path.dirname(A.__file__))
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", _THREADED_CRAFTS],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        out.append(proc.stdout.split())
    assert len(out[0]) == 3 and out[0] == out[1]


# -- UAP update ------------------------------------------------------------------


def test_uap_update_clamps_to_epsilon():
    m = fixed_linear_2d()
    X = np.tile(np.array([[0.6, 0.4]]), (4, 1))
    Y = np.array([0, 0, 0, 0])
    delta = A.init_uap((2,), 0.05, seed=1)
    # enormous learning rate forces the pre-clamp value far outside the box
    out, _, _ = A.uap_update(delta, optim.AdamState.zeros((2,)), m, X, Y, gamma=10.0, epsilon=0.05)
    assert np.abs(out).max() <= 0.05
    assert np.any(np.abs(out) == 0.05)


def test_uap_update_zero_gradient_keeps_delta():
    m = M.build_model([M.dense(2, 2)], (2,), seed=0, dtype=np.float64)
    m = m.with_params(np.zeros(6))  # constant logits: loss insensitive to delta
    delta = A.init_uap((2,), 0.05, seed=2)
    before = delta.copy()
    out, _, _ = A.uap_update(delta, optim.AdamState.zeros((2,)), m, np.array([[0.4, 0.6]]), np.array([0]),
                             gamma=0.01, epsilon=0.05)
    assert np.array_equal(out, before)


def test_uap_updates_ascend_loss():
    m = fixed_linear_2d()
    rng = np.random.default_rng(5)
    X = rng.uniform(0.2, 0.8, (16, 2))
    Y = m.predict(X)
    delta, adam = A.init_uap((2,), 0.3, seed=3), optim.AdamState.zeros((2,))
    before = oracles.loss(m, X, Y, delta=delta)
    for _ in range(100):
        delta, adam, _ = A.uap_update(delta, adam, m, X, Y, gamma=1e-3, epsilon=0.3)
    after = oracles.loss(m, X, Y, delta=delta)
    assert after >= before


def test_init_uap_within_budget_and_seeded():
    a = A.init_uap((1, 4, 4), 0.1, seed=7)
    b = A.init_uap((1, 4, 4), 0.1, seed=7)
    assert np.array_equal(a, b)
    assert np.abs(a).max() <= 0.1
    c = A.init_uap((1, 4, 4), 0.1, seed=8)
    assert not np.array_equal(a, c)


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

    def escaping_update(delta, adam, model_star, X_star, Y, gamma, epsilon):
        delta, adam, loss = ascent(delta, adam, model_star, X_star, Y, gamma, epsilon)
        return delta + 2 * epsilon, adam, loss

    monkeypatch.setattr(A, "uap_update", escaping_update)
    with pytest.raises(CraftingFailed, match="l-infinity budget violated"):
        A.craft(tiny_config(), model, ds)


@pytest.mark.parametrize("failing", [{0}, {1}, {0, 1}])
def test_craft_failure_names_the_first_failing_batch_and_waits_for_the_pair(blob_setup, monkeypatch, failing):
    # the 48 samples in batches of 16: batches 0 and 1 of epoch 1 are a pair, minimized on two threads
    model, ds = blob_setup
    config = tiny_config()
    batches = list(D.minibatches(ds, config.batch_size, epoch_seed=A._subseed(config.seed, "shuffle") ^ 1))
    inner, finished = A.inner_minimize, []

    def failing_inner(target, X, Y, *args):
        out = inner(target, X, Y, *args)
        i = next(i for i, b in enumerate(batches) if b.X.tobytes() == X.tobytes())
        finished.append(i)
        if i in failing:
            raise ValueError("non-finite loss")
        return out

    monkeypatch.setattr(A, "inner_minimize", failing_inner)
    threads = threading.active_count()
    first = min(failing)
    with pytest.raises(CraftingFailed) as failed:
        A.craft(config, model, ds)
    assert str(failed.value) == f"epoch 1, batch indices {batches[first].indices[:4]}...: non-finite loss"
    # the pair's other minimization was waited for, and the worker thread has exited
    assert sorted(finished) == [0, 1] and threading.active_count() == threads


# a tiny craft whose ascent step leaves the l-infinity ball; prints the optimize flag and the error
_ESCAPING_CRAFT = """
import sys
from uapforge import attack as A, data as D, models as M
from uapforge.errors import CraftingFailed

ascent = A.uap_update


def escaping_update(delta, adam, model_star, X_star, Y, gamma, epsilon):
    delta, adam, loss = ascent(delta, adam, model_star, X_star, Y, gamma, epsilon)
    return delta + 2 * epsilon, adam, loss


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
    delta = A.init_uap((1, 8, 8), 0.1, seed=A._subseed(3, "init-delta"))
    assert content_hash(delta) == "55255b8fc0e4471c02c529781e68770a36e45c96"


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


def second_member(ds):
    """A second trained surrogate for two-model ensembles on the blob data."""
    return M.train_erm(
        M.build_model([M.dense(6, 10), M.relu(), M.dense(10, 3)], (6,), seed=9),
        ds, epochs=8, lr=0.3, batch=16, seed=3,
    )


def test_craft_ensemble(blob_setup):
    model, ds = blob_setup
    delta, log = A.craft(tiny_config(epochs=2), [model, second_member(ds)], ds)
    assert delta.shape == (6,)
    assert np.abs(delta).max() <= 0.08
    assert len(log.epochs) == 2


def log_without_seconds(log):
    """The run log's CSV text less its `seconds` column, the one column that varies between equal runs."""
    rows = [line.split(",") for line in log.csv().splitlines()]
    drop = rows[0].index("seconds")
    return "\n".join(",".join(v for i, v in enumerate(row) if i != drop) for row in rows) + "\n"


# content_hash of the delta and of the run log less `seconds`, for crafts on the 48 blob samples whose
# epochs hold several batches: dm in 3 batches (a pair, then a lone batch), an alternating two-model
# ensemble in 4 and spgd, which takes no inner step, in 5. The hashes were recorded when every batch's
# inner minimization ran on the calling thread, one batch after another.
MULTI_BATCH_CRAFTS = {
    "dm-3-batches": (dict(), False, "20c0dda6dc2b9ffd1f0b1cf9b15798eeaf8f6a95",
                     "28c725d2b1d5f0f55ec34175fd5ed6a0c6326376"),
    "ensemble-alternating-4-batches": (dict(order="alternating", batch_size=12), True,
                                       "14f094589209f9e5925fed3503683bd3f03ce980",
                                       "5c7b16793519c860abac2167a2a293ace05131d4"),
    "spgd-5-batches": (dict(batch_size=10, rho=0.0, r=0.0, variant="spgd"), False,
                       "9a31f456d4e108b4f9fd16386e855813b0eca316",
                       "ac59ed6b025c8ea29906a625521533e10b819d85"),
}


@pytest.mark.parametrize("name", MULTI_BATCH_CRAFTS)
def test_multi_batch_craft_bytes_pinned(blob_setup, name):
    model, ds = blob_setup
    overrides, ensemble, delta_hash, log_hash = MULTI_BATCH_CRAFTS[name]
    delta, log = A.craft(tiny_config(**overrides), [model, second_member(ds)] if ensemble else model, ds)
    assert (content_hash(delta), content_hash(log_without_seconds(log).encode())) == (delta_hash, log_hash)


class CallingThreadExecutor:
    """A stand-in for `ThreadPoolExecutor` whose `submit` runs the call at once, on the calling thread."""

    def __init__(self, max_workers=None):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args, **kwargs):
        future = Future()
        future.set_result(fn(*args, **kwargs))
        return future


@pytest.fixture(scope="module")
def conv_setup():
    """20 blob images of 1x12x12 and, per dtype, two untrained cnn_small surrogates."""
    shape = (1, 12, 12)
    ds = D.synth_blobs(3, 20, shape, spread=0.1, seed=13)
    spec = M.make_architecture("cnn_small", shape, 3, hidden=8)
    models = {dtype: [M.build_model(spec, shape, seed=seed, dtype=dtype) for seed in (1, 2)]
              for dtype in (np.float32, np.float64)}
    return ds, models


@settings(max_examples=16, deadline=None)
@given(
    order=st.sampled_from(A.ORDERS),
    k_model=st.integers(1, 3),
    k_data=st.integers(1, 3),
    rho=st.sampled_from([0.0, 0.3]),
    r=st.sampled_from([0.0, 0.5]),
    curriculum=st.booleans(),
    clamp_data_box=st.booleans(),
    batches=st.integers(1, 5),
    members=st.sampled_from([1, 2]),
    dtype=st.sampled_from([np.float32, np.float64]),
)
def test_paired_craft_equals_serial_craft(conv_setup, order, k_model, k_data, rho, r, curriculum,
                                          clamp_data_box, batches, members, dtype):
    # the pair's second batch minimized on the worker thread, or on the calling thread after the first
    ds, models = conv_setup
    config = tiny_config(epochs=2, batch_size=-(-len(ds) // batches), order=order, k_model=k_model,
                         k_data=k_data, rho=rho, r=r, curriculum=curriculum, clamp_data_box=clamp_data_box)
    target = models[dtype][:members]
    paired = A.craft(config, target, ds)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(A, "ThreadPoolExecutor", CallingThreadExecutor)
        serial = A.craft(config, target, ds)
    assert paired[0].tobytes() == serial[0].tobytes()
    assert log_without_seconds(paired[1]) == log_without_seconds(serial[1])


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
