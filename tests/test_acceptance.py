"""Acceptance suite: one test per criterion, one PASS line each (run with -s).

Criteria 7 and 8 share a desk-scale experiment (three seeded CNNs on an
IDX-round-tripped blob dataset, 500-sample crafting subset) cached in a
module fixture; everything else is self-contained and fast.

Criterion 8's `none` arm is byte-identical to criterion 7's rho=r=0
baseline (criterion 5 proves it), so criterion 8 (dm >= none) is criterion 7
with a margin of 0: the two pass or fail together.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

import oracles
from uapforge import attack as A
from uapforge import autodiff as ad
from uapforge import data as D
from uapforge import evaluate as E
from uapforge import models as M
from uapforge import optim

REL_TOL = 1e-4
FD_H = 1e-5


def rel_err(a, b, floor=1e-6):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def _ok(name, started, detail=""):
    extra = f" {detail}" if detail else ""
    print(f"PASS {name}{extra} ({time.perf_counter() - started:.1f}s)")


# -- criterion 1: gradient correctness ---------------------------------------


GRADCHECK_CNN = [
    M.conv2d(1, 2, 3), M.relu(), M.maxpool2(),
    M.conv2d(2, 3, 3), M.relu(),
    M.flatten(), M.dense(3 * 2 * 2, 4), M.relu(), M.dense(4, 3),
]


def _check_tape_grad(build_loss, x, seed, tol=REL_TOL):
    case = f"{build_loss.__name__} seed {seed}"
    var = ad.leaf(x.copy())
    value = build_loss(var)
    ad.backward(value)
    # the finite differences must probe the same function the tape differentiated
    again = float(build_loss(ad.leaf(x.copy())).value)
    assert again == float(value.value), f"{case}: loss not deterministic ({value.value} then {again})"
    fd = oracles.finite_difference_gradient(lambda a: float(build_loss(ad.leaf(a)).value), x.copy(), FD_H)
    err = rel_err(var.grad, fd)
    assert err <= tol, f"{case}: rel err {err}"
    return err


def _primitive_cases(seed):
    rng = np.random.default_rng(seed)
    w_dense = rng.normal(size=(6, 3))
    b_dense = rng.normal(size=3)
    w_conv = rng.normal(size=(2, 1, 3, 3))
    b_conv = rng.normal(size=2)
    w_head = rng.normal(size=(8, 3))
    labels2 = rng.integers(0, 3, 2)
    # fixed inputs of the weight-gradient cases, drawn once so every probe sees one function
    rng2 = np.random.default_rng(seed + 10_000)
    x_dense = rng2.normal(size=(2, 6))
    x_conv = rng2.uniform(0, 1, (2, 1, 5, 5))

    def dense_loss(v):
        return ad.softmax_cross_entropy(ad.add(ad.matmul(v, ad.leaf(w_dense)), ad.leaf(b_dense)), labels2)

    def dense_w_loss(v):
        return ad.softmax_cross_entropy(ad.add(ad.matmul(ad.leaf(x_dense), v), ad.leaf(b_dense)), labels2)

    def conv_loss(v):
        return ad.softmax_cross_entropy(ad.flatten(ad.conv2d(v, ad.leaf(w_conv), ad.leaf(b_conv))), labels2)

    def conv_w_loss(v):
        return ad.softmax_cross_entropy(ad.flatten(ad.conv2d(ad.leaf(x_conv), v, ad.leaf(b_conv))), labels2)

    def relu_loss(v):
        return ad.softmax_cross_entropy(ad.matmul(ad.relu(v), ad.leaf(w_dense)), labels2)

    def pool_loss(v):
        return ad.softmax_cross_entropy(ad.matmul(ad.flatten(ad.maxpool2(v)), ad.leaf(w_head)), labels2)

    def flatten_loss(v):
        return ad.softmax_cross_entropy(ad.matmul(ad.flatten(v), ad.leaf(w_head)), labels2)

    def norm_loss(v):
        h = ad.normalize(v, mean=[0.3, 0.7], std=[0.6, 0.4])
        return ad.softmax_cross_entropy(ad.matmul(ad.flatten(h), ad.leaf(w_head)), labels2)

    def ce_loss(v):
        return ad.softmax_cross_entropy(v, labels2)

    # (loss builder, input sampler); ReLU/pool probes stay off the kinks
    return [
        (dense_loss, rng.normal(size=(2, 6))),
        (dense_w_loss, rng.normal(size=(6, 3))),
        (conv_loss, rng.uniform(0, 1, (2, 1, 5, 5))),
        (conv_w_loss, rng.normal(size=(2, 1, 3, 3))),
        (relu_loss, rng.choice([-1.0, 1.0], size=(2, 6)) * rng.uniform(0.2, 1.5, (2, 6))),
        (pool_loss, rng.permuted(np.arange(2 * 2 * 16.0)).reshape(2, 2, 4, 4) / 7.0),
        (flatten_loss, rng.normal(size=(2, 2, 2, 2))),
        (norm_loss, rng.uniform(0, 1, (2, 2, 2, 2))),
        (ce_loss, rng.normal(size=(2, 3))),
    ]


def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    cases = 0
    worst = 0.0
    for seed in range(8):
        for build_loss, x in _primitive_cases(seed):
            worst = max(worst, _check_tape_grad(build_loss, x, seed))
            cases += 1
    # full 2-conv + 2-dense CNN: parameters, input, and perturbation gradients
    model = M.build_model(GRADCHECK_CNN, (1, 10, 10), seed=0, dtype=np.float64)
    for seed in range(10):
        rng = np.random.default_rng(200 + seed)
        theta = model.params + rng.normal(scale=0.3, size=model.params.size)
        cnn = model.with_params(theta)
        X = rng.uniform(0, 1, (2, 1, 10, 10))
        Y = rng.integers(0, 3, 2)
        delta = rng.uniform(-0.1, 0.1, (1, 10, 10))

        _, g_theta = cnn.loss_grad(X, Y, "parameters")
        fd_theta = oracles.finite_difference_gradient(
            lambda th: oracles.loss(cnn.with_params(th), X, Y), theta.copy(), FD_H)
        worst = max(worst, rel_err(g_theta, fd_theta))

        _, g_x = cnn.loss_grad(X, Y, "input")
        fd_x = oracles.finite_difference_gradient(lambda a: oracles.loss(cnn, a, Y), X.copy(), FD_H)
        worst = max(worst, rel_err(g_x, fd_x))

        _, g_d = cnn.loss_grad(X, Y, "perturbation", delta=delta)
        fd_d = oracles.finite_difference_gradient(lambda d: oracles.loss(cnn, X, Y, delta=d), delta.copy(), FD_H)
        worst = max(worst, rel_err(g_d, fd_d))
        cases += 3
        assert worst <= REL_TOL, f"seed {seed}: worst rel err {worst}"
    elapsed = time.perf_counter() - started
    assert cases >= 100
    assert worst <= REL_TOL
    assert elapsed < 60.0
    _ok("criterion-1 gradient-correctness", started, f"{cases} cases, max rel err {worst:.2e}")


# -- criteria 7, 8 fixture: the desk-scale experiment --------------------------

EXPERIMENT = {
    "classes": 10,
    "shape": (1, 16, 16),
    "n": 3000,
    "spread": 0.2,
    "holdout": 750,
    "subset": 500,
    "train": dict(epochs=12, lr=0.2, batch=32),
    "attack": dict(epsilon=0.05, epochs=20, batch_size=125, k_model=10, k_data=10,
                   rho=0.3, r=16.0, gamma=0.01),
    "seeds": (0, 1, 2),
}


def _experiment_seed(tmp_path, seed):
    sh = EXPERIMENT["shape"]
    blobs = D.synth_blobs(EXPERIMENT["classes"], EXPERIMENT["n"], sh,
                          EXPERIMENT["spread"], seed=1000 + seed)
    ip, lp = tmp_path / f"img{seed}.idx", tmp_path / f"lab{seed}.idx"
    oracles.save_idx(blobs, ip, lp)
    full = D.load_idx(ip, lp)
    order = np.random.default_rng(seed).permutation(len(full))
    hold_idx = np.sort(order[: EXPERIMENT["holdout"]])
    train_idx = np.sort(order[EXPERIMENT["holdout"] :])
    train = D.Dataset(images=full.images[train_idx], labels=full.labels[train_idx])
    hold = D.Dataset(images=full.images[hold_idx], labels=full.labels[hold_idx])
    spec = M.make_architecture("cnn_small", sh, EXPERIMENT["classes"], hidden=32)
    model = M.train_erm(M.build_model(spec, sh, seed=seed), train, seed=seed, **EXPERIMENT["train"])
    acc = float(np.mean(model.predict(hold.images) == hold.labels))
    assert acc >= 0.9, f"surrogate failed to train (holdout acc {acc:.3f})"
    sub = D.subset(train, EXPERIMENT["subset"], seed=seed)
    return model, sub, hold


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    """Per seed: craft full DM, the rho=r=0 baseline, and order=none; eval on holdout."""
    tmp_path = tmp_path_factory.mktemp("exp")
    out = {"fooling": {"dm": [], "spgd": [], "none": []}, "runlogs": [], "setups": []}
    for seed in EXPERIMENT["seeds"]:
        model, sub, hold = _experiment_seed(tmp_path, seed)
        base = A.AttackConfig(seed=seed, **EXPERIMENT["attack"])
        crafted = {
            "dm": A.craft(base, model, sub),
            "spgd": A.craft(A.apply_variant(base, "spgd"), model, sub),
            "none": A.craft(replace(base, order="none"), model, sub),
        }
        for name, (delta, runlog) in crafted.items():
            out["fooling"][name].append(E.fooling_ratio(model, hold, delta).fooling_ratio)
            if name == "dm":
                out["runlogs"].append((base, runlog, delta))
        out["setups"].append((model, sub, hold, base))
    return out


@pytest.mark.slow
def test_criterion_2_budget_invariants_full_run(experiment):
    started = time.perf_counter()
    # the craft loop asserts all three invariants every batch; re-check the logs
    for base, runlog, delta in experiment["runlogs"]:
        assert len(runlog.epochs) == 20
        eff_r = base.effective_r(EXPERIMENT["shape"])
        for row in runlog.epochs:
            t = row["epoch"]
            assert row["max_delta_inf"] <= base.epsilon
            assert row["max_model_disp"] <= t * base.rho / base.epochs + 1e-6
            assert row["max_data_disp"] <= t * eff_r / base.epochs + 1e-6
        assert np.abs(delta).max() <= base.epsilon
    _ok("criterion-2 budget-invariants", started, f"{len(experiment['runlogs'])} full runs, T=20")


def test_criterion_3_schedule_exactness():
    started = time.perf_counter()
    cfg = A.AttackConfig(epsilon=10 / 255, epochs=20, batch_size=125,
                         k_model=10, k_data=10, rho=1.0, r=32.0, gamma=0.01)
    rho_1, r_1, alpha_m1, alpha_d1 = A.schedule(cfg, 1)
    assert rho_1 == 0.05 and alpha_m1 == 0.005
    assert r_1 == 1.6 and alpha_d1 == 0.2
    rho_20, r_20, alpha_m20, alpha_d20 = A.schedule(cfg, 20)
    assert rho_20 == 1.0 and alpha_m20 == 0.1
    assert r_20 == 32.0 and alpha_d20 == 4.0
    for t in range(1, 21):
        rho_t, r_t, _, _ = A.schedule(cfg, t)
        assert rho_t == t * 1.0 / 20
        assert r_t == t * 32.0 / 20
    _ok("criterion-3 schedule-exactness", started)


def test_criterion_4_inner_optimality_grid_oracle():
    started = time.perf_counter()

    def ball_grid(radius, n=201):
        side = np.linspace(-radius, radius, n)
        dx, dy = np.meshgrid(side, side)
        pts = np.stack([dx.ravel(), dy.ravel()], axis=1)
        return pts[np.linalg.norm(pts, axis=1) <= radius]

    def naive_ce(logits, labels):
        z = logits - logits.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        return float(-logp[np.arange(len(labels)), labels].mean())

    # model side: 2-parameter logistic (logits = [w1*x, w2*x])
    m = M.build_model([M.dense(1, 2, bias=False)], (1,), seed=0, dtype=np.float64)
    m = m.with_params(np.array([0.6, -0.4]))
    rng = np.random.default_rng(1)
    X = rng.uniform(0.2, 1.0, (6, 1))
    Y = rng.integers(0, 2, 6)
    rho_t = 0.3
    steps = A.step_schedule("model_first", 10, 10)
    model_star, _, _ = A.inner_minimize(m, X, Y, steps, rho_t, 0.0, rho_t / 10, 0.0)
    got = oracles.loss(model_star, X, Y)
    best = min(
        naive_ce(np.stack([X[:, 0] * th[0], X[:, 0] * th[1]], axis=1), Y)
        for th in m.params + ball_grid(rho_t)
    )
    assert got <= best + 1e-3, f"model side: {got} vs grid {best}"

    # data side: fixed 2-D linear model, single sample
    md = M.build_model([M.dense(2, 2, bias=False)], (2,), seed=0, dtype=np.float64)
    md = md.with_params(np.array([1.2, -0.7, -0.5, 0.9]))
    x0 = np.array([[0.5, 0.5]])
    y = np.array([1])
    r_t = 0.25
    _, _, x_star = A.inner_minimize(md, x0, y, steps, 0.0, r_t, 0.0, 1.25 * r_t / 10)
    got_d = oracles.loss(md, x_star, y)
    pts = x0 + ball_grid(r_t)
    logits = pts @ md.params.reshape(2, 2)
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    best_d = float((-logp[:, y[0]]).min())
    assert got_d <= best_d + 1e-3, f"data side: {got_d} vs grid {best_d}"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _ok("criterion-4 inner-optimality", started,
        f"model {got:.6f}<=grid+1e-3 {best:.6f}, data {got_d:.6f}<=grid+1e-3 {best_d:.6f}")


@pytest.mark.slow
def test_criterion_5_degenerate_equivalence(experiment):
    started = time.perf_counter()
    model, sub, _, base = experiment["setups"][0]
    zeroed = replace(base, rho=0.0, r=0.0, order="model_first")
    d_zero, _ = A.craft(zeroed, model, sub)
    d_none, _ = A.craft(replace(base, order="none"), model, sub)
    assert d_zero.tobytes() == d_none.tobytes()
    _ok("criterion-5 degenerate-equivalence", started)


@pytest.mark.slow
def test_criterion_6_determinism(experiment, tmp_path, monkeypatch):
    started = time.perf_counter()
    model, sub, hold, base = experiment["setups"][0]
    cfg = A.apply_variant(base, "spgd")
    d1, log1 = A.craft(cfg, model, sub)
    d2, log2 = A.craft(cfg, model, sub)
    assert d1.tobytes() == d2.tobytes()
    p1, p2 = tmp_path / "a.uapt", tmp_path / "b.uapt"
    A.save_uap_artifact(p1, d1, cfg, model, sub, log1)
    A.save_uap_artifact(p2, d2, cfg, model, sub, log2)
    assert p1.read_bytes() == p2.read_bytes()
    counts = set()
    for c in (1, 13, 125, 10_000):
        monkeypatch.setattr(M, "PREDICT_CHUNK", c)
        counts.add(E.fooling_ratio(model, hold, d1).n_changed)
    assert len(counts) == 1
    _ok("criterion-6 determinism", started, "byte-identical artifacts, chunk-invariant counts")


def _per_seed(experiment):
    """Per-seed holdout fooling ratios and dm's final-epoch mean ascent-point loss."""
    f = experiment["fooling"]
    return "; ".join(
        f"seed {seed}: dm {dm:.4f} spgd {spgd:.4f} none {none:.4f}, "
        f"dm final ascent loss {runlog.epochs[-1]['mean_loss']:.3g}"
        for seed, dm, spgd, none, (_, runlog, _) in zip(
            EXPERIMENT["seeds"], f["dm"], f["spgd"], f["none"], experiment["runlogs"]
        )
    )


@pytest.mark.slow
def test_criterion_7_limited_data_directional_echo(experiment):
    started = time.perf_counter()
    dm = float(np.mean(experiment["fooling"]["dm"]))
    spgd = float(np.mean(experiment["fooling"]["spgd"]))
    margin = dm - spgd
    assert margin >= 0.02, (
        f"mean holdout fooling: dm {dm:.4f} vs baseline {spgd:.4f} (margin {margin:+.4f}); "
        f"{_per_seed(experiment)}"
    )
    _ok("criterion-7 limited-data-echo", started,
        f"dm {dm:.4f} vs rho=r=0 {spgd:.4f} (+{margin * 100:.2f}pp over {len(EXPERIMENT['seeds'])} seeds)")


@pytest.mark.slow
def test_criterion_8_order_ablation_echo(experiment):
    started = time.perf_counter()
    mf = float(np.mean(experiment["fooling"]["dm"]))
    none = float(np.mean(experiment["fooling"]["none"]))
    assert mf >= none, f"model_first {mf:.4f} < none {none:.4f}; {_per_seed(experiment)}"
    _ok("criterion-8 order-ablation-echo", started, f"model_first {mf:.4f} >= none {none:.4f}")


def test_criterion_9_evaluation_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(3)
    ds = D.synth_blobs(3, 200, 5, spread=0.15, seed=0)
    model = M.train_erm(
        M.build_model([M.dense(5, 8), M.relu(), M.dense(8, 3)], (5,), seed=1, dtype=np.float64),
        ds, epochs=8, lr=0.3, batch=32, seed=0,
    )
    delta = rng.uniform(-0.3, 0.3, 5)
    report = E.fooling_ratio(model, ds, delta)
    changed = 0
    for i in range(len(ds)):
        x = ds.images[i]
        before = int(np.argmax(model.logits(x[None])[0]))
        after = int(np.argmax(model.logits(np.clip(x + delta, 0.0, 1.0)[None])[0]))
        changed += before != after
    assert report.n_changed == changed
    assert report.fooling_ratio == changed / len(ds)

    zero_models = [
        model,
        M.build_model(M.make_architecture("mlp", (1, 6, 6), 4, hidden=8), (1, 6, 6), seed=2),
        M.build_model(M.make_architecture("cnn_small", (1, 12, 12), 3, hidden=8), (1, 12, 12), seed=3),
    ]
    for zm in zero_models:
        zds = D.synth_blobs(3, 60, zm.input_shape, spread=0.1, seed=5)
        assert E.fooling_ratio(zm, zds, np.zeros(zm.input_shape)).fooling_ratio == 0.0
    _ok("criterion-9 evaluation-oracle", started, f"200-sample loop match, {changed} changes")
