"""Model building, training, prediction, distances, ensembles."""

import numpy as np
import pytest

import oracles
from uapforge import autodiff as ad
from uapforge import data as D
from uapforge import models as M
from uapforge.errors import ConfigError, TrainingDiverged
from uapforge.tensor import array_fingerprint, content_hash


def naive_forward(model, x):
    """Plain-loop re-implementation of the forward pass for one sample."""
    _, layout, _ = M.walk(model.spec, model.input_shape)
    arrays = [model.params[o : o + int(np.prod(s))].reshape(s) for o, s, _ in layout]
    it = iter(arrays)
    h = np.array(x, dtype=np.float64)
    for layer in model.spec:
        if layer["kind"] == "dense":
            W, b = next(it), next(it)
            out = np.zeros(W.shape[1])
            for j in range(W.shape[1]):
                acc = 0.0
                for i in range(W.shape[0]):
                    acc += h[i] * W[i, j]
                out[j] = acc + b[j]
            h = out
        elif layer["kind"] == "conv2d":
            W, b = next(it), next(it)
            outc, inc, kh, kw = W.shape
            _, H, Wd = h.shape
            out = np.zeros((outc, H - kh + 1, Wd - kw + 1))
            for o in range(outc):
                for r in range(H - kh + 1):
                    for c in range(Wd - kw + 1):
                        acc = 0.0
                        for ci in range(inc):
                            for u in range(kh):
                                for v in range(kw):
                                    acc += h[ci, r + u, c + v] * W[o, ci, u, v]
                        out[o, r, c] = acc + b[o]
            h = out
        elif layer["kind"] == "relu":
            h = np.maximum(h, 0.0)
        elif layer["kind"] == "maxpool2":
            C, H, Wd = h.shape
            out = np.zeros((C, H // 2, Wd // 2))
            for ci in range(C):
                for r in range(H // 2):
                    for c in range(Wd // 2):
                        out[ci, r, c] = max(
                            h[ci, 2 * r, 2 * c], h[ci, 2 * r, 2 * c + 1],
                            h[ci, 2 * r + 1, 2 * c], h[ci, 2 * r + 1, 2 * c + 1],
                        )
            h = out
        elif layer["kind"] == "flatten":
            h = h.reshape(-1)
        elif layer["kind"] == "normalize":
            mean = np.array(layer["mean"]).reshape(-1, 1, 1)
            std = np.array(layer["std"]).reshape(-1, 1, 1)
            h = (h - mean) / std
    return h


CNN_SPEC = [
    M.conv2d(1, 3, 3), M.relu(), M.maxpool2(),
    M.flatten(), M.dense(3 * 3 * 3, 8), M.relu(), M.dense(8, 4),
]


# -- build_model -------------------------------------------------------------


def test_build_deterministic():
    a = M.build_model(CNN_SPEC, (1, 8, 8), seed=42)
    b = M.build_model(CNN_SPEC, (1, 8, 8), seed=42)
    assert a.params.tobytes() == b.params.tobytes()
    c = M.build_model(CNN_SPEC, (1, 8, 8), seed=43)
    assert a.params.tobytes() != c.params.tobytes()


def test_dense_param_count():
    m = M.build_model([M.dense(4, 3)], (4,), seed=0)
    assert m.params.size == 4 * 3 + 3


def test_conv_param_count():
    m = M.build_model([M.conv2d(1, 8, 3), M.flatten(), M.dense(8 * 26 * 26, 2)], (1, 28, 28), seed=0)
    _, layout, _ = M.walk(m.spec, m.input_shape)
    assert int(np.prod(layout[0][1])) == 72 and int(np.prod(layout[1][1])) == 8


def test_non_composing_spec_rejected():
    with pytest.raises(ValueError, match="dense"):
        M.build_model([M.dense(4, 3), M.dense(5, 2)], (4,), seed=0)
    with pytest.raises(ValueError, match="conv2d"):
        M.build_model([M.conv2d(2, 4, 3)], (1, 8, 8), seed=0)
    with pytest.raises(ValueError, match="kernel"):
        M.build_model([M.conv2d(1, 4, 5)], (1, 3, 3), seed=0)


BAD_LAYERS = {
    "zero-width": ([M.flatten(), M.dense(16, 0)], "out_features"),
    "float-width": ([M.flatten(), M.dense(16, 3.0)], "out_features"),
    "bool-kernel": ([M.conv2d(1, 2, True)], "kernel"),
    "string-bias": ([M.flatten(), M.dense(16, 3, bias="no")], "bias"),
    "zero-std": ([M.normalize([0.5], [0.0]), M.flatten(), M.dense(16, 3)], "normalize"),
    "nan-mean": ([M.normalize([np.nan], [0.5]), M.flatten(), M.dense(16, 3)], "normalize"),
    "inf-std": ([M.normalize([0.5], [np.inf]), M.flatten(), M.dense(16, 3)], "normalize"),
    "extra-key": ([M.flatten(), {**M.dense(16, 3), "kernel": 3}], "keys"),
    "unknown-kind": ([{"kind": "softmax"}, M.flatten(), M.dense(16, 3)], "known kind"),
}


@pytest.mark.parametrize("spec,match", BAD_LAYERS.values(), ids=BAD_LAYERS.keys())
def test_infer_shapes_rejects_bad_layer_fields(spec, match):
    with pytest.raises(ValueError, match=match):
        M.walk(spec, (1, 4, 4))
    with pytest.raises(ValueError, match=match):
        M.build_model(spec, (1, 4, 4), seed=0)


def test_output_must_be_logit_vector():
    with pytest.raises(ValueError, match="logit"):
        M.build_model([M.conv2d(1, 2, 3)], (1, 8, 8), seed=0)


# -- predict ------------------------------------------------------------------


def test_predict_argmax():
    m = M.build_model([M.dense(3, 3)], (3,), seed=0, dtype=np.float64)
    # identity weights, zero bias: logits == input
    theta = np.concatenate([np.eye(3).reshape(-1), np.zeros(3)])
    m = m.with_params(theta)
    assert m.predict(np.array([[0.1, 0.9, 0.3]]))[0] == 1
    assert m.predict(np.array([[0.5, 0.5, 0.0]]))[0] == 0  # tie -> lowest index


def test_predict_matches_naive_forward():
    m = M.build_model(CNN_SPEC, (1, 8, 8), seed=3, dtype=np.float64)
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 1, (100, 1, 8, 8))
    preds = m.predict(X)
    logits = m.logits(X)
    for i in range(100):
        naive = naive_forward(m, X[i])
        assert np.allclose(logits[i], naive, rtol=1e-10, atol=1e-12)
        assert preds[i] == int(np.argmax(naive))


def test_predict_shift_invariant():
    m = M.build_model([M.dense(4, 3)], (4,), seed=9, dtype=np.float64)
    X = np.random.default_rng(1).uniform(0, 1, (20, 4))
    base = m.predict(X)
    shifted = m.with_params(np.concatenate([m.params[:-3], m.params[-3:] + 7.5]))
    assert np.array_equal(shifted.predict(X), base)


def test_predict_shape_mismatch():
    m = M.build_model([M.dense(4, 2)], (4,), seed=0)
    with pytest.raises(ValueError, match="input shape"):
        m.predict(np.zeros((2, 5)))


# -- training -----------------------------------------------------------------


def test_train_erm_separable_blobs():
    ds = D.synth_blobs(2, 120, 6, spread=0.03, seed=5)
    m = M.build_model([M.dense(6, 16), M.relu(), M.dense(16, 2)], (6,), seed=1)
    trained = M.train_erm(m, ds, epochs=20, lr=0.5, batch=32, seed=7)
    assert trained.history[-1]["accuracy"] >= 0.99
    assert trained.history[-1]["loss"] < trained.history[0]["loss"]


def test_train_zero_epochs_identity():
    ds = D.synth_blobs(2, 20, 4, spread=0.05, seed=0)
    m = M.build_model([M.dense(4, 2)], (4,), seed=2)
    out = M.train_erm(m, ds, epochs=0, lr=0.1, batch=8)
    assert out.params.tobytes() == m.params.tobytes()


def test_train_rejects_negative_epochs():
    ds = D.synth_blobs(2, 20, 4, spread=0.05, seed=0)
    m = M.build_model([M.dense(4, 2)], (4,), seed=2)
    with pytest.raises(ValueError, match="epochs"):
        M.train_erm(m, ds, epochs=-1, lr=0.1, batch=8)


def test_train_deterministic():
    ds = D.synth_blobs(3, 60, 5, spread=0.05, seed=1)
    m = M.build_model([M.dense(5, 8), M.relu(), M.dense(8, 3)], (5,), seed=0)
    a = M.train_erm(m, ds, epochs=5, lr=0.2, batch=16, seed=11)
    b = M.train_erm(m, ds, epochs=5, lr=0.2, batch=16, seed=11)
    assert a.params.tobytes() == b.params.tobytes()


def test_train_divergence_reports_epoch():
    ds = D.synth_blobs(2, 40, 4, spread=0.05, seed=2)
    m = M.build_model([M.dense(4, 8), M.relu(), M.dense(8, 2)], (4,), seed=0)
    with pytest.raises(TrainingDiverged, match="epoch"):
        with np.errstate(all="ignore"):
            M.train_erm(m, ds, epochs=50, lr=1e12, batch=8)


@pytest.mark.parametrize("lr", [1e308, np.inf, np.nan])
def test_train_divergence_in_the_last_step_is_refused(lr):
    # one batch, one epoch: no later loss_grad sees the non-finite parameters the step leaves
    ds = D.synth_blobs(2, 16, 4, spread=0.05, seed=2)
    m = M.build_model([M.dense(4, 8), M.relu(), M.dense(8, 2)], (4,), seed=0)
    with pytest.raises(TrainingDiverged, match="epoch 1: non-finite values in parameters"):
        with np.errstate(all="ignore"):
            M.train_erm(m, ds, epochs=1, lr=lr, batch=16)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_train_erm_matches_hand_written_loop(dtype):
    # pins the batch order and update rule: a fresh permutation per epoch from
    # seed ^ epoch, slices of `batch` (the last one partial), p <- p - lr * grad
    ds = D.synth_blobs(3, 50, 5, spread=0.1, seed=4)
    m = M.build_model([M.dense(5, 6), M.relu(), M.dense(6, 3)], (5,), seed=3, dtype=dtype)
    epochs, lr, batch, seed = 3, 0.4, 16, 9
    p, history = m.params, []
    for epoch in range(epochs):
        order = np.random.default_rng(seed ^ epoch).permutation(len(ds))
        losses = []
        for start in range(0, len(order), batch):
            idx = order[start : start + batch]
            loss, grad = m.with_params(p).loss_grad(ds.images[idx], ds.labels[idx], "parameters")
            p = p - lr * grad
            losses.append(loss)
        acc = float(np.mean(m.with_params(p).predict(ds.images) == ds.labels))
        history.append({"epoch": epoch + 1, "loss": float(np.mean(losses)), "accuracy": acc})
    trained = M.train_erm(m, ds, epochs=epochs, lr=lr, batch=batch, seed=seed)
    assert trained.params.dtype == dtype
    assert trained.params.tobytes() == p.tobytes()
    assert trained.history == history


def test_train_rejects_bad_lr_and_labels():
    ds = D.synth_blobs(2, 20, 4, spread=0.05, seed=0)
    m = M.build_model([M.dense(4, 2)], (4,), seed=0)
    with pytest.raises(ValueError):
        M.train_erm(m, ds, epochs=1, lr=0.0, batch=8)
    three_classes = D.synth_blobs(3, 21, 4, spread=0.05, seed=0)
    with pytest.raises(ValueError, match="class range"):
        M.train_erm(m, three_classes, epochs=1, lr=0.1, batch=8)


# -- a model with no parameters ---------------------------------------------------


def test_parameterless_model_has_empty_parameter_gradient():
    m = M.build_model([M.relu()], (3,), dtype=np.float64)
    X = np.random.default_rng(0).uniform(-1, 1, (4, 3))
    _, grad = m.loss_grad(X, np.array([0, 1, 2, 0]), "parameters")
    assert grad.dtype == np.float64
    assert grad.shape == (0,)


# -- the shared perturbation --------------------------------------------------------


def graph_nodes(root):
    seen, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node.parents)
    return list(seen.values())


def test_perturbation_shifts_the_one_input_leaf():
    m = M.build_model(CNN_SPEC, (1, 8, 8), seed=3, dtype=np.float64)
    rng = np.random.default_rng(8)
    X = rng.uniform(0, 1, (5, 1, 8, 8))
    delta = rng.uniform(-0.1, 0.1, (1, 8, 8))
    loss_var, x_var, pvars = m._loss_graph(X, rng.integers(0, 4, 5), delta=delta, wrt="perturbation")
    nodes = graph_nodes(loss_var)
    assert {id(n) for n in nodes if not n.parents} == {id(x_var)} | {id(p) for p in pvars}
    assert np.array_equal(x_var.value, X + delta)
    # each dense layer is one matmul node whose parents are its input, its weight and its own bias leaf
    dense = [n for n in nodes if n.vjp is not None and n.vjp.__qualname__.startswith("matmul.")]
    own = list(zip(pvars[2::2], pvars[3::2]))  # each dense layer's (weight, bias), after the conv layer's two
    assert len(dense) == len(own) == 2
    assert {(id(n.parents[1]), id(n.parents[2])) for n in dense} == {(id(w), id(b)) for w, b in own}
    assert all(len(n.parents) == 3 and n.parents[0] is not x_var for n in dense)


@pytest.fixture()
def built_vars(monkeypatch):
    """Every Var made while the fixture is active, with the parents and vjp it was made with."""
    built = []
    init = ad.Var.__init__

    def recording(self, value, parents=(), vjp=None, needs=False):
        init(self, value, parents, vjp, needs)
        built.append((self, parents, vjp))

    monkeypatch.setattr(ad.Var, "__init__", recording)
    return built


@pytest.mark.parametrize("graph", ["loss-graph", "logits"])
def test_graph_that_needs_no_gradient_keeps_no_parents(built_vars, graph):
    # no node is visited by backward, so none holds its parents or the arrays its vjp would read
    m = M.build_model(CNN_SPEC, (1, 8, 8), seed=3)
    X = np.random.default_rng(8).uniform(0, 1, (5, 1, 8, 8))
    if graph == "logits":
        m.logits(X)
    else:
        m._loss_graph(X, np.arange(5) % 4, delta=np.zeros((1, 8, 8)))
    assert len(built_vars) > len(CNN_SPEC)
    assert all(not node.needs and node.parents == () and node.vjp is None for node, _, _ in built_vars)


def test_perturbation_graph_keeps_every_node_that_needs_a_gradient(built_vars):
    m = M.build_model(CNN_SPEC, (1, 8, 8), seed=3)
    X = np.random.default_rng(8).uniform(0, 1, (5, 1, 8, 8))
    m._loss_graph(X, np.arange(5) % 4, delta=np.zeros((1, 8, 8)), wrt="perturbation")
    needed = [(node, parents, vjp) for node, parents, vjp in built_vars if node.needs]
    # the input leaf, one node per layer, and the loss
    assert len(needed) == 1 + len(CNN_SPEC) + 1
    assert all(node.parents is parents and node.vjp is vjp for node, parents, vjp in needed)
    assert all(node.parents and node.vjp is not None for node, _, _ in needed[1:])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_perturbation_gradient_is_summed_input_gradient(dtype):
    m = M.build_model(CNN_SPEC, (1, 8, 8), seed=3, dtype=dtype)
    rng = np.random.default_rng(9)
    X = rng.uniform(0, 1, (6, 1, 8, 8))
    Y = rng.integers(0, 4, 6)
    delta = rng.uniform(-0.1, 0.1, (1, 8, 8))
    loss_d, g_delta = m.loss_grad(X, Y, "perturbation", delta=delta)
    loss_x, g_x = m.loss_grad(X, Y, "input", delta=delta)
    assert loss_d == loss_x == oracles.loss(m, X, Y, delta=delta)
    assert g_delta.shape == delta.shape and g_delta.dtype == dtype
    assert g_delta.tobytes() == g_x.sum(axis=0).tobytes()


def test_perturbation_must_have_one_samples_shape():
    m = M.build_model([M.dense(4, 3)], (4,), seed=1, dtype=np.float64)
    X = np.random.default_rng(2).uniform(0, 1, (5, 4))
    Y = np.array([0, 1, 2, 0, 1])
    for bad in (np.zeros((5, 4)), np.zeros((1, 4)), np.zeros(3)):
        with pytest.raises(ValueError, match="perturbation shape"):
            m.loss_grad(X, Y, "perturbation", delta=bad)
        with pytest.raises(ValueError, match="perturbation shape"):
            oracles.loss(m, X, Y, delta=bad)


# -- gradient pruning ----------------------------------------------------------------


def _pruning_targets(dtype):
    shape = (2, 13, 11)  # odd sizes: both max-pools drop a trailing row or column
    cnn = M.make_architecture("cnn_small", shape, 4, hidden=8)
    mlp = M.make_architecture("mlp", shape, 4, hidden=8)
    return shape, {
        "cnn_small": M.build_model(cnn, shape, seed=1, dtype=dtype),
        "mlp": M.build_model(mlp, shape, seed=2, dtype=dtype),
        "ensemble": M.Ensemble((M.build_model(cnn, shape, seed=3, dtype=dtype), M.build_model(mlp, shape, seed=4, dtype=dtype))),
    }


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", ["cnn_small", "mlp", "ensemble"])
def test_pruned_loss_grad_matches_the_full_tape(dtype, name):
    shape, targets = _pruning_targets(dtype)
    target = targets[name]
    rng = np.random.default_rng(41)
    X = np.round(rng.uniform(0, 1, (6,) + shape) * 4) / 4  # ties in the max-pool windows
    Y = rng.integers(0, 4, 6)
    delta = rng.uniform(-0.1, 0.1, shape)
    # every leaf needs a gradient: the tape as it ran before pruning
    x_var = ad.leaf(target._check_input(X) + delta.astype(dtype))
    loss_var, pvars = target._cross_entropy(x_var, Y, "mean", params_need=True)
    ad.backward(loss_var)
    full = {
        "parameters": np.concatenate([p.grad.reshape(-1) for p in pvars]),
        "input": x_var.grad,
        "perturbation": x_var.grad.sum(axis=0),
    }
    for wrt, want in full.items():
        loss, grad = target.loss_grad(X, Y, wrt, delta=delta)
        assert np.float64(loss).tobytes() == np.float64(float(loss_var.value)).tobytes()
        assert grad.dtype == want.dtype and grad.shape == want.shape
        assert grad.tobytes() == want.tobytes(), wrt


@pytest.mark.parametrize("name", ["mlp", "ensemble"])
def test_loss_grad_rejects_labels_that_do_not_fit_the_batch(name):
    # the loss of every member checks the labels against its batch
    shape, targets = _pruning_targets(np.float64)
    X = np.random.default_rng(47).uniform(0, 1, (3,) + shape)
    for Y in (np.arange(2), np.zeros((3, 1), dtype=np.int64)):
        for wrt in ("parameters", "input"):
            with pytest.raises(ValueError, match=rf"labels shape \({Y.shape[0]},"):
                targets[name].loss_grad(X, Y, wrt)


@pytest.mark.parametrize("name", ["cnn_small", "ensemble"])
def test_loss_graph_marks_only_the_leaves_wrt_reads(name):
    shape, targets = _pruning_targets(np.float64)
    target = targets[name]
    rng = np.random.default_rng(43)
    X, Y, delta = rng.uniform(0, 1, (3,) + shape), rng.integers(0, 4, 3), rng.uniform(-0.1, 0.1, shape)
    for wrt, input_needs in (("input", True), ("perturbation", True), ("parameters", False)):
        loss_var, x_var, pvars = target._loss_graph(X, Y, delta=delta, wrt=wrt)
        ad.backward(loss_var)
        assert (x_var.grad is not None) == input_needs, wrt
        assert all((p.grad is None) == input_needs for p in pvars), wrt
    # loss, logits and predict mark nothing
    loss_var, x_var, pvars = target._loss_graph(X, Y, delta=delta)
    assert not loss_var.needs and not x_var.needs and not any(p.needs for p in pvars)


# -- ensembles ------------------------------------------------------------------


def test_ensemble_of_identical_models_equals_single():
    m = M.build_model([M.dense(4, 3)], (4,), seed=0, dtype=np.float64)
    rng = np.random.default_rng(2)
    X = rng.uniform(0, 1, (6, 4))
    Y = rng.integers(0, 3, 6)
    assert oracles.loss(M.Ensemble((m, m)), X, Y) == pytest.approx(oracles.loss(m, X, Y), rel=1e-15)


def test_ensemble_loss_is_mean():
    # two models whose individual losses differ; the ensemble averages them
    m1 = M.build_model([M.dense(4, 3)], (4,), seed=1, dtype=np.float64)
    m2 = M.build_model([M.dense(4, 3)], (4,), seed=2, dtype=np.float64)
    X = np.random.default_rng(3).uniform(0, 1, (5, 4))
    Y = np.array([0, 1, 2, 0, 1])
    want = 0.5 * (oracles.loss(m1, X, Y) + oracles.loss(m2, X, Y))
    assert oracles.loss(M.Ensemble((m1, m2)), X, Y) == pytest.approx(want, rel=1e-14)


def test_ensemble_gradient_is_mean_of_member_gradients():
    m1 = M.build_model([M.dense(4, 3)], (4,), seed=1, dtype=np.float64)
    m2 = M.build_model([M.dense(4, 3)], (4,), seed=2, dtype=np.float64)
    rng = np.random.default_rng(4)
    X = rng.uniform(0, 1, (5, 4))
    Y = rng.integers(0, 3, 5)
    delta = rng.uniform(-0.1, 0.1, 4)
    _, grad = M.Ensemble((m1, m2)).loss_grad(X, Y, "perturbation", delta=delta)
    g1 = m1.loss_grad(X, Y, "perturbation", delta=delta)[1]
    g2 = m2.loss_grad(X, Y, "perturbation", delta=delta)[1]
    assert np.max(np.abs(grad - 0.5 * (g1 + g2))) <= 1e-12


def test_ensemble_parameter_gradient_blocks_keep_member_precision():
    # the float32 member's block is rounded to float32 even though the mixed
    # graph computes it in float64; the joined vector has flat_params' dtype
    m1 = M.build_model([M.dense(4, 3)], (4,), seed=1, dtype=np.float32)
    m2 = M.build_model([M.dense(4, 3)], (4,), seed=2, dtype=np.float64)
    X = np.random.default_rng(5).uniform(0, 1, (5, 4))
    ens = M.Ensemble((m1, m2))
    _, grad = ens.loss_grad(X, np.array([0, 1, 2, 0, 1]), "parameters")
    assert grad.dtype == ens.flat_params().dtype == np.float64
    block = grad[: m1.params.size]
    assert np.any(block != 0.0)
    assert np.array_equal(block.astype(np.float32).astype(np.float64), block)


def test_with_params_keeps_each_models_dtype():
    theta = np.random.default_rng(6).normal(size=15)
    m32 = M.build_model([M.dense(4, 3)], (4,), seed=1, dtype=np.float32)
    m64 = M.build_model([M.dense(4, 3)], (4,), seed=2, dtype=np.float64)
    assert m32.with_params(theta).params.tobytes() == theta.astype(np.float32).tobytes()
    assert m64.with_params(theta).params is theta
    ens = M.Ensemble((m32, m64)).with_params(np.concatenate([theta, theta]))
    assert [m.params.dtype for m in ens.models] == [np.float32, np.float64]
    assert ens.flat_params().tobytes() == np.concatenate([theta.astype(np.float32), theta]).tobytes()


def test_with_params_checks_only_the_length_and_shares_the_checked_layers():
    m = M.build_model([M.dense(4, 3)], (4,), seed=1, dtype=np.float32)
    m.history = [{"epoch": 1}]
    moved = m.with_params(np.zeros(15))
    assert moved.spec is m.spec and moved.layout is m.layout and moved.history == [] and m.history
    for bad in (np.zeros(14), np.zeros((1, 15))):
        # the error a model made with those parameters raises
        with pytest.raises(ValueError) as made:
            M.ModelState(spec=m.spec, params=bad, input_shape=m.input_shape, num_classes=m.num_classes)
        with pytest.raises(ValueError) as moved_to:
            m.with_params(bad)
        assert str(moved_to.value) == str(made.value) == f"params length {bad.shape} != spec count (15,)"


def test_ensemble_rejects_empty_and_mismatched():
    with pytest.raises(ValueError):
        M.Ensemble(())
    m1 = M.build_model([M.dense(4, 3)], (4,), seed=1)
    m2 = M.build_model([M.dense(5, 3)], (5,), seed=1)
    with pytest.raises(ConfigError, match="ensemble members must share"):
        M.Ensemble((m1, m2))


# -- checkpoints -----------------------------------------------------------------


def test_checkpoint_roundtrip(tmp_path):
    # cnn_small starts with a normalize layer; the last model has no biases
    for spec, input_shape in [
        (CNN_SPEC, (1, 8, 8)),
        (M.make_architecture("cnn_small", (1, 12, 12), 3, hidden=6), (1, 12, 12)),
        ([M.dense(5, 4, bias=False), M.relu(), M.dense(4, 3, bias=False)], (5,)),
    ]:
        m = M.build_model(spec, input_shape, seed=6)
        path = tmp_path / "model.uapt"
        M.save_checkpoint(m, path, extra={"seed": 6})
        back, meta = M.load_checkpoint(path)
        assert back.spec == m.spec
        assert back.params.tobytes() == m.params.tobytes()
        assert back.input_shape == m.input_shape
        assert back.fingerprint() == m.fingerprint()
        assert meta["seed"] == 6
        assert meta["params_fingerprint"] == array_fingerprint(back.params)
        X = np.random.default_rng(6).uniform(0, 1, (20, *input_shape))
        assert np.array_equal(back.predict(X), m.predict(X))


# content_hash of the seeded initial params at 1x16x16, 3 classes, hidden 12, seed 7. They come from
# RNG draws alone (no BLAS), so they hold on any machine and guard the init's draw order.
INIT_PARAM_HASHES = {
    ("linear", "float32"): "82b843a8026a6351f9d28f5ed0b5044c97b96d2d",
    ("linear", "float64"): "f40103b7f4b4abe5f29ccd3cf8a1c227a2b02dcd",
    ("mlp", "float32"): "258f07565731c81e541fc44ff081c9b652d47dbf",
    ("mlp", "float64"): "e9acc36da375049853ebdee990da9157e96d9969",
    ("cnn_small", "float32"): "491f82f779ffb776818ca81ba6aa76b6258f6845",
    ("cnn_small", "float64"): "d30439c7161ac3859cb68229b55f2d400d7ea12d",
}


@pytest.mark.parametrize("arch,dtype", INIT_PARAM_HASHES)
def test_build_model_params_pinned(arch, dtype):
    spec = M.make_architecture(arch, (1, 16, 16), 3, hidden=12)
    model = M.build_model(spec, (1, 16, 16), seed=7, dtype=dtype)
    assert content_hash(model.params) == INIT_PARAM_HASHES[arch, dtype]


# fingerprint() of the same float32 models: it hashes the spec JSON too, so these guard the layer objects' bytes
FINGERPRINTS = {"linear": "6c74e0e4bf967b05", "mlp": "8646b3935c21d271", "cnn_small": "a1ac841f49e6988f"}


@pytest.mark.parametrize("arch", FINGERPRINTS)
def test_fingerprint_pinned(arch):
    spec = M.make_architecture(arch, (1, 16, 16), 3, hidden=12)
    model = M.build_model(spec, (1, 16, 16), seed=7, dtype=np.float32)
    assert model.fingerprint() == FINGERPRINTS[arch]


def test_fingerprint_changes_with_params():
    m = M.build_model([M.dense(4, 2)], (4,), seed=0, dtype=np.float64)
    other = m.with_params(m.params + 1e-3)
    assert m.fingerprint() != other.fingerprint()
