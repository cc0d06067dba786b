"""Gradient correctness of every primitive against central finite differences."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from uapforge import autodiff as ad
from uapforge import models as M


def rel_err(a, b, floor=1e-6):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def naive_softmax_ce(logits, labels):
    """Textbook softmax cross-entropy, mean over the batch, no fused tricks."""
    total = 0.0
    for row, y in zip(logits, labels):
        exps = [math.exp(v) for v in row]
        total += -math.log(exps[y] / sum(exps))
    return total / len(labels)


# -- fused softmax cross-entropy ------------------------------------------


def test_ce_uniform_logits_is_log_k():
    logits = ad.leaf(np.zeros((3, 10)))
    loss = ad.softmax_cross_entropy(logits, np.array([0, 4, 9]))
    assert loss.value == pytest.approx(math.log(10), abs=1e-12)


def test_ce_saturated_true_class():
    z = np.zeros((1, 5))
    z[0, 2] = 50.0
    loss = ad.softmax_cross_entropy(ad.leaf(z), np.array([2]))
    assert loss.value < 1e-9


def test_ce_matches_naive_oracle():
    rng = np.random.default_rng(7)
    logits = rng.normal(0, 2, (4, 3))
    labels = rng.integers(0, 3, 4)
    got = float(ad.softmax_cross_entropy(ad.leaf(logits), labels).value)
    want = naive_softmax_ce(logits, labels)
    assert abs(got - want) / abs(want) <= 1e-12


def test_ce_extreme_logits_stay_finite():
    z = np.array([[1000.0, -1000.0], [-1000.0, 1000.0]])
    loss = ad.softmax_cross_entropy(ad.leaf(z), np.array([1, 1]))
    assert np.isfinite(loss.value)


def test_ce_rejects_bad_labels():
    with pytest.raises(ValueError):
        ad.softmax_cross_entropy(ad.leaf(np.zeros((2, 3))), np.array([0, 3]))
    with pytest.raises(ValueError):
        ad.softmax_cross_entropy(ad.leaf(np.zeros((2, 3))), np.array([0]))


# -- finite differences of each primitive ---------------------------------


def _fd_check(build_loss, x0, seeds=range(4), tol=1e-4):
    """build_loss(xـarray) -> scalar; compares tape gradient vs central FD."""
    for seed in seeds:
        rng = np.random.default_rng(seed)
        x = x0(rng)
        var = ad.leaf(x.copy())
        loss = build_loss(var)
        ad.backward(loss)
        fd = oracles.finite_difference_gradient(lambda a: float(build_loss(ad.leaf(a)).value), x.copy())
        assert rel_err(var.grad, fd) <= tol, f"seed {seed}"


def test_matmul_grad():
    w = np.random.default_rng(99).normal(size=(4, 3))

    def loss(v):
        return ad.softmax_cross_entropy(ad.matmul(v, ad.leaf(w)), np.array([0, 2]))

    _fd_check(loss, lambda rng: rng.normal(size=(2, 4)))


def test_matmul_weight_grad():
    x = np.random.default_rng(5).normal(size=(3, 4))

    def loss(v):
        return ad.softmax_cross_entropy(ad.matmul(ad.leaf(x), v), np.array([0, 1, 2]))

    _fd_check(loss, lambda rng: rng.normal(size=(4, 3)))


def test_relu_grad():
    w = np.random.default_rng(3).normal(size=(6, 3))

    def loss(v):
        return ad.softmax_cross_entropy(ad.matmul(ad.relu(v), ad.leaf(w)), np.array([1, 0]))

    # keep probes away from the kink at 0
    _fd_check(loss, lambda rng: rng.choice([-1.0, 1.0], size=(2, 6)) * rng.uniform(0.3, 1.5, (2, 6)))


def test_conv2d_grads():
    rng0 = np.random.default_rng(11)
    w = rng0.normal(size=(2, 1, 3, 3))
    b = rng0.normal(size=2)

    def loss_x(v):
        h = ad.conv2d(v, ad.leaf(w), ad.leaf(b))
        return ad.softmax_cross_entropy(ad.flatten(h), np.array([0, 3]))

    _fd_check(loss_x, lambda rng: rng.normal(size=(2, 1, 5, 5)))

    x = rng0.normal(size=(2, 1, 5, 5))

    def loss_w(v):
        h = ad.conv2d(ad.leaf(x), v, ad.leaf(b))
        return ad.softmax_cross_entropy(ad.flatten(h), np.array([0, 3]))

    _fd_check(loss_w, lambda rng: rng.normal(size=(2, 1, 3, 3)))

    def loss_b(v):
        h = ad.conv2d(ad.leaf(x), ad.leaf(w), v)
        return ad.softmax_cross_entropy(ad.flatten(h), np.array([0, 3]))

    _fd_check(loss_b, lambda rng: rng.normal(size=2))


def test_maxpool_grad():
    w = np.random.default_rng(2).normal(size=(4, 3))

    def loss(v):
        h = ad.flatten(ad.maxpool2(v))
        return ad.softmax_cross_entropy(ad.matmul(h, ad.leaf(w)), np.array([2]))

    # well-separated window entries avoid argmax flips under the FD probe
    def sample(rng):
        base = rng.permuted(np.arange(16.0)).reshape(1, 1, 4, 4)
        return base + rng.uniform(-0.2, 0.2, base.shape)

    _fd_check(loss, sample)


def test_normalize_grad():
    w = np.random.default_rng(8).normal(size=(8, 2))

    def loss(v):
        h = ad.normalize(v, mean=[0.4, 0.6], std=[0.5, 0.25])
        return ad.softmax_cross_entropy(ad.matmul(ad.flatten(h), ad.leaf(w)), np.array([0]))

    _fd_check(loss, lambda rng: rng.uniform(0, 1, (1, 2, 2, 2)))


def test_normalize_rejects_nonpositive_std():
    with pytest.raises(ValueError):
        ad.normalize(ad.leaf(np.zeros((1, 1, 2, 2))), mean=[0.0], std=[0.0])


def test_maxpool_tie_routes_to_first():
    x = np.full((1, 1, 2, 2), 0.5)
    out = ad.maxpool2(ad.leaf(x))
    w = ad.leaf(np.array([[1.0, -1.0]]))
    ad.backward(ad.softmax_cross_entropy(ad.matmul(ad.flatten(out), w), np.array([0])))
    parents_grad = out.parents[0].grad
    assert parents_grad[0, 0, 0, 0] != 0
    assert parents_grad[0, 0, 0, 1] == 0 and parents_grad[0, 0, 1, 0] == 0 and parents_grad[0, 0, 1, 1] == 0


def argmax_maxpool2(x):
    """Reference 2x2 max-pool through argmax over a transposed window copy: (value, input-gradient function)."""
    b, c, h, w = x.shape
    oh, ow = h // 2, w // 2
    win = x[:, :, : oh * 2, : ow * 2].reshape(b, c, oh, 2, ow, 2).transpose(0, 1, 2, 4, 3, 5).reshape(b, c, oh, ow, 4)
    idx = win.argmax(axis=-1)
    val = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]

    def grad(g):
        gwin = np.zeros_like(win)
        np.put_along_axis(gwin, idx[..., None], g[..., None], axis=-1)
        gx = np.zeros_like(x)
        gx[:, :, : oh * 2, : ow * 2] = (
            gwin.reshape(b, c, oh, ow, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(b, c, oh * 2, ow * 2)
        )
        return gx

    return val, grad


# few distinct values, so windows hold ties and mixed 0.0 / -0.0 maxima
POOL_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_maxpool_bytes_match_argmax_reference(data):
    dtype = data.draw(st.sampled_from([np.float32, np.float64]))
    shape = tuple(data.draw(st.integers(lo, hi)) for lo, hi in ((1, 3), (1, 3), (2, 7), (2, 7)))
    x = data.draw(arrays(dtype, shape, elements=POOL_VALUES, fill=st.nothing()))
    want_val, want_grad = argmax_maxpool2(x)
    out = ad.maxpool2(ad.leaf(x))
    assert out.value.tobytes() == want_val.tobytes()
    g = data.draw(arrays(dtype, want_val.shape, elements=POOL_VALUES, fill=st.nothing()))
    (gx,) = out.vjp(g)
    assert gx.dtype == x.dtype and gx.shape == x.shape
    assert gx.tobytes() == want_grad(g).tobytes()


def test_maxpool_drops_odd_edge():
    x = np.arange(25.0).reshape(1, 1, 5, 5)
    out = ad.maxpool2(ad.leaf(x))
    assert out.value.shape == (1, 1, 2, 2)
    assert out.value[0, 0, 1, 1] == 18.0  # window rows 2..3, cols 2..3


# -- gradient pruning ---------------------------------------------------------


def test_vjps_return_none_for_parents_that_need_no_gradient():
    rng = np.random.default_rng(23)
    x = ad.leaf(rng.normal(size=(2, 1, 5, 5)))
    w, b = ad.leaf(rng.normal(size=(2, 1, 3, 3)), needs=False), ad.leaf(rng.normal(size=2), needs=False)
    out = ad.conv2d(x, w, b)
    assert out.needs
    grad_x, grad_w, grad_b = out.vjp(np.ones_like(out.value))
    assert grad_x.shape == x.value.shape and grad_w is None and grad_b is None

    frozen = ad.conv2d(ad.leaf(x.value, needs=False), ad.leaf(w.value), b)
    grad_x, grad_w, grad_b = frozen.vjp(np.ones_like(frozen.value))
    assert grad_x is None and grad_w.shape == w.value.shape and grad_b is None

    h = ad.matmul(ad.leaf(rng.normal(size=(2, 4)), needs=False), ad.leaf(rng.normal(size=(4, 3))))
    assert h.vjp(np.ones((2, 3)))[0] is None
    s = ad.add(h, ad.leaf(np.zeros(3), needs=False))
    assert s.vjp(np.ones((2, 3)))[1] is None


def test_backward_leaves_unneeded_leaves_without_gradient():
    rng = np.random.default_rng(29)
    x, w = ad.leaf(rng.normal(size=(3, 4))), ad.leaf(rng.normal(size=(4, 2)), needs=False)
    full_x, full_w = ad.leaf(x.value), ad.leaf(w.value)
    labels = np.array([0, 1, 1])
    ad.backward(ad.softmax_cross_entropy(ad.relu(ad.matmul(x, w)), labels))
    ad.backward(ad.softmax_cross_entropy(ad.relu(ad.matmul(full_x, full_w)), labels))
    assert w.grad is None
    assert x.grad.tobytes() == full_x.grad.tobytes()

    frozen = ad.leaf(x.value, needs=False)
    loss = ad.softmax_cross_entropy(ad.matmul(frozen, w), labels)
    assert not loss.needs
    ad.backward(loss)
    assert frozen.grad is None and w.grad is None


# -- structural properties -------------------------------------------------


def test_backward_linearity():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(3, 5))
    w = rng.normal(size=(5, 4))
    y1, y2 = np.array([0, 1, 2]), np.array([3, 3, 0])

    def grads(a, b):
        xv, wv = ad.leaf(x), ad.leaf(w)
        l1 = ad.softmax_cross_entropy(ad.matmul(xv, wv), y1)
        l2 = ad.softmax_cross_entropy(ad.matmul(xv, wv), y2)
        ad.backward(ad.add_scalars([l1, l2], [a, b]))
        return wv.grad

    g1 = grads(1.0, 0.0)
    g2 = grads(0.0, 1.0)
    combined = grads(0.7, -0.3)
    assert rel_err(combined, 0.7 * g1 - 0.3 * g2, floor=1e-9) <= 1e-12


def test_backward_visits_shared_nodes_once():
    # diamond: loss depends on v twice; gradient must accumulate exactly 2x
    v = ad.leaf(np.array([[1.0, 2.0]]))
    s = ad.add(v, v)
    loss = ad.softmax_cross_entropy(s, np.array([0]))
    ad.backward(loss)
    single = ad.leaf(np.array([[2.0, 4.0]]))
    loss2 = ad.softmax_cross_entropy(single, np.array([0]))
    ad.backward(loss2)
    assert np.allclose(v.grad, 2.0 * single.grad, atol=1e-15)


def test_backward_requires_scalar_root():
    with pytest.raises(ValueError):
        ad.backward(ad.leaf(np.zeros(3)))


def test_broadcast_add_sums_batch_axis():
    rng = np.random.default_rng(21)
    X = rng.normal(size=(4, 2, 3, 3))
    d = rng.normal(size=(2, 3, 3))
    xv, dv = ad.leaf(X), ad.leaf(d)
    h = ad.flatten(ad.add(xv, dv))
    w = ad.leaf(rng.normal(size=(18, 3)))
    ad.backward(ad.softmax_cross_entropy(ad.matmul(h, w), np.array([0, 1, 2, 0])))
    assert dv.grad.shape == d.shape
    assert np.allclose(dv.grad, xv.grad.sum(axis=0), atol=1e-15)


def test_gradients_deterministic():
    rng = np.random.default_rng(17)
    x = rng.normal(size=(3, 6)).astype(np.float32)
    w = rng.normal(size=(6, 4)).astype(np.float32)

    def run():
        xv, wv = ad.leaf(x.copy()), ad.leaf(w.copy())
        ad.backward(ad.softmax_cross_entropy(ad.matmul(ad.relu(xv), wv), np.array([0, 1, 2])))
        return xv.grad.tobytes(), wv.grad.tobytes()

    assert run() == run()


# -- finite-difference helper ----------------------------------------------


def test_fd_quadratic():
    g = oracles.finite_difference_gradient(lambda x: float(np.sum(x * x)), np.array([3.0]), 1e-5)
    assert g[0] == pytest.approx(6.0, abs=1e-8)


def test_fd_constant():
    g = oracles.finite_difference_gradient(lambda x: 1.5, np.array([0.3, -2.0]), 1e-5)
    assert np.all(g == 0.0)


def test_fd_sin():
    g = oracles.finite_difference_gradient(lambda x: float(np.sum(np.sin(x))), np.array([0.0, np.pi / 2]), 1e-5)
    assert g == pytest.approx([1.0, 0.0], abs=1e-8)


def test_fd_rejects_bad_h():
    with pytest.raises(ValueError):
        oracles.finite_difference_gradient(lambda x: 0.0, np.zeros(2), 0.0)


def test_fd_rejects_nonfinite_probe():
    with pytest.raises(ValueError):
        oracles.finite_difference_gradient(lambda x: float("nan"), np.zeros(2), 1e-5)


# -- hand-derived logistic oracle ------------------------------------------


def test_linear_logistic_gradient_signs():
    # f(x) = [w1*x, w2*x]; for label 0 and x > 0 the loss decreases in w1
    # and increases in w2 (closed form: dL/dw1 = -x * p1, dL/dw2 = x * p1).
    m = M.build_model([M.dense(1, 2)], (1,), seed=0, dtype=np.float64)
    theta = np.array([0.3, -0.2, 0.0, 0.0])  # W = [[0.3, -0.2]], b = 0
    X = np.array([[1.7]])
    Y = np.array([0])
    _, grad = m.with_params(theta).loss_grad(X, Y, "parameters")
    gw1, gw2 = grad[0], grad[1]
    x = X[0, 0]
    p1 = 1.0 / (1.0 + math.exp((0.3 - (-0.2)) * x))
    assert gw1 == pytest.approx(-x * p1, rel=1e-12)
    assert gw2 == pytest.approx(x * p1, rel=1e-12)
    assert gw1 < 0 < gw2


def test_zero_input_zero_weight_gives_zero_first_layer_grad():
    m = M.build_model([M.dense(3, 2)], (3,), seed=0, dtype=np.float64)
    theta = np.zeros_like(m.params)
    _, grad = m.with_params(theta).loss_grad(np.zeros((4, 3)), np.array([0, 1, 0, 1]), "parameters")
    assert np.all(grad[:6] == 0.0)  # weight block; bias grads may be nonzero


def test_perturbation_gradient_identity():
    # grad wrt shared delta == (1/B) * sum of per-sample input grads at x + delta
    rng = np.random.default_rng(31)
    m = M.build_model(
        [M.conv2d(1, 2, 3), M.relu(), M.flatten(), M.dense(2 * 4 * 4, 3)],
        (1, 6, 6),
        seed=4,
        dtype=np.float64,
    )
    X = rng.uniform(0, 1, (5, 1, 6, 6))
    Y = rng.integers(0, 3, 5)
    delta = rng.uniform(-0.1, 0.1, (1, 6, 6))
    _, g_delta = m.loss_grad(X, Y, "perturbation", delta=delta)
    acc = np.zeros_like(delta)
    for i in range(5):
        _, gi = m.loss_grad((X[i] + delta)[None], Y[i : i + 1], "input")
        acc += gi[0]
    assert np.max(np.abs(g_delta - acc / 5)) <= 1e-12
