"""Update rules: l2 projection/PGD (the model step as a batch of one too), Adam with bias correction."""

import numpy as np
import pytest

from uapforge import optim


def reference_adam(grads, gamma, beta1=0.9, beta2=0.999, eps=1e-8):
    """Straight transcription of the Adam update equations."""
    m = np.zeros_like(grads[0])
    v = np.zeros_like(grads[0])
    updates = []
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        updates.append(-gamma * m_hat / (np.sqrt(v_hat) + eps))
    return updates


# -- normalized descent: the model step, l2 PGD on the flat parameters as a batch of one --


def test_normalized_step_forced_arithmetic():
    theta = np.array([[1.0, 1.0]])
    out = optim.l2_pgd_step(theta, np.array([[3.0, 4.0]]), 0.1, theta, np.inf)
    assert out[0] == pytest.approx([0.94, 0.92], abs=1e-15)
    assert np.linalg.norm(out - theta) == pytest.approx(0.1, abs=1e-15)


def test_normalized_step_zero_gradient_is_identity():
    theta = np.array([[2.0, -1.0]])
    out = optim.l2_pgd_step(theta, np.zeros((1, 2)), 0.5, theta, np.inf)
    assert out.tobytes() == theta.tobytes()  # theta's values, in a new array


def test_normalized_step_length_is_alpha():
    rng = np.random.default_rng(0)
    for _ in range(20):
        theta = rng.normal(size=(1, 7))
        grad = rng.normal(size=(1, 7))
        out = optim.l2_pgd_step(theta, grad, 0.05, theta, np.inf)
        assert np.linalg.norm(out - theta) == pytest.approx(0.05, abs=1e-9)


def test_normalized_step_budget_triangle():
    # K steps of rho/K each end inside the rho ball unprojected, so projecting onto it keeps every byte
    rng = np.random.default_rng(1)
    theta0 = rng.normal(size=(1, 12))
    free = projected = theta0
    rho, K = 0.3, 10
    for _ in range(K):
        grad = rng.normal(size=(1, 12))
        free = optim.l2_pgd_step(free, grad, rho / K, theta0, np.inf)
        projected = optim.l2_pgd_step(projected, grad, rho / K, theta0, rho)
    assert np.linalg.norm(free - theta0) <= rho + 1e-6
    assert projected.tobytes() == free.tobytes()


def test_normalized_step_rejects_nonfinite():
    with pytest.raises(ValueError):
        optim.l2_pgd_step(np.zeros((1, 2)), np.array([[np.nan, 1.0]]), 0.1, np.zeros((1, 2)), np.inf)
    with pytest.raises(ValueError):
        optim.l2_pgd_step(np.zeros((1, 2)), np.zeros((1, 3)), 0.1, np.zeros((1, 2)), np.inf)


# -- l2 projection -----------------------------------------------------------
# axis 0 indexes samples; each sample is projected onto its own ball


def test_project_inside_unchanged():
    v = np.array([[0.3, 0.4]])
    assert optim.l2_project(v, np.zeros((1, 2)), 1.0) is v


def test_project_scales_displacement():
    center = np.array([[1.0, 1.0]])
    out = optim.l2_project(np.array([[4.0, 5.0]]), center, 2.5)  # displacement (3, 4)
    assert out - center == pytest.approx(np.array([[1.5, 2.0]]), abs=1e-12)


def test_project_norm_is_min_of_norm_and_radius():
    rng = np.random.default_rng(2)
    center = rng.normal(size=(1, 6))
    for _ in range(50):
        v = center + rng.normal(scale=2.0, size=(1, 6))
        out = optim.l2_project(v, center, 0.8)
        want = min(np.linalg.norm(v - center), 0.8)
        assert np.linalg.norm(out - center) == pytest.approx(want, abs=1e-9)


def test_project_idempotent_bitwise():
    rng = np.random.default_rng(3)
    center = rng.normal(size=(1, 9))
    for _ in range(100):
        v = center + rng.normal(scale=3.0, size=(1, 9))
        once = optim.l2_project(v, center, 1.3)
        twice = optim.l2_project(once, center, 1.3)
        assert once.tobytes() == twice.tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_project_lands_a_row_whose_squares_overflow_on_the_ball():
    # the sum of squares of (1e200, 1e200) overflows; the norm is measured again from the scaled row
    out = optim.l2_project(np.array([[1e200, 1e200]]), np.zeros((1, 2)), 1.0)
    assert out == pytest.approx(np.full((1, 2), np.sqrt(0.5)), rel=1e-15)
    v = np.array([[1e200, -3e199, 0.0], [3.0, 4.0, 0.0], [0.1, 0.0, 0.2]])
    norms = optim.sample_norms(v)
    assert norms[0] == pytest.approx(1e200 * np.sqrt(1.09), rel=1e-15)
    assert norms[1:].tobytes() == np.linalg.norm(v[1:], axis=1).tobytes()  # finite rows keep their bytes
    assert optim.sample_norms(v[:1])[0] == norms[0]
    assert optim.sample_norms(np.array([[np.inf, 1.0]]))[0] == np.inf


def test_l2_norm_is_one_fixed_order_sum():
    # a BLAS dot splits its sum by thread count; the norm is numpy's own sum of squares
    rng = np.random.default_rng(8)
    for n in (3, 3658, 20186):
        g = rng.normal(size=n)
        assert optim.sample_norms(g[None])[0] == float(np.sqrt(np.sum(g * g)))


def test_project_rejects_negative_radius():
    with pytest.raises(ValueError, match="radius"):
        optim.l2_project(np.zeros((1, 1)), np.zeros((1, 1)), -0.1)


# -- l2 PGD step -------------------------------------------------------------


def test_pgd_zero_grad_projects_only():
    out = optim.l2_pgd_step(np.array([[3.0, 0.0]]), np.zeros((1, 2)), 0.1, np.zeros((1, 2)), 1.0)
    assert out == pytest.approx(np.array([[1.0, 0.0]]), abs=1e-12)


def test_pgd_small_step_from_center_unprojected():
    center = np.zeros((1, 3))
    g = np.array([[1.0, 2.0, -2.0]])
    out = optim.l2_pgd_step(center.copy(), g, 0.25, center, 1.0)
    assert np.linalg.norm(out) == pytest.approx(0.25, abs=1e-12)


def test_pgd_never_leaves_ball():
    rng = np.random.default_rng(4)
    center = rng.uniform(0, 1, (1, 8))
    x = center.copy()
    for _ in range(200):
        x = optim.l2_pgd_step(x, rng.normal(size=(1, 8)), 0.3, center, 0.6)
        assert np.linalg.norm(x - center) <= 0.6 + 1e-6


def test_pgd_box_clamp():
    center = np.array([[0.05, 0.9]])
    out = optim.l2_pgd_step(center.copy(), np.array([[1.0, -1.0]]), 1.0, center, 5.0, clamp_box=True)
    assert out.min() >= 0.0 and out.max() <= 1.0


@pytest.mark.parametrize("shape", [(1, 16, 16), (3, 32, 32)])
def test_pgd_batch_rows_match_single_row_steps(shape):
    # a batch of samples that stay inside their ball, samples pushed outside and zero gradients;
    # every sample is bitwise its own single-sample step, whether or not others of the batch are projected
    rng = np.random.default_rng(7)
    n, alpha, radius = 125, 0.2, 0.5
    center = rng.uniform(0, 1, (n, *shape))
    x = center + rng.normal(size=center.shape) * rng.uniform(0, 0.6, (n, 1, 1, 1)) / np.sqrt(center[0].size)
    grad = rng.normal(size=center.shape)
    grad[::5] = 0.0
    kinds = set()
    for start in (x, center):
        batched = optim.l2_pgd_step(start, grad, alpha, center, radius)
        for i in range(n):
            row = slice(i, i + 1)
            single = optim.l2_pgd_step(start[row], grad[row], alpha, center[row], radius)
            unprojected = optim.l2_pgd_step(start[row], grad[row], alpha, center[row], np.inf)
            outside = np.linalg.norm(unprojected - center[row]) > radius
            kinds.add((bool(outside), not grad[row].any()))
            assert batched[row].tobytes() == single.tobytes()
            if not outside:
                assert single.tobytes() == unprojected.tobytes()
    assert kinds == {(True, False), (False, False), (True, True), (False, True)}


# -- Adam ---------------------------------------------------------------------


def test_adam_first_step_matches_reference():
    state = optim.AdamState.zeros(())
    g = np.asarray(0.5)
    update, state = optim.adam_step(state, g, 0.001)
    ref = reference_adam([g], 0.001)[0]
    assert update == pytest.approx(ref, rel=1e-15)
    assert update == pytest.approx(-0.001, rel=1e-6)
    assert state.step_count == 1


def test_adam_zero_grad_fresh_state_zero_update():
    state = optim.AdamState.zeros((3,))
    update, _ = optim.adam_step(state, np.zeros(3), 0.01)
    assert np.all(update == 0.0)


def test_adam_constant_gradient_converges_to_gamma():
    state = optim.AdamState.zeros((2,))
    g = np.array([0.37, -1.2])
    gamma = 0.01
    for _ in range(50):
        update, state = optim.adam_step(state, g, gamma)
    assert np.abs(np.abs(update) - gamma).max() <= 1e-6


def test_adam_matches_reference_sequence():
    rng = np.random.default_rng(5)
    grads = [rng.normal(size=(2, 2)) for _ in range(10)]
    state = optim.AdamState.zeros((2, 2))
    got = []
    for g in grads:
        update, state = optim.adam_step(state, g, 0.003)
        got.append(update)
    for mine, ref in zip(got, reference_adam(grads, 0.003)):
        assert np.allclose(mine, ref, rtol=1e-14, atol=0)


def test_adam_first_step_homogeneous_in_gamma():
    g = np.random.default_rng(6).normal(size=4)
    u1, _ = optim.adam_step(optim.AdamState.zeros((4,)), g, 0.004)
    u2, _ = optim.adam_step(optim.AdamState.zeros((4,)), g, 0.016)
    assert np.array_equal(u2, 4.0 * u1)  # power-of-two scale is exact


def test_adam_state_validation():
    state = optim.AdamState.zeros((2,))
    with pytest.raises(ValueError):
        optim.adam_step(state, np.zeros(3), 0.01)
    with pytest.raises(ValueError):
        optim.adam_step(state, np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        optim.adam_step(state, np.array([np.inf, 0.0]), 0.01)
