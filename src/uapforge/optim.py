"""The three update rules the attack composes.

Normalized gradient descent on flat parameters (the inner loop's model step),
per-sample l2-projected gradient descent on a batch (its data step: axis 0
indexes samples, each steps and is projected onto its own ball), and Adam
with an l-infinity clamp handled by the caller. Gradients with l2 norm below
ZERO_GRAD_TOL skip the step instead of dividing by a tiny norm, which keeps
every budget invariant intact.
"""

from dataclasses import dataclass

import numpy as np

from .tensor import require_finite

ZERO_GRAD_TOL = 1e-12

# Relative slack for the inside-the-ball test; keeps projection idempotent
# under floating-point rounding of the rescale.
_BALL_SLACK = 1e-12


def normalized_descent_step(theta, grad, alpha):
    """One step of theta - alpha * grad / ||grad||_2.

    The step has l2 length exactly alpha. A gradient with norm below
    ZERO_GRAD_TOL returns theta unchanged.
    """
    if theta.shape != grad.shape:
        raise ValueError(f"shape mismatch: theta {theta.shape}, grad {grad.shape}")
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    require_finite(grad, "gradient")
    norm = float(np.linalg.norm(grad))
    if norm < ZERO_GRAD_TOL:
        return theta
    return theta - (alpha / norm) * grad


def _sample_norms(a):
    """The l2 norm of each sample; axis 0 indexes samples."""
    return np.linalg.norm(a.reshape(len(a), -1), axis=1)


def l2_project(v, center, radius):
    """Map each sample of v that lies outside the l2 ball around its center onto it.

    When every sample is inside (up to relative rounding slack), v itself is
    returned, so the projection is bit-wise idempotent. Otherwise a sample
    inside comes back as center + (v - center), which can differ from v in
    the last bit.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    if v.shape != center.shape:
        raise ValueError(f"shape mismatch: v {v.shape}, center {center.shape}")
    require_finite(v, "projection input")
    disp = v - center
    norms = _sample_norms(disp)
    outside = norms > radius * (1.0 + _BALL_SLACK)
    if not np.any(outside):
        return v
    shrink = np.where(outside, radius / np.where(outside, norms, 1.0), 1.0)
    return center + disp * shrink.reshape(-1, *[1] * (v.ndim - 1))


def l2_pgd_step(x, grad, alpha, center, radius, clamp_box=False):
    """One l2-PGD descent step per sample, then projection onto each sample's ball.

    x'_i = project(x_i - alpha * g_i / ||g_i||_2); a sample whose gradient
    norm is below ZERO_GRAD_TOL is only projected. With `clamp_box` the
    result is clamped to the [0, 1] pixel box last.
    """
    if x.shape != grad.shape:
        raise ValueError(f"shape mismatch: x {x.shape}, grad {grad.shape}")
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    require_finite(grad, "gradient")
    norms = _sample_norms(grad)
    moving = norms >= ZERO_GRAD_TOL
    scale = np.where(moving, alpha / np.where(moving, norms, 1.0), 0.0)
    x = l2_project(x - grad * scale.reshape(-1, *[1] * (x.ndim - 1)), center, radius)
    if clamp_box:
        x = np.clip(x, 0.0, 1.0)
    return x


# Adam's moment decay rates and denominator offset; the method varies only gamma.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS_HAT = 1e-8


@dataclass
class AdamState:
    """Adam moments for one float64 tensor; step_count increments once per update."""

    m: np.ndarray
    v: np.ndarray
    step_count: int = 0

    @classmethod
    def zeros(cls, shape):
        return cls(m=np.zeros(shape), v=np.zeros(shape))


def adam_step(state, grad, gamma):
    """Standard bias-corrected Adam update for a minimization gradient.

    Returns (update, new_state) where update = -gamma * m_hat / (sqrt(v_hat)
    + ADAM_EPS_HAT). The attack maximizes by feeding the negated loss gradient.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if grad.shape != state.m.shape:
        raise ValueError(f"shape mismatch: grad {grad.shape}, state {state.m.shape}")
    require_finite(grad, "gradient")
    t = state.step_count + 1
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * np.square(grad)
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    update = -gamma * m_hat / (np.sqrt(v_hat) + ADAM_EPS_HAT)
    return update, AdamState(m=m, v=v, step_count=t)
