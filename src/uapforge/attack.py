"""Crafting loop: curriculum schedule, per-batch min-min inner step schedule, Adam ascent.

Each mini-batch starts from the clean parameters, minimizes the loss over a
rho_t-ball of parameters and an r_t-ball around each sample, and then takes a
single Adam ascent step on the shared perturbation with an l-infinity clamp.
Setting rho or r to zero (or order "none") degrades the loop to the plain
averaged-loss baseline, which is how the ablation variants are expressed.

`craft` carries delta and its Adam moments from batch to batch; theta-star
restarts at the target's flat `params` and steps as a batch of one. All
budget-carrying quantities (theta-star, optimized samples, the perturbation
itself) are stored in float64 regardless of the model's dtype, so the ball
invariants hold exactly. Every gradient, inner or ascent, runs at the
surrogate's own precision: it is taken on the surrogate at theta-star
(`with_params` keeps the surrogate's dtype) with the samples cast to that
dtype, and the step it feeds is computed in float64. So on a float32
surrogate every gradient of a mini-batch runs at float32.
"""

import itertools
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .data import minibatches, pseudo_labels
from .errors import ConfigError, CraftingFailed
from .models import as_attack_target
from .optim import AdamState, adam_step, l2_pgd_step, sample_norms
from .tensor import TensorFormatError, content_hash, load_artifact, save_artifact

ORDERS = ("model_first", "data_first", "alternating", "none")

# Reference input dimensionality for the data-ball rescale (3 x 224 x 224).
_REFERENCE_DIM = 3 * 224 * 224

VARIANTS = {
    "dm-uap": {},
    "spgd": {"rho": 0.0, "r": 0.0},
    "optimal-data": {"rho": 0.0},
    "optimal-params": {"r": 0.0},
}


@dataclass(frozen=True)
class AttackConfig:
    """All crafting hyperparameters.

    `rho` and `r` are the maximum model/data neighborhood sizes (l2); with
    `rescale_r` the data radius is scaled by sqrt(D / (3*224*224)) for the
    actual input dimensionality D, keeping per-pixel perturbation density
    comparable across image sizes.
    """

    epsilon: float = 10.0 / 255.0
    epochs: int = 20
    batch_size: int = 125
    k_model: int = 10
    k_data: int = 10
    rho: float = 1.0
    r: float = 32.0
    gamma: float = 0.01
    order: str = "model_first"
    curriculum: bool = True
    clamp_data_box: bool = False
    rescale_r: bool = True
    seed: int = 0
    variant: str = "dm-uap"

    def __post_init__(self):
        if self.epsilon < 0 or self.rho < 0 or self.r < 0 or self.seed < 0:
            raise ValueError("epsilon, rho, r and seed must be non-negative")
        if min(self.epochs, self.batch_size, self.k_model, self.k_data) < 1:
            raise ValueError("epochs, batch_size, k_model and k_data must be >= 1")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.order not in ORDERS:
            raise ValueError(f"order must be one of {ORDERS}, got {self.order!r}")

    def effective_r(self, input_shape):
        if not self.rescale_r:
            return self.r
        dim = int(np.prod(input_shape))
        return self.r * float(np.sqrt(dim / _REFERENCE_DIM))


def apply_variant(config, name):
    """Return the config with one of the named degenerate presets applied."""
    if name not in VARIANTS:
        raise ValueError(f"unknown variant {name!r}, expected one of {sorted(VARIANTS)}")
    return replace(config, variant=name, **VARIANTS[name])


def schedule(config, t):
    """Per-epoch budgets and step sizes (rho_t, r_t, alpha_m, alpha_d).

    With the curriculum on, the neighborhood sizes grow linearly with the
    epoch: rho_t = t * rho / T and r_t = t * r / T; step sizes are always
    alpha_m = rho_t / k_model and alpha_d = 1.25 * r_t / k_data.
    """
    if not 1 <= t <= config.epochs:
        raise ValueError(f"epoch {t} outside 1..{config.epochs}")
    if config.curriculum:
        rho_t = t * config.rho / config.epochs
        r_t = t * config.r / config.epochs
    else:
        rho_t, r_t = config.rho, config.r
    return rho_t, r_t, rho_t / config.k_model, 1.25 * r_t / config.k_data


def init_uap(sample_shape, epsilon, seed=0):
    """The initial delta, drawn uniformly from (-epsilon, epsilon)."""
    rng = np.random.default_rng(seed)
    try:
        return rng.uniform(-epsilon, epsilon, size=sample_shape)
    except OverflowError as exc:  # 2 * epsilon is beyond the largest float64
        raise CraftingFailed(f"epsilon {epsilon!r} is too large to draw delta from (-epsilon, epsilon)") from exc


def step_schedule(order, k_model, k_data):
    """The inner minimization's steps for one mini-batch, in order.

    Each entry is "model" (one step on theta-star) or "data" (one step on
    the samples). model_first is k_model model steps then k_data data steps,
    data_first the reverse, alternating interleaves single steps (model
    before data) until both counts are spent, and none takes no step.
    """
    if order == "model_first":
        return ("model",) * k_model + ("data",) * k_data
    if order == "data_first":
        return ("data",) * k_data + ("model",) * k_model
    if order == "alternating":
        return tuple(
            step
            for k in range(max(k_model, k_data))
            for step, count in (("model", k_model), ("data", k_data))
            if k < count
        )
    if order == "none":
        return ()
    raise ValueError(f"order must be one of {ORDERS}, got {order!r}")


def inner_minimize(target, X, Y, steps, rho_t, r_t, alpha_m, alpha_d, clamp_box=False):
    """Run a step schedule from the clean model and samples; return (model_star, theta_star, x_star).

    Both sides step with `optim.l2_pgd_step` on their loss gradient at the
    other side's latest iterate. A model step moves the target's `params`, a
    batch of one, by alpha_m along the batch loss's parameter gradient and
    projects them onto the rho_t-ball around the clean parameters. A data
    step moves each sample by alpha_d along the summed loss's input gradient
    and projects it onto its r_t-ball around the clean sample. Model steps
    are skipped when rho_t = 0 and data steps when r_t = 0.

    theta_star (a [1, P] batch of one) and x_star are float64 from their
    side's first step, and each step is computed in float64. model_star is
    the target at theta_star[0] in the target's own dtype; every gradient is
    taken on it. A side that takes no step comes back as the very input:
    model_star is target and theta_star None, or x_star is X.
    """
    model_star, x = target, X
    theta = theta0 = x0 = None
    for step in steps:
        if step == "model" and rho_t > 0:
            if theta is None:
                theta = theta0 = target.params.astype(np.float64)[None]
            _, grad = model_star.loss_grad(x, Y, "parameters")
            theta = l2_pgd_step(theta, grad.astype(np.float64)[None], alpha_m, theta0, rho_t)
            model_star = target.with_params(theta[0])
        elif step == "data" and r_t > 0:
            if x0 is None:
                x = x0 = np.asarray(X, dtype=np.float64)
            _, grad = model_star.loss_grad(x, Y, "input", reduction="sum")
            x = l2_pgd_step(x, grad.astype(np.float64), alpha_d, x0, r_t, clamp_box)
    return model_star, theta, x


def uap_update(delta, adam, model_star, X_star, Y, gamma, epsilon):
    """One Adam ascent step on delta, then clamp to [-epsilon, epsilon].

    The gradient of the mean batch loss at X_star + delta, taken on
    model_star at its own precision, is lifted to float64 and negated before
    the Adam step (Adam descends; the attack maximizes). Returns the new
    delta, the new Adam moments and the loss the gradient was taken at.
    """
    loss, grad = model_star.loss_grad(X_star, Y, "perturbation", delta=delta)
    update, adam = adam_step(adam, -grad.astype(np.float64), gamma)
    return np.clip(delta + update, -epsilon, epsilon), adam, loss


@dataclass
class RunLog:
    """Per-epoch crafting statistics; a craft runs at least one epoch, so there is always a row."""

    epochs: list = field(default_factory=list)
    total_seconds: float = 0.0

    def summary(self):
        return {
            "epochs": len(self.epochs),
            "final_mean_loss": self.epochs[-1]["mean_loss"],
            "max_model_disp": max(e["max_model_disp"] for e in self.epochs),
            "max_data_disp": max(e["max_data_disp"] for e in self.epochs),
            "max_delta_inf": max(e["max_delta_inf"] for e in self.epochs),
            "total_seconds": self.total_seconds,
        }

    def csv(self):
        """The per-epoch rows as CSV text under a header of their keys, in the order `craft` appended them."""
        cols = list(self.epochs[0])
        lines = [",".join(cols)]
        for row in self.epochs:
            lines.append(",".join(f"{row[c]:.6g}" if isinstance(row[c], float) else str(row[c]) for c in cols))
        return "\n".join(lines) + "\n"


# the 64-bit FNV-1a hash of each tag: the salts fix every crafted delta's bytes
_SEED_SALTS = {"init-delta": 0xA0389D0B6A662AAC, "shuffle": 0x477C62BF680BF6AE}


def _subseed(seed, tag):
    return _SEED_SALTS[tag] ^ seed


def _pairs(batches):
    """The batches two at a time, in order; an odd last batch comes alone."""
    batches = iter(batches)
    for first in batches:
        yield (first, *itertools.islice(batches, 1))


def craft(config, model_or_models, dataset):
    """Run the full crafting loop and return (delta, RunLog).

    Per epoch t: compute the schedule; for every seeded mini-batch fetch the
    cached clean-model pseudo-labels, reset theta-star to the clean
    parameters, run the configured order's step schedule, then take one
    Adam ascent step on delta. Ball and clamp invariants are checked after
    every batch, on the float64 theta-star and samples; a violation raises
    CraftingFailed.

    The inner minimization never reads delta, so the batches run two at a
    time: one worker thread minimizes the second batch of a pair while the
    calling thread minimizes the first. The ascent steps, checks and log
    rows then follow in batch order, and every batch runs the same
    operations, so the bytes do not depend on the pairing. A failure is
    raised for the first failing batch in order; the worker's result is
    waited for and dropped, and the thread has exited when craft returns.
    """
    target = as_attack_target(model_or_models)
    if dataset.sample_shape != target.input_shape:
        raise ConfigError(
            f"dataset sample shape {dataset.sample_shape} != model input {target.input_shape}"
        )
    resolved = replace(config, r=config.effective_r(target.input_shape), rescale_r=False)
    labels = pseudo_labels(target, dataset)
    theta0 = target.params.astype(np.float64)[None]
    epsilon = float(resolved.epsilon)
    delta = init_uap(target.input_shape, resolved.epsilon, seed=_subseed(resolved.seed, "init-delta"))
    adam = AdamState.zeros(target.input_shape)
    shuffle_seed = _subseed(resolved.seed, "shuffle")
    steps = step_schedule(resolved.order, resolved.k_model, resolved.k_data)
    log = RunLog()

    def minimize(batch, budgets):
        # errstate is per thread; a step that goes non-finite is reported by the finiteness checks, not numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            return inner_minimize(target, batch.X, batch.Y, steps, *budgets, resolved.clamp_data_box)

    start_total = time.perf_counter()
    with ThreadPoolExecutor(max_workers=1) as worker:
        for t in range(1, resolved.epochs + 1):
            budgets = schedule(resolved, t)
            rho_t, r_t, alpha_m, alpha_d = budgets
            epoch_start = time.perf_counter()
            losses, model_disps, data_disps = [], [0.0], [0.0]
            for pair in _pairs(minibatches(dataset, resolved.batch_size, epoch_seed=shuffle_seed ^ t, labels=labels)):
                second = [worker.submit(minimize, batch, budgets) for batch in pair[1:]]
                for batch, future in zip(pair, [None, *second]):
                    try:
                        model_star, theta_star, x_star = minimize(batch, budgets) if future is None else future.result()
                        with np.errstate(over="ignore", invalid="ignore"):
                            delta, adam, loss = uap_update(
                                delta, adam, model_star, x_star, batch.Y, resolved.gamma, epsilon)
                    except (ValueError, FloatingPointError) as exc:
                        raise CraftingFailed(f"epoch {t}, batch indices {batch.indices[:4]}...: {exc}") from exc
                    model_disp = 0.0 if theta_star is None else float(sample_norms(theta_star - theta0).max())
                    data_disp = 0.0 if x_star is batch.X else float(sample_norms(x_star - batch.X).max())
                    delta_inf = float(np.abs(delta).max())
                    for name, value, bound in (
                        ("l-infinity", delta_inf, epsilon),
                        ("model neighborhood", model_disp, rho_t + 1e-6),
                        ("data neighborhood", data_disp, r_t + 1e-6),
                    ):
                        if not value <= bound:
                            raise CraftingFailed(f"epoch {t}: {name} budget violated ({value!r} > {bound!r})")
                    losses.append(loss)
                    model_disps.append(model_disp)
                    data_disps.append(data_disp)
            log.epochs.append({
                "epoch": t,
                "rho_t": rho_t,
                "r_t": r_t,
                "alpha_m": alpha_m,
                "alpha_d": alpha_d,
                "mean_loss": float(np.mean(losses)),
                "max_model_disp": max(model_disps),
                "max_data_disp": max(data_disps),
                "max_delta_inf": delta_inf,  # the epoch's last batch's, as delta stands at the epoch's end
                "seconds": time.perf_counter() - epoch_start,
            })
    log.total_seconds = time.perf_counter() - start_total
    return delta, log


# -- artifact files -------------------------------------------------------


def save_uap_artifact(path, delta, config, target, dataset, runlog):
    """Write the perturbation artifact with its metadata and run CSV; return the metadata."""
    meta = {
        "config": asdict(config),
        "effective_r": config.effective_r(delta.shape),
        "model_fingerprint": target.fingerprint(),
        "dataset_fingerprint": dataset.fingerprint,
        "dataset_name": dataset.name,
        "run_summary": runlog.summary(),
        "content_hash": content_hash(delta),
    }
    save_artifact(path, delta, meta, log_csv=runlog.csv())
    return meta


def load_uap_artifact(path):
    """(delta, metadata) of a perturbation artifact; its sidecar names it by content_hash, and any config is an object."""
    delta, meta = load_artifact(path)
    if "content_hash" not in meta or not isinstance(meta.get("config", {}), dict):
        raise TensorFormatError(f"delta artifact {path}: metadata lacks a content_hash or a config object")
    return delta, meta
