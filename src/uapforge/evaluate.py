"""Fooling-ratio measurement, transfer matrices, and report serialization.

The fooling ratio counts prediction changes: the fraction of evaluated
samples whose argmax flips when the perturbation is added. Perturbed inputs
are always clamped to the [0, 1] pixel box before the model sees them; clean
accuracy and perturbed accuracy are carried as auxiliary fields only.

`transfer_matrix` is the one evaluation loop. D deltas against T targets
take (D + 1) * T forward passes: each target predicts the clean samples once
and each delta's clipped batch once. `AttackTarget.predict` is the only code
that splits samples into chunks. `fooling_ratio`, one cell of the matrix, is
called by the benchmark alone; the CLI evaluates through `transfer_matrix`.
"""

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError
from .tensor import array_fingerprint, write_atomic


@dataclass
class FoolingReport:
    model_id: str
    dataset_fingerprint: str
    delta_hash: str
    n_evaluated: int
    n_changed: int
    fooling_ratio: float
    surrogate: str
    clean_accuracy: float
    perturbed_accuracy: float
    n_correct_to_wrong: int


@dataclass
class TransferMatrix:
    surrogates: list
    targets: list
    ratios: list  # ratios[i][j] = fooling ratio of delta i against target j
    row_averages: list
    dataset_fingerprint: str
    reports: list = field(default_factory=list)


def fooling_ratio(model, dataset, delta, model_id="", surrogate=""):
    """Fraction of samples whose prediction changes under clip(x + delta).

    The denominator is every evaluated sample regardless of clean
    correctness. This is the one cell of a one-by-one transfer matrix.
    """
    return transfer_matrix([(model_id, model)], [(surrogate, delta)], dataset).reports[0]


def transfer_matrix(models, deltas, dataset):
    """Cross table of fooling ratios.

    `models` is a list of (target_id, model); `deltas` a list of
    (surrogate_tag, delta). Entry [i][j] applies delta i to target j; row
    averages follow each surrogate's mean ratio across targets.
    """
    deltas = [(tag, np.asarray(delta)) for tag, delta in deltas]
    shapes = [("delta", delta.shape) for _, delta in deltas] + [("model input", m.input_shape) for _, m in models]
    for what, shape in shapes:
        if shape != dataset.sample_shape:
            raise ConfigError(f"{what} shape {shape} != sample shape {dataset.sample_shape}")
    X, Y = dataset.images, dataset.labels
    n = X.shape[0]
    clean = [model.predict(X) for _, model in models]
    reports = []
    for tag, delta in deltas:
        perturbed = np.clip(X.astype(np.float64) + delta, 0.0, 1.0)
        delta_hash = array_fingerprint(delta)
        for (target_id, model), before in zip(models, clean):
            after = model.predict(perturbed)
            n_changed = int((before != after).sum())
            clean_ok, pert_ok = before == Y, after == Y
            reports.append(FoolingReport(
                model_id=target_id, dataset_fingerprint=dataset.fingerprint, delta_hash=delta_hash,
                n_evaluated=n, n_changed=n_changed, fooling_ratio=n_changed / n, surrogate=tag,
                clean_accuracy=int(clean_ok.sum()) / n, perturbed_accuracy=int(pert_ok.sum()) / n,
                n_correct_to_wrong=int((clean_ok & ~pert_ok).sum()),
            ))
    t = len(models)
    ratios = [[r.fooling_ratio for r in reports[i * t : (i + 1) * t]] for i in range(len(deltas))]
    return TransferMatrix(
        surrogates=[tag for tag, _ in deltas],
        targets=[tid for tid, _ in models],
        ratios=ratios,
        row_averages=[float(np.mean(row)) for row in ratios],
        dataset_fingerprint=dataset.fingerprint,
        reports=reports,
    )


def _round_floats(obj, places=4):
    if isinstance(obj, float):
        return round(obj, places)
    if isinstance(obj, dict):
        return {k: _round_floats(v, places) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, places) for v in obj]
    return obj


def _csv_rows(matrix):
    out = ["surrogate,target,fooling_ratio,n,dataset_fp,delta_hash"]
    for r in matrix.reports:
        out.append(
            f"{r.surrogate},{r.model_id},{r.fooling_ratio:.4f},{r.n_evaluated},"
            f"{r.dataset_fingerprint},{r.delta_hash}"
        )
    return out


REPORT_FORMATS = ("json", "csv")


def report_write(matrix, path, format="json"):
    """Write a TransferMatrix deterministically: sorted keys, four decimal places."""
    if format == "json":
        text = json.dumps(_round_floats(asdict(matrix)), indent=2, sort_keys=True)
    elif format == "csv":
        text = "\n".join(_csv_rows(matrix))
    else:
        raise ValueError(f"unknown report format {format!r}")
    write_atomic(path, (text + "\n").encode())
