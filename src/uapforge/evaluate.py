"""Fooling-ratio measurement, transfer matrices, and report serialization.

The fooling ratio counts prediction changes: the fraction of evaluated
samples whose argmax flips when the perturbation is added. Perturbed inputs
are always clamped to the [0, 1] pixel box before the model sees them; clean
accuracy and perturbed accuracy are carried as auxiliary fields only.
"""

import json
import warnings
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
    surrogate: str = ""
    clean_accuracy: float | None = None
    perturbed_accuracy: float | None = None
    n_correct_to_wrong: int | None = None


@dataclass
class TransferMatrix:
    surrogates: list
    targets: list
    ratios: list  # ratios[i][j] = fooling ratio of delta i against target j
    row_averages: list
    dataset_fingerprint: str
    reports: list = field(default_factory=list)


def fooling_ratio(model, dataset, delta, model_id="", surrogate="", epsilon=None, chunk=512):
    """Fraction of samples whose prediction changes under clip(x + delta).

    The denominator is every evaluated sample regardless of clean
    correctness. Evaluation proceeds in chunks and merges integer counts, so
    the result is independent of the chunk width.
    """
    delta = np.asarray(delta)
    for what, shape in (("delta", delta.shape), ("model input", model.input_shape)):
        if shape != dataset.sample_shape:
            raise ConfigError(f"{what} shape {shape} != sample shape {dataset.sample_shape}")
    if epsilon is not None and float(np.abs(delta).max()) > epsilon:
        warnings.warn(f"delta exceeds the recorded budget {epsilon}", stacklevel=2)
    X = dataset.images
    n = X.shape[0]
    n_changed = 0
    n_clean_correct = 0
    n_pert_correct = 0
    n_correct_to_wrong = 0
    for start in range(0, n, chunk):
        xs = X[start : start + chunk]
        clean = model.predict(xs)
        pert = model.predict(np.clip(xs.astype(np.float64) + delta, 0.0, 1.0))
        changed = clean != pert
        n_changed += int(changed.sum())
        if dataset.labels is not None:
            ys = dataset.labels[start : start + chunk]
            n_clean_correct += int((clean == ys).sum())
            n_pert_correct += int((pert == ys).sum())
            n_correct_to_wrong += int(((clean == ys) & (pert != ys)).sum())
    has_labels = dataset.labels is not None
    return FoolingReport(
        model_id=model_id,
        dataset_fingerprint=dataset.fingerprint,
        delta_hash=array_fingerprint(delta),
        n_evaluated=n,
        n_changed=n_changed,
        fooling_ratio=n_changed / n,
        surrogate=surrogate,
        clean_accuracy=n_clean_correct / n if has_labels else None,
        perturbed_accuracy=n_pert_correct / n if has_labels else None,
        n_correct_to_wrong=n_correct_to_wrong if has_labels else None,
    )


def transfer_matrix(models, deltas, dataset):
    """Cross table of fooling ratios.

    `models` is a list of (target_id, model); `deltas` a list of
    (surrogate_tag, delta). Entry [i][j] applies delta i to target j; row
    averages follow each surrogate's mean ratio across targets.
    """
    ratios, reports = [], []
    for tag, delta in deltas:
        row = []
        for target_id, model in models:
            rep = fooling_ratio(model, dataset, delta, model_id=target_id, surrogate=tag)
            row.append(rep.fooling_ratio)
            reports.append(rep)
        ratios.append(row)
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


def _csv_rows(report):
    if isinstance(report, FoolingReport):
        rows = [report]
    elif isinstance(report, TransferMatrix):
        rows = report.reports
    else:
        raise TypeError(f"cannot serialize {type(report).__name__}")
    out = ["surrogate,target,fooling_ratio,n,dataset_fp,delta_hash"]
    for r in rows:
        out.append(
            f"{r.surrogate},{r.model_id},{r.fooling_ratio:.4f},{r.n_evaluated},"
            f"{r.dataset_fingerprint},{r.delta_hash}"
        )
    return out


REPORT_FORMATS = ("json", "csv")


def report_write(report, path, format="json"):
    """Deterministic serialization: sorted keys, four decimal places."""
    if format == "json":
        text = json.dumps(_round_floats(asdict(report)), indent=2, sort_keys=True)
    elif format == "csv":
        text = "\n".join(_csv_rows(report))
    else:
        raise ValueError(f"unknown report format {format!r}")
    write_atomic(path, (text + "\n").encode())
