"""Threshold-0.5 point metrics, ROC curve, and trapezoidal AUC."""

from dataclasses import dataclass

import numpy as np

from .fcg import DataError, report_lines, write_lines

METRICS_REPORT_HEADER = "#mal2gcn-metrics v1"


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    tn: int
    fn: int
    roc_points: tuple | None  # ((fpr, tpr, threshold), ...) sorted by threshold descending
    auc: float | None  # absent for single-label inputs


def compute_metrics(scored) -> MetricsReport:
    """Point metrics at threshold 0.5 plus the full-threshold-sweep ROC and AUC.

    `scored` is a sequence of (finite score, label) with labels in {0, 1}; a
    sample is predicted malware when score >= 0.5.  Single-label inputs get
    point metrics only (ROC/AUC reported absent).
    """
    scored = list(scored)
    if not scored:
        raise DataError("compute_metrics needs at least one scored sample")
    scores = np.array([float(s) for s, _ in scored])
    labels = np.array([int(y) for _, y in scored])
    if not set(np.unique(labels)) <= {0, 1}:
        raise DataError("labels must be 0 or 1")
    if not np.isfinite(scores).all():
        raise DataError("scores must be finite numbers")

    predicted = scores >= 0.5
    tp = int(np.sum(predicted & (labels == 1)))
    fp = int(np.sum(predicted & (labels == 0)))
    tn = int(np.sum(~predicted & (labels == 0)))
    fn = int(np.sum(~predicted & (labels == 1)))

    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    accuracy = (tp + tn) / len(scored)

    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        return MetricsReport(accuracy, precision, recall, f1, tp, fp, tn, fn, None, None)

    # sweep every distinct score as a threshold (predict positive iff score >= t): after one descending
    # sort, the samples >= t end at the last index of t's ties; the final point, at the minimum score, is (1, 1)
    order = np.argsort(-scores, kind="stable")
    ranked = scores[order]
    last = np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True))
    tps = np.cumsum(labels[order] == 1)[last]
    fps = last + 1 - tps
    points = [(0.0, 0.0, float("inf")), *zip((fps / n_neg).tolist(), (tps / n_pos).tolist(), ranked[last].tolist())]

    auc = 0.0
    for (fpr0, tpr0, _), (fpr1, tpr1, _) in zip(points, points[1:]):
        auc += (fpr1 - fpr0) * (tpr0 + tpr1) / 2.0

    return MetricsReport(accuracy, precision, recall, f1, tp, fp, tn, fn, tuple(points), auc)


def roc_csv_lines(report: MetricsReport) -> list[str]:
    """Header row then fpr,tpr,threshold rows in full precision."""
    lines = ["fpr,tpr,threshold"]
    for fpr, tpr, threshold in report.roc_points or ():
        lines.append(f"{fpr!r},{tpr!r},{threshold!r}")
    return lines


def write_metrics_report(report: MetricsReport, path, meta: dict | None = None) -> None:
    lines = report_lines(METRICS_REPORT_HEADER, meta)
    lines += [f"{name}\t{getattr(report, name)!r}" for name in ("accuracy", "precision", "recall", "f1")]
    lines.append(f"auc\t{report.auc!r}" if report.auc is not None else "auc\tabsent")
    lines += [f"{name}\t{getattr(report, name)}" for name in ("tp", "fp", "tn", "fn")]
    if report.roc_points is not None:
        lines += ["[roc]", *roc_csv_lines(report)]
    write_lines(path, lines)
