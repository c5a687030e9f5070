"""Binary classification metrics: confusion counts, ratio metrics, ROC-AUC."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


class MetricError(ValueError):
    pass


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass(frozen=True)
class MetricsReport:
    """Metric bundle for one model on one labeled sample, positive at proba >= 0.5.

    precision/recall/f1 are None when their denominator is zero, and roc_auc
    when the sample holds one class; they are never silently reported as 0 or 1.
    """

    accuracy: float
    precision: Optional[float]
    recall: Optional[float]
    f1: Optional[float]
    roc_auc: Optional[float]


def confusion(labels: Sequence[int], probas: Sequence[float], threshold: float = 0.5) -> ConfusionMatrix:
    """Tally a confusion matrix; a row is predicted positive iff proba >= threshold."""
    y = np.asarray(labels)
    p = np.asarray(probas, dtype=float)
    if y.shape != p.shape or y.ndim != 1:
        raise MetricError(f"labels and probas must be equal-length vectors, got {y.shape} and {p.shape}")
    if y.size == 0:
        raise MetricError("cannot tally an empty sample")
    if not np.all((p >= 0.0) & (p <= 1.0)):  # NaN fails both comparisons
        raise MetricError("probabilities must lie in [0, 1]")
    if not np.all((y == 0) | (y == 1)):
        raise MetricError("labels must be 0 or 1")
    pred = p >= threshold
    pos = y == 1
    tp = int(np.sum(pred & pos))
    tn = int(np.sum(~pred & ~pos))
    fp = int(np.sum(pred & ~pos))
    fn = int(np.sum(~pred & pos))
    return ConfusionMatrix(tp=tp, tn=tn, fp=fp, fn=fn)


def accuracy(cm: ConfusionMatrix) -> float:
    if cm.total == 0:
        raise MetricError("accuracy undefined on an empty confusion matrix")
    return (cm.tp + cm.tn) / cm.total


def precision(cm: ConfusionMatrix) -> Optional[float]:
    if cm.tp + cm.fp == 0:
        return None
    return cm.tp / (cm.tp + cm.fp)


def recall(cm: ConfusionMatrix) -> Optional[float]:
    if cm.tp + cm.fn == 0:
        return None
    return cm.tp / (cm.tp + cm.fn)


def f1(cm: ConfusionMatrix) -> Optional[float]:
    p = precision(cm)
    r = recall(cm)
    if p is None or r is None or p + r == 0:
        return None
    return 2 * p * r / (p + r)


def _rank_counts(labels, scores):
    y = np.asarray(labels)
    s = np.asarray(scores, dtype=float)
    if y.shape != s.shape or y.ndim != 1:
        raise MetricError("labels and scores must be equal-length vectors")
    n_pos = int(np.sum(y == 1))
    n_neg = int(y.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise MetricError("ROC-AUC needs both classes present")
    return y, s, n_pos, n_neg


def roc_auc(labels: Sequence[int], scores: Sequence[float]) -> float:
    """Trapezoidal area under the ROC curve with tie-grouped thresholds.

    Accumulates the doubled area as an integer, so the result is bit-identical
    to the pairwise Mann-Whitney statistic (ties get half credit).
    """
    y, s, n_pos, n_neg = _rank_counts(labels, scores)
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    y_sorted = y[order]
    # group boundaries: indices where the sorted score changes
    boundary = np.nonzero(np.diff(s_sorted))[0]
    ends = np.concatenate([boundary, [s_sorted.size - 1]])
    tp_cum = np.cumsum(y_sorted)[ends]
    fp_cum = (ends + 1) - tp_cum
    tp_prev = np.concatenate([[0], tp_cum[:-1]])
    fp_prev = np.concatenate([[0], fp_cum[:-1]])
    doubled_area = int(np.sum((fp_cum - fp_prev) * (tp_cum + tp_prev)))
    return doubled_area / (2 * n_pos * n_neg)


def roc_auc_pairwise(labels: Sequence[int], scores: Sequence[float]) -> float:
    """O(n_pos * n_neg) Mann-Whitney computation: P(score_pos > score_neg) + ties/2."""
    y, s, n_pos, n_neg = _rank_counts(labels, scores)
    pos = s[y == 1]
    neg = s[y == 0]
    diff = pos[:, None] - neg[None, :]
    doubled_wins = int(2 * np.sum(diff > 0) + np.sum(diff == 0))
    return doubled_wins / (2 * n_pos * n_neg)


def report(labels: Sequence[int], probas: Sequence[float]) -> MetricsReport:
    cm = confusion(labels, probas)
    one_class = cm.tp + cm.fn == 0 or cm.tn + cm.fp == 0
    return MetricsReport(
        accuracy=accuracy(cm),
        precision=precision(cm),
        recall=recall(cm),
        f1=f1(cm),
        roc_auc=None if one_class else roc_auc(labels, probas),
    )
