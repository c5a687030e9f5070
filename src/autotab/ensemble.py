"""Out-of-fold stacking and greedy weighted-ensemble selection.

Level-1 models are refit per fold so every training row is scored by models
that never saw it; the per-model out-of-fold columns (averaged over repeated
partitions) form the matrix the level-2 ensemble is selected on. Selection is
forward stepwise with replacement: each round adds whichever candidate most
improves validation accuracy of the uniformly weighted pool, so the final
weights are selection counts over total selections.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .data import TabularDataset
from .learners.features import LearnerError
from .learners.presets import ModelSpec
from .metrics import accuracy, confusion
from .model import NOT_APPLICABLE, model_applicable, predict_proba, train

__all__ = [
    "EnsembleError",
    "FoldAssignment",
    "OofMatrix",
    "EnsembleModel",
    "kfold_assign",
    "oof_predictions",
    "default_threshold",
    "greedy_select",
    "ensemble_predict",
]

_FOLD_TAG = 505
DEFAULT_FOLDS = 5
DEFAULT_REPEATS = 1
DEFAULT_MAX_ROUNDS = 25
THRESHOLD_MARGIN = 0.05
THRESHOLD_FLOOR = 0.5


class EnsembleError(ValueError):
    pass


@dataclass(frozen=True)
class FoldAssignment:
    n_rows: int
    k: int
    repeats: int
    assignment: np.ndarray  # (repeats, n_rows) fold index per row
    seed: int

    def fold_rows(self, repeat: int, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignment[repeat] == fold)

    def complement_rows(self, repeat: int, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignment[repeat] != fold)


@dataclass
class OofMatrix:
    preset_ids: Tuple[str, ...]
    probas: np.ndarray  # (n_rows, n_models), averaged over repeats
    labels: np.ndarray
    skipped: Dict[str, str] = field(default_factory=dict)

    def column(self, preset_id: str) -> np.ndarray:
        try:
            return self.probas[:, self.preset_ids.index(preset_id)]
        except ValueError:
            raise EnsembleError(f"no out-of-fold column for {preset_id!r}") from None


@dataclass(frozen=True)
class EnsembleModel:
    members: Tuple[Tuple[str, float], ...]  # (preset id, weight), first-selected first
    stack_level: int
    threshold_k: float

    def weight_map(self) -> Dict[str, float]:
        return dict(self.members)


def kfold_assign(
    n_rows: int, labels: Sequence[int], k: int, repeats: int, seed: int
) -> FoldAssignment:
    """Stratified fold labels: per class, fold sizes differ by at most one."""
    labels = np.asarray(labels)
    if len(labels) != n_rows:
        raise EnsembleError(f"expected {n_rows} labels, got {len(labels)}")
    if k < 2:
        raise EnsembleError(f"fold count must be at least 2, got {k}")
    if repeats < 1:
        raise EnsembleError(f"repeat count must be positive, got {repeats}")
    for cls in np.unique(labels):
        size = int((labels == cls).sum())
        if size < k:
            raise EnsembleError(f"class {cls} has {size} rows, fewer than {k} folds")
    rng = np.random.default_rng(np.random.SeedSequence((seed, _FOLD_TAG)))
    assignment = np.empty((repeats, n_rows), dtype=np.int64)
    for r in range(repeats):
        for cls in np.unique(labels):
            rows = np.flatnonzero(labels == cls)
            shuffled = rng.permutation(rows)
            assignment[r, shuffled] = np.arange(len(rows)) % k
    return FoldAssignment(n_rows=n_rows, k=k, repeats=repeats, assignment=assignment, seed=seed)


def oof_predictions(
    specs: Sequence[ModelSpec], train_ds: TabularDataset, folds: FoldAssignment
) -> OofMatrix:
    """One out-of-fold probability column per spec; failures become skips."""
    if folds.n_rows != train_ds.row_count:
        raise EnsembleError("fold assignment does not cover the training rows")
    labels = train_ds.target()
    columns: List[np.ndarray] = []
    kept: List[str] = []
    skipped: Dict[str, str] = {}
    for spec in specs:
        if not model_applicable(spec, train_ds.feature_schema):
            skipped[spec.preset_id] = NOT_APPLICABLE
            continue
        acc = np.zeros(folds.n_rows)
        try:
            for r in range(folds.repeats):
                for j in range(folds.k):
                    fit_rows = folds.complement_rows(r, j)
                    score_rows = folds.fold_rows(r, j)
                    member = train(spec, train_ds.take(fit_rows))
                    acc[score_rows] += predict_proba(member, train_ds.take(score_rows))
        except LearnerError as exc:
            skipped[spec.preset_id] = f"training failed: {exc}"
            continue
        columns.append(acc / folds.repeats)
        kept.append(spec.preset_id)
    if not columns:
        raise EnsembleError("no model produced out-of-fold predictions")
    return OofMatrix(
        preset_ids=tuple(kept),
        probas=np.column_stack(columns),
        labels=labels,
        skipped=skipped,
    )


def default_threshold(single_accuracies: Sequence[float]) -> float:
    best = max(single_accuracies)
    return max(best - THRESHOLD_MARGIN, THRESHOLD_FLOOR)


def greedy_select(
    oof: OofMatrix,
    threshold_k: Optional[float] = None,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
) -> EnsembleModel:
    """Forward stepwise selection with replacement over the OOF columns.

    Candidacy requires 0.5-thresholded validation accuracy of at least
    threshold_k (default: best single accuracy minus 0.05, floored at 0.5).
    Ties go to the candidate with higher single accuracy, then lower id.
    """
    if max_rounds < 1:
        raise EnsembleError(f"max_rounds must be positive, got {max_rounds}")
    singles = {
        pid: accuracy(confusion(oof.labels, oof.probas[:, i]))
        for i, pid in enumerate(oof.preset_ids)
    }
    if threshold_k is None:
        threshold_k = default_threshold(list(singles.values()))
    candidates = [pid for pid in oof.preset_ids if singles[pid] >= threshold_k]
    if not candidates:
        raise EnsembleError(
            f"no candidate reaches validation accuracy {threshold_k:.4f}"
        )
    # scan order encodes the tie-break preference
    candidates.sort(key=lambda pid: (-singles[pid], pid))

    selections: List[str] = []
    pooled = np.zeros(len(oof.labels))
    current = -np.inf
    for _ in range(max_rounds):
        best_pid = None
        best_score = current
        for pid in candidates:
            trial = (pooled + oof.column(pid)) / (len(selections) + 1)
            score = accuracy(confusion(oof.labels, trial))
            if score > best_score:
                best_score = score
                best_pid = pid
        if best_pid is None:
            break
        selections.append(best_pid)
        pooled += oof.column(best_pid)
        current = best_score
    counts: Dict[str, int] = {}
    for pid in selections:
        counts[pid] = counts.get(pid, 0) + 1
    total = len(selections)
    members = tuple((pid, counts[pid] / total) for pid in counts)
    return EnsembleModel(members=members, stack_level=2, threshold_k=float(threshold_k))


def ensemble_predict(
    ens: EnsembleModel, base_probas: Mapping[str, Sequence[float]]
) -> np.ndarray:
    """Weighted average of member probability vectors."""
    out: Optional[np.ndarray] = None
    for pid, weight in ens.members:
        if pid not in base_probas:
            raise EnsembleError(f"missing predictions for ensemble member {pid!r}")
        column = np.asarray(base_probas[pid], dtype=np.float64)
        out = weight * column if out is None else out + weight * column
    if out is None:
        raise EnsembleError("ensemble has no members")
    return out
