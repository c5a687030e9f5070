"""Gradient boosted trees over histogram codes, logistic loss.

Four flavors share one fitting loop:

- greedy axis-aligned splits scored with first-order gain,
- random-threshold splits (first-order gain at one drawn cut per feature),
- greedy splits scored with second-order gain and regularized leaf values,
- oblivious levels (one shared split per depth) on second-order gain, with
  categorical columns replaced by ordered target statistics.

After every boosting round the new tree's contribution is accepted only if
training loss does not increase; otherwise the tree is rescaled by halving
(down to zero), so the recorded loss trace is non-increasing by construction.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .features import LearnerError
from .trees import TreeArrays, grow_tree, predict_leaf_matrix, quantile_codes

_MAX_HALVINGS = 60


def sigmoid(raw: np.ndarray) -> np.ndarray:
    out = np.empty_like(raw, dtype=np.float64)
    pos = raw >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-raw[pos]))
    ez = np.exp(raw[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logistic_loss(raw: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean(np.logaddexp(0.0, raw) - y * raw))


@dataclass
class BoostModel:
    base_score: float
    learning_rate: float
    loss_trace: List[float]
    n_features: int
    # per-column category -> target-statistic lookup; empty except for the ordered flavor
    ts_tables: Dict[int, np.ndarray]
    trees: List[TreeArrays]


def _ordered_target_statistics(
    cat: np.ndarray, y: np.ndarray, perm: np.ndarray, prior: float
) -> np.ndarray:
    """Running per-category mean over a fixed row ordering, excluding self."""
    n = len(y)
    idx_in_perm = np.empty(n, dtype=np.int64)
    idx_in_perm[perm] = np.arange(n)
    order = np.lexsort((idx_in_perm, cat))
    sorted_cat = cat[order]
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    new_group[1:] = sorted_cat[1:] != sorted_cat[:-1]
    group_start = np.maximum.accumulate(np.where(new_group, np.arange(n), 0))
    pos_in_group = np.arange(n) - group_start
    cum_y = np.cumsum(y[order].astype(np.float64))
    seen_before = cum_y - y[order]
    base = np.where(group_start > 0, cum_y[np.maximum(group_start - 1, 0)], 0.0)
    prefix_y = seen_before - base
    ts = np.empty(n, dtype=np.float64)
    ts[order] = (prefix_y + prior) / (pos_in_group + 1.0)
    return ts


def _ts_table(cat: np.ndarray, y: np.ndarray, n_categories: int, prior: float) -> np.ndarray:
    tot_n = np.bincount(cat, minlength=n_categories).astype(np.float64)
    tot_y = np.bincount(cat, weights=y.astype(np.float64), minlength=n_categories)
    return (tot_y + prior) / (tot_n + 1.0)


def fit_gbt(
    X: np.ndarray,
    y: np.ndarray,
    params: dict,
    seed_key: Tuple[int, ...],
    categorical: Optional[np.ndarray] = None,
    cardinalities: Optional[np.ndarray] = None,
) -> BoostModel:
    n, F = X.shape
    if n < 2:
        raise LearnerError("need at least two rows to fit boosted trees")
    pbar = float(np.mean(y))
    if pbar <= 0.0 or pbar >= 1.0:
        raise LearnerError("boosted trees need both classes present in training data")

    n_trees = int(params["n_trees"])
    max_depth = int(params["max_depth"])
    lr = float(params["learning_rate"])
    min_child = int(params.get("min_child", 5))
    order = params.get("order", "first")  # first | newton
    random_cuts = bool(params.get("random_cuts", False))
    oblivious = bool(params.get("oblivious", False))
    lam = float(params.get("l2", 1.0))

    ss = np.random.SeedSequence(seed_key)
    children = ss.spawn(n_trees + 1)
    ts_tables: Dict[int, np.ndarray] = {}
    X_work = X
    if params.get("ordered_stats") and categorical is not None and categorical.any():
        perm_rng = np.random.default_rng(children[0])
        perm = perm_rng.permutation(n)
        X_work = X.copy()
        for f in np.flatnonzero(categorical):
            cat = X[:, f].astype(np.int64)
            X_work[:, f] = _ordered_target_statistics(cat, y, perm, pbar)
            ts_tables[int(f)] = _ts_table(cat, y, int(cardinalities[f]), pbar)

    codes = quantile_codes(X_work, 32)
    base = float(np.log(pbar / (1.0 - pbar)))
    raw = np.full(n, base, dtype=np.float64)
    yf = y.astype(np.float64)
    trace = [logistic_loss(raw, yf)]
    mode = "newton" if order == "newton" else "sse"

    trees: List[TreeArrays] = []
    for t in range(n_trees):
        rng = np.random.default_rng(children[t + 1])
        p = sigmoid(raw)
        g = yf - p
        channels = (g, p * (1.0 - p)) if mode == "newton" else (g,)
        tree, leaf_of_row = grow_tree(
            codes,
            codes.flat,
            channels,
            mode=mode,
            max_depth=max_depth,
            min_leaf=min_child,
            rng=rng,
            random_cuts=random_cuts,
            oblivious=oblivious,
            lam=lam,
        )
        # accept the tree only at a scale that does not worsen training loss
        step = lr * leaf_of_row
        scale = 1.0
        new_raw = raw + step
        new_loss = logistic_loss(new_raw, yf)
        halvings = 0
        while new_loss > trace[-1] and halvings < _MAX_HALVINGS:
            scale *= 0.5
            new_raw = raw + scale * step
            new_loss = logistic_loss(new_raw, yf)
            halvings += 1
        if new_loss > trace[-1]:
            scale = 0.0
            new_raw = raw
            new_loss = trace[-1]
        if scale != 1.0:
            tree.value *= scale
        raw = new_raw
        trace.append(new_loss)
        trees.append(tree)

    return BoostModel(
        trees=trees,
        base_score=base,
        learning_rate=lr,
        loss_trace=trace,
        n_features=F,
        ts_tables=ts_tables,
    )


def gbt_raw_scores(model: BoostModel, X: np.ndarray) -> np.ndarray:
    if X.shape[1] != model.n_features:
        raise LearnerError(
            f"boosted model was fit on {model.n_features} features, got {X.shape[1]}"
        )
    if not model.trees:
        return np.full(len(X), model.base_score)
    X_work = X
    if model.ts_tables:
        X_work = X.copy()
        for f, table in model.ts_tables.items():
            codes = X[:, f].astype(np.int64)
            if codes.min() < 0 or codes.max() >= len(table):
                raise LearnerError(f"categorical code out of range in column {f}")
            X_work[:, f] = table[codes]
    leaf = predict_leaf_matrix(model.trees, X_work)
    return model.base_score + model.learning_rate * leaf.sum(axis=1)


def gbt_proba(model: BoostModel, X: np.ndarray) -> np.ndarray:
    return sigmoid(gbt_raw_scores(model, X))
