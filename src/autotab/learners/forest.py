"""Bagged and extremely randomized tree ensembles for binary targets."""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .features import LearnerError
from .trees import TreeArrays, exact_codes, grow_tree, predict_leaf_matrix, trees_from_doc, trees_to_doc

_NO_DEPTH_LIMIT = 10_000


def sqrt_feature_count(n_features: int) -> int:
    return max(1, int(np.sqrt(n_features)))


@dataclass
class ForestModel:
    trees: List[TreeArrays]
    n_features: int


def forest_to_doc(model: ForestModel) -> dict:
    return {"n_features": model.n_features, "trees": trees_to_doc(model.trees)}


def forest_from_doc(doc: dict) -> ForestModel:
    return ForestModel(trees=trees_from_doc(doc["trees"]), n_features=int(doc["n_features"]))


def fit_forest(X: np.ndarray, y: np.ndarray, params: dict, seed_key: Tuple[int, ...]) -> ForestModel:
    """Fit `n_trees` independent trees and average their leaf frequencies.

    `bootstrap=False` together with `random_cuts=True` gives the extremely
    randomized variant: every tree sees all rows but split thresholds are
    drawn uniformly over the occupied value boundaries of each candidate
    feature instead of being optimized.
    """
    n, F = X.shape
    if n < 2:
        raise LearnerError("need at least two rows to fit a forest")
    codes = exact_codes(X)
    n_trees = int(params["n_trees"])
    max_depth = int(params.get("max_depth", 0)) or _NO_DEPTH_LIMIT
    min_leaf = int(params.get("min_leaf", 1))
    criterion = params["criterion"]
    bootstrap = bool(params.get("bootstrap", True))
    random_cuts = bool(params.get("random_cuts", False))
    m = sqrt_feature_count(F)
    yf = y.astype(np.float64)

    trees: List[TreeArrays] = []
    for child in np.random.SeedSequence(seed_key).spawn(n_trees):
        rng = np.random.default_rng(child)
        rows = rng.integers(0, n, size=n) if bootstrap else np.arange(n, dtype=np.int64)
        tree, _ = grow_tree(
            codes,
            codes.flat[rows],
            (yf[rows],),
            mode=criterion,
            max_depth=max_depth,
            min_leaf=min_leaf,
            rng=rng,
            n_sample_features=m,
            random_cuts=random_cuts,
        )
        trees.append(tree)
    return ForestModel(trees=trees, n_features=F)


def forest_proba(model: ForestModel, X: np.ndarray) -> np.ndarray:
    if X.shape[1] != model.n_features:
        raise LearnerError(
            f"forest was fit on {model.n_features} features, got {X.shape[1]}"
        )
    return predict_leaf_matrix(model.trees, X).mean(axis=1)
