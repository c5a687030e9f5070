"""Dataset-level training, prediction and tuning over the preset registry.

A trained model remembers the schema fingerprint of its training data and
refuses to score datasets with a different shape. Randomness is derived from
(spec.seed, family tag, preset index) so every preset has an independent,
reproducible stream.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from .data import ColumnKind, ColumnSchema, TabularDataset, schema_fingerprint, split_train_test
from .learners.boosting import BoostModel, fit_gbt, gbt_proba
from .learners.features import Featurizer, LearnerError, dataset_matrix, featurize, fit_featurizer
from .learners.forest import ForestModel, fit_forest, forest_proba
from .learners.knn import KnnModel, fit_knn, knn_proba
from .learners.mlp import MlpModel, fit_mlp, mlp_proba
from .learners.presets import (
    FOREST,
    GBT,
    KNN,
    MLP,
    PRESET_INDEX,
    ModelSpec,
    candidate_hyperparameters,
    family_grid,
    preset_by_id,
    registry_presets,
)
from .metrics import accuracy, confusion

__all__ = [
    "FAMILIES",
    "ModelSpec",
    "NOT_APPLICABLE",
    "TrainedModel",
    "registry_presets",
    "preset_by_id",
    "family_grid",
    "model_applicable",
    "train",
    "predict_proba",
    "tune_preset",
]

_TUNE_TAG = 404
_INNER_RATIO = 0.8
NOT_APPLICABLE = "no continuous feature columns after preprocessing"


@dataclass
class TrainedModel:
    spec: ModelSpec
    fingerprint: str
    schema: Sequence[ColumnSchema]
    payload: object
    featurizer: Optional[Featurizer] = None

    @property
    def preset_id(self) -> str:
        return self.spec.preset_id


@dataclass(frozen=True)
class Family:
    """What differs between model families. `fit(spec, ds, X, y)` gets the
    featurized matrix when `featurized`, else the raw column matrix, and
    returns an instance of the `payload` dataclass."""

    fit: Callable[[ModelSpec, TabularDataset, np.ndarray, np.ndarray], object]
    proba: Callable[[object, np.ndarray], np.ndarray]
    payload: type
    featurized: bool
    needs_continuous: bool = False


def _seed_key(spec: ModelSpec, tag: int) -> tuple:
    return (spec.seed, tag, PRESET_INDEX.get(spec.preset_id, 97))


def _fit_gbt(spec: ModelSpec, ds: TabularDataset, X: np.ndarray, y: np.ndarray) -> object:
    schema = ds.feature_schema
    return fit_gbt(
        X,
        y,
        spec.hyperparameters,
        _seed_key(spec, 202),
        categorical=np.array([c.kind != ColumnKind.CONTINUOUS for c in schema]),
        cardinalities=tuple(len(c.categories) if c.categories else 0 for c in schema),
    )


# Learner functions are looked up at call time, so a wrapper installed on a
# module attribute (as perfbench's tracer does) still sees every call.
FAMILIES: Dict[str, Family] = {
    FOREST: Family(
        fit=lambda spec, ds, X, y: fit_forest(X, y, spec.hyperparameters, _seed_key(spec, 101)),
        proba=lambda m, X: forest_proba(m, X),
        payload=ForestModel,
        featurized=False,
    ),
    GBT: Family(
        fit=_fit_gbt,
        proba=lambda m, X: gbt_proba(m, X),
        payload=BoostModel,
        featurized=False,
    ),
    KNN: Family(
        fit=lambda spec, ds, X, y: fit_knn(X, y, spec.hyperparameters),
        proba=lambda m, X: knn_proba(m, X),
        payload=KnnModel,
        featurized=True,
        needs_continuous=True,
    ),
    MLP: Family(
        fit=lambda spec, ds, X, y: fit_mlp(X, y, spec.hyperparameters, _seed_key(spec, 303)),
        proba=lambda m, X: mlp_proba(m, X),
        payload=MlpModel,
        featurized=True,
    ),
}


def model_applicable(spec: ModelSpec, feature_schema: Sequence[ColumnSchema]) -> bool:
    """False only for a family that needs a continuous column and finds none."""
    if spec.family not in FAMILIES:
        raise LearnerError(f"unknown model family {spec.family!r}")
    return not FAMILIES[spec.family].needs_continuous or any(
        c.kind == ColumnKind.CONTINUOUS for c in feature_schema
    )


def train(spec: ModelSpec, ds: TabularDataset) -> TrainedModel:
    if not model_applicable(spec, ds.feature_schema):
        raise LearnerError(f"{spec.preset_id} is not applicable: {NOT_APPLICABLE}")
    if ds.has_missing():
        raise LearnerError("training data still contains missing values; impute first")
    y = ds.target()
    if len(np.unique(y)) < 2:
        raise LearnerError("training data contains a single class")

    family = FAMILIES[spec.family]
    fz = fit_featurizer(ds) if family.featurized else None
    X = dataset_matrix(ds) if fz is None else featurize(ds, fz)
    payload = family.fit(spec, ds, X, y)
    return TrainedModel(spec, schema_fingerprint(ds.schema), ds.schema, payload, featurizer=fz)


def predict_proba(model: TrainedModel, ds: TabularDataset) -> np.ndarray:
    if schema_fingerprint(ds.schema) != model.fingerprint:
        raise LearnerError(
            f"schema fingerprint mismatch: {model.preset_id} was trained on different columns"
        )
    if ds.has_missing():
        raise LearnerError("scoring data still contains missing values; impute first")
    X = dataset_matrix(ds) if model.featurizer is None else featurize(ds, model.featurizer)
    return FAMILIES[model.spec.family].proba(model.payload, X)


def tune_preset(spec: ModelSpec, ds: TabularDataset, budget: int) -> ModelSpec:
    """Pick hyperparameters by accuracy on an inner 80:20 split of `ds`.

    The default setting is always candidate zero; up to `budget` seeded grid
    draws compete with it and ties keep the earliest candidate.
    """
    if budget <= 0 or not model_applicable(spec, ds.feature_schema):
        return spec
    rng = np.random.default_rng(np.random.SeedSequence(_seed_key(spec, _TUNE_TAG)))
    candidates = candidate_hyperparameters(spec, budget, rng)
    if len(candidates) < 2:
        return spec
    split = split_train_test(ds, _INNER_RATIO, spec.seed)
    inner_train = ds.take(split.train_rows)
    inner_val = ds.take(split.test_rows)
    y_val = inner_val.target()
    best_hp: Optional[Dict[str, object]] = None
    best_acc = -1.0
    for hp in candidates:
        try:
            model = train(spec.with_hyperparameters(hp), inner_train)
            probas = predict_proba(model, inner_val)
        except LearnerError:
            continue
        acc = accuracy(confusion(y_val, probas))
        if acc > best_acc:
            best_acc = acc
            best_hp = hp
    if best_hp is None:
        return spec
    return spec.with_hyperparameters(best_hp)
