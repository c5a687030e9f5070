"""Feature views of a dataset.

Trees consume the raw column matrix (category indices as numbers). Distance
and gradient learners consume a featurized matrix: one indicator column per
category plus train-standardized continuous columns.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..data import ColumnKind, TabularDataset


class LearnerError(ValueError):
    pass


def dataset_matrix(ds: TabularDataset) -> np.ndarray:
    """Feature columns stacked as float64, schema order; categories as codes."""
    cols = [ds.column(c.name).astype(np.float64) for c in ds.feature_schema]
    if not cols:
        raise LearnerError("dataset has no feature columns")
    return np.column_stack(cols)


@dataclass(frozen=True)
class Featurizer:
    """One-hot expansion plus standardization, fitted on training rows.

    Continuous columns are centered and scaled by their population stdev
    (unit scale when the column is constant); categorical and binary columns
    expand to 0/1 indicators, one per category.
    """

    source_names: Tuple[str, ...]
    derived_names: Tuple[str, ...]
    center: Tuple[float, ...]  # per derived column
    scale: Tuple[float, ...]


def fit_featurizer(train: TabularDataset) -> Featurizer:
    sources, derived, center, scale = [], [], [], []
    for col in train.feature_schema:
        sources.append(col.name)
        if col.kind == ColumnKind.CONTINUOUS:
            values = train.column(col.name)
            mean = float(np.mean(values))
            stdev = float(np.std(values))
            derived.append(col.name)
            center.append(mean)
            scale.append(stdev if stdev > 0.0 else 1.0)
        else:
            for cat in col.categories:
                derived.append(f"{col.name}={cat}")
                center.append(0.0)
                scale.append(1.0)
    return Featurizer(tuple(sources), tuple(derived), tuple(center), tuple(scale))


def featurize(ds: TabularDataset, fz: Featurizer) -> np.ndarray:
    if tuple(c.name for c in ds.feature_schema) != fz.source_names:
        raise LearnerError("dataset columns do not match the fitted featurizer")
    blocks: List[np.ndarray] = []
    for col in ds.feature_schema:
        values = ds.column(col.name)
        if col.kind == ColumnKind.CONTINUOUS:
            blocks.append(values.astype(np.float64)[:, None])
        else:
            k = len(col.categories)
            blocks.append((values[:, None] == np.arange(k)[None, :]).astype(np.float64))
    X = np.concatenate(blocks, axis=1)
    return (X - np.asarray(fz.center)) / np.asarray(fz.scale)
