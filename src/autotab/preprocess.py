"""Cleaning and the three preprocessing scenarios.

All scenarios share the cleaning pipeline (deduplicate, drop invalid zeros and
IQR outliers) and a seeded stratified 80:20 split. They differ in the fitted
transform: S1 imputes missing values and keeps integer category codes, S2 bins
continuous columns into 5 equal-width intervals and one-hot encodes everything,
S3 standardizes continuous columns to z-scores. Transforms are always fitted on
training rows only.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from .data import (
    ColumnKind,
    ColumnSchema,
    DataError,
    TabularDataset,
    split_train_test,
)


class PreprocessError(ValueError):
    pass


class ScenarioId(str, Enum):
    S1 = "s1"
    S2 = "s2"
    S3 = "s3"

    @classmethod
    def parse(cls, text: str) -> "ScenarioId":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise PreprocessError(f"unknown scenario {text!r}, expected s1, s2 or s3") from None


# columns whose zeros are physiologically impossible and therefore invalid
INVALID_ZERO_COLUMNS = ("RestingBP", "Cholesterol")


@dataclass(frozen=True)
class CleaningReport:
    rows_before: int
    rows_after: int
    duplicates_removed: int
    invalid_rows_removed: Dict[str, int] = field(default_factory=dict)
    outlier_rows_removed: Dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class BinningSpec:
    column: str
    edges: Tuple[float, ...]  # 6 strictly increasing values, equal widths

    def __post_init__(self):
        if len(self.edges) < 2 or any(a >= b for a, b in zip(self.edges, self.edges[1:])):
            raise PreprocessError(f"edges must be strictly increasing, got {self.edges}")

    @property
    def n_bins(self) -> int:
        return len(self.edges) - 1


EncodingMap = Dict[str, Tuple[str, ...]]  # source column -> derived binary names, in category order
NormStats = Dict[str, Tuple[float, float]]  # column -> (train mean, train population stdev)


@dataclass(frozen=True)
class PreprocessArtifacts:
    scenario: ScenarioId
    cleaning: CleaningReport
    binnings: Optional[Tuple[BinningSpec, ...]] = None  # S2
    encoding: Optional[EncodingMap] = None  # S2
    norm: Optional[NormStats] = None  # S3
    imputation: Optional[Dict[str, Union[float, str]]] = None  # S1


# -- cleaning ------------------------------------------------------------------


def _row_keys(ds: TabularDataset):
    cols = [ds.columns[c.name] for c in ds.schema]
    masks = [ds.missing_mask(c.name) for c in ds.schema]
    for i in range(ds.row_count):
        yield tuple(arr[i] for arr in cols) + tuple(m[i] for m in masks)


def deduplicate(ds: TabularDataset) -> Tuple[TabularDataset, CleaningReport]:
    """Drop rows identical to an earlier row in every column (and missing mask)."""
    seen = set()
    keep = []
    for i, key in enumerate(_row_keys(ds)):
        if key not in seen:
            seen.add(key)
            keep.append(i)
    out = ds.take(keep) if len(keep) < ds.row_count else ds
    report = CleaningReport(
        rows_before=ds.row_count,
        rows_after=len(keep),
        duplicates_removed=ds.row_count - len(keep),
    )
    return out, report


def remove_invalid_and_outliers(ds: TabularDataset) -> Tuple[TabularDataset, CleaningReport]:
    """Two-stage row filter on RestingBP and Cholesterol.

    Stage 1 drops rows where either column is zero (missing-as-zero codes and
    impossible measurements). Stage 2 computes 1.5*IQR fences per column on the
    stage-1 survivors and drops rows outside either fence. A row is counted
    under the first rule that catches it, RestingBP before Cholesterol.
    """
    for name in INVALID_ZERO_COLUMNS:
        if ds.column_schema(name).kind != ColumnKind.CONTINUOUS:
            raise PreprocessError(f"{name} must be continuous")
    n = ds.row_count
    invalid_counts = {f"{name}=0": 0 for name in INVALID_ZERO_COLUMNS}
    outlier_counts = {name: 0 for name in INVALID_ZERO_COLUMNS}
    if n == 0:
        return ds, CleaningReport(0, 0, 0, invalid_counts, outlier_counts)

    values = {name: ds.column(name) for name in INVALID_ZERO_COLUMNS}
    removed = np.zeros(n, dtype=bool)
    for name in INVALID_ZERO_COLUMNS:
        hit = (values[name] == 0.0) & ~removed
        invalid_counts[f"{name}=0"] = int(hit.sum())
        removed |= hit

    survivors = ~removed
    if survivors.any():
        fences = {}
        for name in INVALID_ZERO_COLUMNS:
            q1, q3 = np.percentile(values[name][survivors], [25, 75])
            iqr = q3 - q1
            fences[name] = (q1 - 1.5 * iqr, q3 + 1.5 * iqr)
        for name in INVALID_ZERO_COLUMNS:
            lo, hi = fences[name]
            hit = ((values[name] < lo) | (values[name] > hi)) & ~removed
            outlier_counts[name] = int(hit.sum())
            removed |= hit

    keep = np.flatnonzero(~removed)
    report = CleaningReport(
        rows_before=n,
        rows_after=int(keep.size),
        duplicates_removed=0,
        invalid_rows_removed=invalid_counts,
        outlier_rows_removed=outlier_counts,
    )
    return ds.take(keep), report


# -- S1: imputation -------------------------------------------------------------


def fit_imputation(train: TabularDataset) -> Dict[str, Union[float, str]]:
    """Median for continuous columns, most frequent category otherwise (ties to
    the earlier category). Fitted for every feature column so unseen missing
    cells in later data are always fillable."""
    fills: Dict[str, Union[float, str]] = {}
    for col in train.feature_schema:
        values = train.column(col.name)[~train.missing_mask(col.name)]
        if values.size == 0:
            raise PreprocessError(f"column {col.name} has no observed values to impute from")
        if col.kind == ColumnKind.CONTINUOUS:
            fills[col.name] = float(np.median(values))
        else:
            counts = np.bincount(values, minlength=len(col.categories))
            fills[col.name] = col.categories[int(np.argmax(counts))]
    return fills


def apply_imputation(ds: TabularDataset, fills: Dict[str, Union[float, str]]) -> TabularDataset:
    if not ds.has_missing():
        return ds
    columns = {}
    for col in ds.schema:
        arr = ds.columns[col.name]
        mask = ds.missing_mask(col.name)
        if mask.any():
            if col.name not in fills:
                raise PreprocessError(f"no imputation value fitted for column {col.name}")
            fill = fills[col.name]
            arr = arr.copy()
            if col.kind == ColumnKind.CONTINUOUS:
                arr[mask] = float(fill)
            else:
                arr[mask] = col.categories.index(str(fill))
        columns[col.name] = arr
    return TabularDataset(ds.schema, columns)


# -- S2: binning + one-hot -------------------------------------------------------

# equal-width bins per continuous column
S2_BINS = 5


def fit_binning(train: TabularDataset, column: str) -> BinningSpec:
    """Equal-width edges over the training [min, max]."""
    col = train.column_schema(column)
    if col.kind != ColumnKind.CONTINUOUS:
        raise PreprocessError(f"cannot bin non-continuous column {column}")
    if train.missing_mask(column).any():
        raise PreprocessError(f"column {column} has missing values; impute or clean first")
    values = train.column(column)
    if values.size == 0:
        raise PreprocessError("cannot fit bins on an empty dataset")
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        raise PreprocessError(f"column {column} is constant ({lo}); equal-width bins undefined")
    edges = np.linspace(lo, hi, S2_BINS + 1)
    return BinningSpec(column=column, edges=tuple(float(e) for e in edges))


def bin_tokens(n_bins: int) -> Tuple[str, ...]:
    return tuple(f"bin{i}" for i in range(n_bins))


def apply_binning(ds: TabularDataset, spec: BinningSpec) -> TabularDataset:
    """Replace the continuous column with a categorical bin index.

    Bin i covers [edges[i], edges[i+1]), the last bin closed on the right;
    values beyond the fitted range clip to the outermost bins.
    """
    col = ds.column_schema(spec.column)
    if col.kind != ColumnKind.CONTINUOUS:
        raise PreprocessError(f"cannot bin non-continuous column {spec.column}")
    if ds.missing_mask(spec.column).any():
        raise PreprocessError(f"column {spec.column} has missing values; impute or clean first")
    interior = np.asarray(spec.edges[1:-1])
    idx = np.searchsorted(interior, ds.column(spec.column), side="right")
    schema = tuple(
        ColumnSchema(c.name, ColumnKind.CATEGORICAL, bin_tokens(spec.n_bins))
        if c.name == spec.column
        else c
        for c in ds.schema
    )
    columns = {name: (idx if name == spec.column else arr) for name, arr in ds.columns.items()}
    return TabularDataset(schema, columns, dict(ds.missing))


def build_encoding(schema: Sequence[ColumnSchema]) -> EncodingMap:
    """One derived `source=category` binary column per category, schema order."""
    derived = {}
    for col in schema:
        if col.kind == ColumnKind.TARGET:
            continue
        if col.categories is None:
            raise PreprocessError(f"column {col.name} is continuous; bin it before encoding")
        derived[col.name] = tuple(f"{col.name}={cat}" for cat in col.categories)
    return derived


def one_hot(ds: TabularDataset, mapping: EncodingMap) -> TabularDataset:
    """Expand every feature column into indicator columns; target passes through."""
    names = [d for cols in mapping.values() for d in cols]
    if len(set(names)) != len(names):
        raise PreprocessError("derived one-hot names collide across source columns")
    schema = []
    columns = {}
    for col in ds.feature_schema:
        if col.name not in mapping:
            raise PreprocessError(f"no encoding for column {col.name}")
        derived = mapping[col.name]
        if col.categories is None or len(col.categories) != len(derived):
            raise PreprocessError(f"encoding for {col.name} does not match its categories")
        if ds.missing_mask(col.name).any():
            raise PreprocessError(f"column {col.name} has missing values; impute or clean first")
        src = ds.column(col.name)
        for j, name in enumerate(derived):
            schema.append(ColumnSchema(name, ColumnKind.BINARY, ("0", "1")))
            columns[name] = (src == j).astype(np.int64)
    target = ds.column_schema(ds.target_name)
    schema.append(target)
    columns[target.name] = ds.target()
    return TabularDataset(schema, columns)


# -- S3: z-score -----------------------------------------------------------------


def fit_zscore(train: TabularDataset) -> NormStats:
    stats: NormStats = {}
    for name in train.continuous_names():
        if train.missing_mask(name).any():
            raise PreprocessError(f"column {name} has missing values; impute or clean first")
        values = train.column(name)
        if values.size == 0:
            raise PreprocessError("cannot fit normalization on an empty dataset")
        mean = float(np.mean(values))
        stdev = float(np.std(values))
        if stdev == 0.0:
            raise PreprocessError(f"column {name} has zero variance; z-score undefined")
        stats[name] = (mean, stdev)
    return stats


def apply_zscore(ds: TabularDataset, stats: NormStats) -> TabularDataset:
    columns = dict(ds.columns)
    for name in ds.continuous_names():
        if name not in stats:
            raise PreprocessError(f"no normalization stats for column {name}")
        if ds.missing_mask(name).any():
            raise PreprocessError(f"column {name} has missing values; impute or clean first")
        mean, stdev = stats[name]
        columns[name] = (ds.column(name) - mean) / stdev
    return TabularDataset(ds.schema, columns, dict(ds.missing))


# -- scenario driver ----------------------------------------------------------------


def clean(ds: TabularDataset) -> Tuple[TabularDataset, CleaningReport]:
    """Deduplicate then drop invalid zeros and IQR outliers; one merged report."""
    deduped, dreport = deduplicate(ds)
    cleaned, creport = remove_invalid_and_outliers(deduped)
    report = CleaningReport(
        rows_before=dreport.rows_before,
        rows_after=creport.rows_after,
        duplicates_removed=dreport.duplicates_removed,
        invalid_rows_removed=creport.invalid_rows_removed,
        outlier_rows_removed=creport.outlier_rows_removed,
    )
    return cleaned, report


def transform_with_artifacts(ds: TabularDataset, artifacts: PreprocessArtifacts) -> TabularDataset:
    """Apply the fitted scenario transform to new rows (no cleaning, no split)."""
    if artifacts.scenario == ScenarioId.S1:
        return apply_imputation(ds, artifacts.imputation or {})
    if artifacts.scenario == ScenarioId.S2:
        out = ds
        for spec in artifacts.binnings or ():
            out = apply_binning(out, spec)
        return one_hot(out, artifacts.encoding)
    return apply_zscore(ds, artifacts.norm or {})


def scenario_preprocess(
    ds: TabularDataset,
    scenario: ScenarioId,
    seed: int,
    test_ratio: float = 0.2,
) -> Tuple[TabularDataset, TabularDataset, PreprocessArtifacts]:
    """Clean, split, then fit the scenario transform on the training rows only."""
    cleaned, report = clean(ds)
    split = split_train_test(cleaned, 1.0 - test_ratio, seed)
    train = cleaned.take(split.train_rows)
    test = cleaned.take(split.test_rows)

    if scenario == ScenarioId.S1:
        fills = fit_imputation(train)
        artifacts = PreprocessArtifacts(scenario=scenario, cleaning=report, imputation=fills)
    elif scenario == ScenarioId.S2:
        binnings = tuple(fit_binning(train, name) for name in train.continuous_names())
        binned = set(train.continuous_names())
        binned_schema = tuple(
            ColumnSchema(c.name, ColumnKind.CATEGORICAL, bin_tokens(S2_BINS)) if c.name in binned else c
            for c in train.schema
        )
        encoding = build_encoding(binned_schema)
        artifacts = PreprocessArtifacts(
            scenario=scenario, cleaning=report, binnings=binnings, encoding=encoding
        )
    elif scenario == ScenarioId.S3:
        stats = fit_zscore(train)
        artifacts = PreprocessArtifacts(scenario=scenario, cleaning=report, norm=stats)
    else:
        raise PreprocessError(f"unknown scenario {scenario!r}")

    return (
        transform_with_artifacts(train, artifacts),
        transform_with_artifacts(test, artifacts),
        artifacts,
    )
