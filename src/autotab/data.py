"""Typed column-major tables: schema, CSV ingestion, seeded splitting."""
from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np


class DataError(ValueError):
    """Schema or parse violation, located by row and column where possible."""

    def __init__(self, message: str, row: Optional[int] = None, column: Optional[str] = None):
        loc = []
        if row is not None:
            loc.append(f"row {row}")
        if column is not None:
            loc.append(f"column {column}")
        prefix = ", ".join(loc)
        super().__init__(f"{prefix}: {message}" if prefix else message)
        self.row = row
        self.column = column


class ColumnKind(str, Enum):
    CONTINUOUS = "continuous"
    CATEGORICAL = "categorical"
    BINARY = "binary"
    TARGET = "target"


@dataclass(frozen=True)
class ColumnSchema:
    name: str
    kind: ColumnKind
    categories: Optional[Tuple[str, ...]] = None

    def __post_init__(self):
        needs_cats = self.kind in (ColumnKind.CATEGORICAL, ColumnKind.BINARY)
        if needs_cats:
            if not self.categories:
                raise DataError(f"{self.kind.value} column needs categories", column=self.name)
            if len(set(self.categories)) != len(self.categories):
                raise DataError("duplicate categories", column=self.name)
        elif self.categories is not None:
            raise DataError(f"{self.kind.value} column cannot carry categories", column=self.name)


def heart_schema() -> Tuple[ColumnSchema, ...]:
    """The 12-column cardiovascular-indicator schema (11 features + binary target)."""
    return (
        ColumnSchema("Age", ColumnKind.CONTINUOUS),
        ColumnSchema("Sex", ColumnKind.BINARY, ("M", "F")),
        ColumnSchema("ChestPainType", ColumnKind.CATEGORICAL, ("TA", "ATA", "NAP", "ASY")),
        ColumnSchema("RestingBP", ColumnKind.CONTINUOUS),
        ColumnSchema("Cholesterol", ColumnKind.CONTINUOUS),
        ColumnSchema("FastingBS", ColumnKind.BINARY, ("1", "0")),
        ColumnSchema("RestingECG", ColumnKind.CATEGORICAL, ("Normal", "ST", "LVH")),
        ColumnSchema("MaxHR", ColumnKind.CONTINUOUS),
        ColumnSchema("ExerciseAngina", ColumnKind.BINARY, ("Y", "N")),
        ColumnSchema("Oldpeak", ColumnKind.CONTINUOUS),
        ColumnSchema("ST_Slope", ColumnKind.CATEGORICAL, ("Up", "Flat", "Down")),
        ColumnSchema("HeartDisease", ColumnKind.TARGET),
    )


class TabularDataset:
    """Immutable column-major table.

    Continuous columns are float64 (always finite; absent cells are tracked in
    a per-column boolean mask and hold a 0.0 placeholder). Categorical and
    binary columns hold int64 indices into their schema categories. The single
    target column holds int64 values in {0, 1}.
    """

    def __init__(
        self,
        schema: Sequence[ColumnSchema],
        columns: Dict[str, np.ndarray],
        missing: Optional[Dict[str, np.ndarray]] = None,
    ):
        self.schema: Tuple[ColumnSchema, ...] = tuple(schema)
        names = [c.name for c in self.schema]
        if len(set(names)) != len(names):
            raise DataError("duplicate column names in schema")
        targets = [c for c in self.schema if c.kind == ColumnKind.TARGET]
        if len(targets) != 1:
            raise DataError(f"schema must have exactly one target column, found {len(targets)}")
        if set(columns) != set(names):
            raise DataError("column data does not match schema names")

        self._by_name = {c.name: c for c in self.schema}
        lengths = {len(v) for v in columns.values()}
        if len(lengths) > 1:
            raise DataError(f"ragged columns: lengths {sorted(lengths)}")
        self.row_count: int = lengths.pop() if lengths else 0

        self.columns: Dict[str, np.ndarray] = {}
        self.missing: Dict[str, np.ndarray] = {}
        missing = missing or {}
        for col in self.schema:
            arr = np.asarray(columns[col.name])
            mask = missing.get(col.name)
            if mask is not None and np.any(mask):
                if col.kind == ColumnKind.TARGET:
                    raise DataError("target column cannot have missing values", column=col.name)
                mask = np.asarray(mask, dtype=bool).copy()
                if len(mask) != len(arr):
                    raise DataError("missing mask length mismatch", column=col.name)
            else:
                mask = None
            if col.kind == ColumnKind.CONTINUOUS:
                arr = arr.astype(np.float64, copy=True)
                if mask is not None:
                    arr[mask] = 0.0  # canonical placeholder under the mask
                if not np.all(np.isfinite(arr)):
                    raise DataError("non-finite value stored", column=col.name)
            else:
                arr = arr.astype(np.int64, copy=True)
                if mask is not None:
                    arr[mask] = 0
                if col.kind == ColumnKind.TARGET:
                    if arr.size and not np.all((arr == 0) | (arr == 1)):
                        raise DataError("target values must be 0 or 1", column=col.name)
                elif arr.size:
                    hi = len(col.categories)
                    if np.any((arr < 0) | (arr >= hi)):
                        raise DataError("category index out of range", column=col.name)
            arr.setflags(write=False)
            self.columns[col.name] = arr
            if mask is not None:
                mask.setflags(write=False)
                self.missing[col.name] = mask

    # -- lookups ---------------------------------------------------------

    def column_schema(self, name: str) -> ColumnSchema:
        try:
            return self._by_name[name]
        except KeyError:
            raise DataError("unknown column", column=name) from None

    def column(self, name: str) -> np.ndarray:
        self.column_schema(name)
        return self.columns[name]

    def missing_mask(self, name: str) -> np.ndarray:
        self.column_schema(name)
        mask = self.missing.get(name)
        if mask is None:
            return np.zeros(self.row_count, dtype=bool)
        return mask

    def has_missing(self) -> bool:
        return bool(self.missing)

    @property
    def target_name(self) -> str:
        return next(c.name for c in self.schema if c.kind == ColumnKind.TARGET)

    @property
    def feature_schema(self) -> Tuple[ColumnSchema, ...]:
        return tuple(c for c in self.schema if c.kind != ColumnKind.TARGET)

    def target(self) -> np.ndarray:
        return self.columns[self.target_name]

    def continuous_names(self) -> Tuple[str, ...]:
        return tuple(c.name for c in self.schema if c.kind == ColumnKind.CONTINUOUS)

    # -- derivation ------------------------------------------------------

    def take(self, rows: Sequence[int]) -> "TabularDataset":
        """Row subset in the given order; shares the schema."""
        idx = np.asarray(rows, dtype=np.int64)
        cols = {name: arr[idx] for name, arr in self.columns.items()}
        masks = {name: mask[idx] for name, mask in self.missing.items()}
        return TabularDataset(self.schema, cols, masks)



def schema_to_doc(schema: Sequence[ColumnSchema]) -> List[list]:
    """One `[name, kind, categories]` entry per column, as documents store it."""
    return [[c.name, c.kind.value, list(c.categories) if c.categories else None] for c in schema]


def schema_from_doc(doc: Sequence) -> Tuple[ColumnSchema, ...]:
    return tuple(
        ColumnSchema(name, ColumnKind(kind), tuple(categories) if categories else None)
        for name, kind, categories in doc
    )


def schema_fingerprint(schema: Sequence[ColumnSchema]) -> str:
    """Stable hash of a schema; models refuse to score data fingerprinted differently."""
    return hashlib.sha256(json.dumps(schema_to_doc(schema)).encode()).hexdigest()


@dataclass(frozen=True)
class SplitIndices:
    train_rows: Tuple[int, ...]
    test_rows: Tuple[int, ...]


# -- CSV I/O ---------------------------------------------------------------


def load_csv(path: Union[str, Path], schema: Sequence[ColumnSchema]) -> TabularDataset:
    """Parse a comma-separated UTF-8 file with a header row against a schema.

    Header names must match the schema names (any order). Empty cells in
    feature columns are recorded as missing; every other violation raises a
    DataError naming the data row (1-based) and column.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    schema = tuple(schema)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"empty file: {path}") from None
        names = [c.name for c in schema]
        if sorted(header) != sorted(names):
            raise DataError(
                f"header mismatch: expected columns {sorted(names)}, found {sorted(header)}"
            )
        col_pos = {name: header.index(name) for name in names}
        cat_index = {
            c.name: {tok: i for i, tok in enumerate(c.categories)}
            for c in schema
            if c.categories is not None
        }

        raw: Dict[str, list] = {name: [] for name in names}
        masks: Dict[str, list] = {name: [] for name in names}
        for row_num, cells in enumerate(reader, start=1):
            if len(cells) != len(header):
                raise DataError(f"expected {len(header)} cells, found {len(cells)}", row=row_num)
            for col in schema:
                token = cells[col_pos[col.name]].strip()
                if token == "":
                    if col.kind == ColumnKind.TARGET:
                        raise DataError("target value missing", row=row_num, column=col.name)
                    raw[col.name].append(0.0 if col.kind == ColumnKind.CONTINUOUS else 0)
                    masks[col.name].append(True)
                    continue
                masks[col.name].append(False)
                if col.kind == ColumnKind.CONTINUOUS:
                    try:
                        value = float(token)
                    except ValueError:
                        raise DataError(f"unparseable number {token!r}", row=row_num, column=col.name) from None
                    if not math.isfinite(value):
                        raise DataError(f"non-finite number {token!r}", row=row_num, column=col.name)
                    raw[col.name].append(value)
                elif col.kind == ColumnKind.TARGET:
                    if token not in ("0", "1"):
                        raise DataError(f"target value {token!r} outside {{0, 1}}", row=row_num, column=col.name)
                    raw[col.name].append(int(token))
                else:
                    try:
                        raw[col.name].append(cat_index[col.name][token])
                    except KeyError:
                        raise DataError(
                            f"category {token!r} not in {list(col.categories)}",
                            row=row_num,
                            column=col.name,
                        ) from None

    columns = {name: np.asarray(vals) for name, vals in raw.items()}
    missing = {name: np.asarray(vals, dtype=bool) for name, vals in masks.items()}
    return TabularDataset(schema, columns, missing)


def write_csv(ds: TabularDataset, path: Union[str, Path]) -> None:
    """Dump a dataset in the ingestion format; reloading reproduces it exactly."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([c.name for c in ds.schema])
        cols = []
        for c in ds.schema:
            arr = ds.columns[c.name]
            mask = ds.missing_mask(c.name)
            if c.kind == ColumnKind.CONTINUOUS:
                cells = [repr(v) for v in arr.tolist()]
            elif c.kind == ColumnKind.TARGET:
                cells = [str(v) for v in arr.tolist()]
            else:
                cells = [c.categories[v] for v in arr.tolist()]
            cols.append(["" if m else cell for cell, m in zip(cells, mask.tolist())])
        for row in zip(*cols):
            writer.writerow(row)


def concat(datasets: Sequence[TabularDataset]) -> TabularDataset:
    """Stack datasets sharing one schema, in order."""
    if not datasets:
        raise DataError("nothing to concatenate")
    schema = datasets[0].schema
    for ds in datasets[1:]:
        if ds.schema != schema:
            raise DataError("cannot concatenate datasets with different schemas")
    columns = {
        c.name: np.concatenate([ds.columns[c.name] for ds in datasets]) for c in schema
    }
    masks = {
        c.name: np.concatenate([ds.missing_mask(c.name) for ds in datasets]) for c in schema
    }
    return TabularDataset(schema, columns, masks)


# -- splitting ---------------------------------------------------------------


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def split_train_test(ds: TabularDataset, ratio: float, seed: int) -> SplitIndices:
    """Seeded stratified partition into train/test; |train| = round(ratio * rows).

    The train count of each target class is within one row of ratio * class
    size (largest-remainder apportionment over a seeded shuffle within each
    class).
    """
    if not 0.0 < ratio < 1.0:
        raise DataError(f"split ratio must lie in (0, 1), got {ratio}")
    n = ds.row_count
    if n < 2:
        raise DataError(f"need at least 2 rows to split, have {n}")
    n_train = _round_half_up(ratio * n)
    n_train = min(max(n_train, 1), n - 1)
    rng = np.random.default_rng(seed)

    y = ds.target()
    class_rows = [np.flatnonzero(y == cls) for cls in (0, 1)]
    if any(rows.size == 0 for rows in class_rows):
        raise DataError("stratified split needs both classes present")
    exact = [ratio * rows.size for rows in class_rows]
    counts = [int(math.floor(e)) for e in exact]
    leftover = n_train - sum(counts)
    if leftover:
        frac_order = sorted(range(2), key=lambda i: (-(exact[i] - counts[i]), i))
        for i in frac_order[:leftover]:
            counts[i] += 1
    train_parts, test_parts = [], []
    for rows, take_n in zip(class_rows, counts):
        shuffled = rows[rng.permutation(rows.size)]
        train_parts.append(shuffled[:take_n])
        test_parts.append(shuffled[take_n:])
    train = np.sort(np.concatenate(train_parts))
    test = np.sort(np.concatenate(test_parts))
    return SplitIndices(tuple(train.tolist()), tuple(test.tolist()))
