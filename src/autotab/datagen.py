"""Synthetic cardiovascular-record generator.

Real patient files cannot be fetched here, so the bundled demo corpus is
generated: class-conditioned feature distributions give the learners a real
signal, and duplicate rows, missing-as-zero codes, and injected extreme values
exercise the full cleaning pipeline with known counts.
"""
from __future__ import annotations

from pathlib import Path
from typing import Dict, Tuple

import numpy as np

from .data import TabularDataset, concat, heart_schema, write_csv
from .preprocess import clean

CORPUS_SEED = 7
# cohort file sizes; they sum to 1190
SOURCE_SIZES = {
    "cleveland": 303,
    "hungarian": 294,
    "switzerland": 123,
    "longbeach": 200,
    "statlog": 270,
}
UNIQUE_ROWS = 918
# designated cleaning casualties: 166+8 cholesterol-rule, 2+28 pressure-rule,
# leaving 714 survivors
N_CHOL_ZERO = 166
N_RBP_ZERO = 2
N_CHOL_EXTREME = 8
N_RBP_EXTREME = 28


def synthetic_heart(n: int, seed: int, pos_rate: float = 0.47) -> TabularDataset:
    """Heart-schema records with class-conditioned distributions."""
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < pos_rate).astype(np.int64)

    def pick(prob_by_class) -> np.ndarray:
        probs = np.asarray(prob_by_class)[y]  # (n, k)
        u = rng.random(n)
        return (u[:, None] >= np.cumsum(probs, axis=1)).sum(axis=1).astype(np.int64)

    age = np.clip(np.rint(rng.normal(50.0 + 6.5 * y, 8.5)), 28, 77)
    sex = pick([[0.55, 0.45], [0.80, 0.20]])  # M, F
    cpt = pick([[0.08, 0.44, 0.35, 0.13], [0.03, 0.07, 0.16, 0.74]])  # TA, ATA, NAP, ASY
    rbp = np.clip(np.rint(rng.normal(128.0 + 6.0 * y, 14.0)), 100, 160)
    chol = np.clip(np.rint(rng.normal(238.0 + 14.0 * y, 42.0)), 152, 318)
    fbs = pick([[0.12, 0.88], [0.34, 0.66]])  # categories ("1", "0")
    recg = pick([[0.65, 0.18, 0.17], [0.52, 0.23, 0.25]])  # Normal, ST, LVH
    maxhr = np.clip(np.rint(rng.normal(152.0 - 21.0 * y, 19.0)), 60, 202)
    exang = pick([[0.14, 0.86], [0.66, 0.34]])  # Y, N
    oldpeak = np.round(np.clip(rng.normal(0.25 + 1.0 * y, 0.75), 0.0, 6.2), 1)
    slope = pick([[0.75, 0.20, 0.05], [0.16, 0.66, 0.18]])  # Up, Flat, Down

    return TabularDataset(
        heart_schema(),
        {
            "Age": age,
            "Sex": sex,
            "ChestPainType": cpt,
            "RestingBP": rbp,
            "Cholesterol": chol,
            "FastingBS": fbs,
            "RestingECG": recg,
            "MaxHR": maxhr,
            "ExerciseAngina": exang,
            "Oldpeak": oldpeak,
            "ST_Slope": slope,
        }
        | {"HeartDisease": y},
    )


def _force_unique(columns: Dict[str, np.ndarray], schema) -> None:
    """Nudge Oldpeak on colliding rows until all rows differ."""
    names = [c.name for c in schema]
    for _ in range(50):
        seen = {}
        dups = []
        for i in range(len(columns["Age"])):
            key = tuple(columns[n][i] for n in names)
            if key in seen:
                dups.append(i)
            else:
                seen[key] = i
        if not dups:
            return
        for i in dups:
            columns["Oldpeak"][i] = np.round(columns["Oldpeak"][i] + 0.1, 1)
    raise RuntimeError("could not make generated rows unique")


def build_corpus(seed: int = CORPUS_SEED) -> Tuple[Dict[str, TabularDataset], TabularDataset]:
    """Five cohort files plus their combination, calibrated for the cleaning pipeline.

    The combined table has 1190 rows of which 918 are unique; cleaning the
    unique set removes exactly the designated invalid and extreme rows.
    """
    base = synthetic_heart(UNIQUE_ROWS, seed)
    rng = np.random.default_rng(seed + 1)
    columns = {name: arr.copy() for name, arr in base.columns.items()}
    # pin the documented age extremes
    columns["Age"][0] = 28.0
    columns["Age"][1] = 77.0
    _force_unique(columns, base.schema)

    # disjoint designated rows for each cleaning rule
    designated = rng.permutation(UNIQUE_ROWS)
    stop = 0
    groups = {}
    for name, count in (
        ("chol_zero", N_CHOL_ZERO),
        ("rbp_zero", N_RBP_ZERO),
        ("chol_extreme", N_CHOL_EXTREME),
        ("rbp_extreme", N_RBP_EXTREME),
    ):
        groups[name] = designated[stop : stop + count]
        stop += count
    columns["Cholesterol"][groups["chol_zero"]] = 0.0
    columns["RestingBP"][groups["rbp_zero"]] = 0.0
    # far beyond any plausible 1.5*IQR fence of the central mass
    columns["Cholesterol"][groups["chol_extreme"]] = 430.0 + 15.0 * np.arange(N_CHOL_EXTREME)
    half = N_RBP_EXTREME // 2
    columns["RestingBP"][groups["rbp_extreme"][:half]] = 196.0 + 3.0 * np.arange(half)
    columns["RestingBP"][groups["rbp_extreme"][half:]] = 74.0 - np.arange(N_RBP_EXTREME - half)
    _force_unique(columns, base.schema)

    unique = TabularDataset(base.schema, columns)
    dup_rows = rng.choice(UNIQUE_ROWS, size=1190 - UNIQUE_ROWS, replace=True)
    combined = concat([unique, unique.take(dup_rows)])
    combined = combined.take(rng.permutation(combined.row_count))

    _validate(combined)

    files = {}
    start = 0
    for name, size in SOURCE_SIZES.items():
        files[name] = combined.take(range(start, start + size))
        start += size
    return files, combined


def _validate(combined: TabularDataset) -> None:
    cleaned, report = clean(combined)
    expected = {
        "rows_before": 1190,
        "duplicates": 1190 - UNIQUE_ROWS,
        "chol_rule": N_CHOL_ZERO + N_CHOL_EXTREME,
        "rbp_rule": N_RBP_ZERO + N_RBP_EXTREME,
        "rows_after": UNIQUE_ROWS - N_CHOL_ZERO - N_CHOL_EXTREME - N_RBP_ZERO - N_RBP_EXTREME,
    }
    got = {
        "rows_before": report.rows_before,
        "duplicates": report.duplicates_removed,
        "chol_rule": report.invalid_rows_removed["Cholesterol=0"]
        + report.outlier_rows_removed["Cholesterol"],
        "rbp_rule": report.invalid_rows_removed["RestingBP=0"]
        + report.outlier_rows_removed["RestingBP"],
        "rows_after": report.rows_after,
    }
    if got != expected:
        raise RuntimeError(f"corpus calibration drifted: expected {expected}, got {got}")


def write_corpus(out_dir, seed: int = CORPUS_SEED) -> Dict[str, Path]:
    """Write the five cohort CSVs plus the combined file; returns their paths."""
    out_dir = Path(out_dir)
    sources = out_dir / "sources"
    sources.mkdir(parents=True, exist_ok=True)
    files, combined = build_corpus(seed)
    paths = {}
    for name, ds in files.items():
        path = sources / f"{name}.csv"
        write_csv(ds, path)
        paths[name] = path
    combined_path = out_dir / "heart.csv"
    write_csv(combined, combined_path)
    paths["combined"] = combined_path
    return paths
