"""Correctness checks computed apart from the program.

Every check takes plain data (parsed CSV cells, JSON documents, probability
vectors) so the benchmark's tests can feed it tampered inputs. A failed check
raises CheckError. Nothing here calls autotab: confusion counts, ratio metrics,
the pairwise Mann-Whitney AUC, the cleaning rules and the ensemble sum are the
benchmark's own numpy code.
"""
from __future__ import annotations

import csv
import hashlib
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

ENSEMBLE_NAME = "WeightedEnsemble_L2"
LEADERBOARD_COLUMNS = ("model", "stack_level", "accuracy_test", "accuracy_val", "roc_auc", "precision", "f1", "recall")
MAX_ROUNDS = 25
THRESHOLD_MARGIN = 0.05
THRESHOLD_FLOOR = 0.5
DECIMALS_TOL = 0.5e-4 + 1e-9  # the leaderboard prints four decimals


class CheckError(AssertionError):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# -- parsing -----------------------------------------------------------------


def read_csv(path: Path) -> Tuple[List[str], List[List[str]]]:
    with Path(path).open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    require(len(rows) >= 1, f"{path} has no header")
    return rows[0], rows[1:]


def file_digests(directory: Path) -> Dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(directory).iterdir())
        if p.is_file()
    }


def parse_leaderboard(path: Path) -> List[Dict[str, object]]:
    header, rows = read_csv(path)
    require(tuple(header) == LEADERBOARD_COLUMNS, f"unexpected leaderboard header {header}")
    parsed = []
    for cells in rows:
        require(len(cells) == len(LEADERBOARD_COLUMNS), f"malformed leaderboard row {cells}")
        row: Dict[str, object] = {"model": cells[0], "stack_level": int(cells[1])}
        for key, cell in zip(LEADERBOARD_COLUMNS[2:], cells[2:]):
            row[key] = None if cell == "undefined" else float(cell)
        parsed.append(row)
    return parsed


# -- own metric code ---------------------------------------------------------


def own_confusion(labels: np.ndarray, probas: np.ndarray) -> Tuple[int, int, int, int]:
    y = np.asarray(labels).astype(np.int64)
    pred = np.asarray(probas, dtype=np.float64) >= 0.5
    tp = int(np.count_nonzero(pred & (y == 1)))
    tn = int(np.count_nonzero(~pred & (y == 0)))
    fp = int(np.count_nonzero(pred & (y == 0)))
    fn = int(np.count_nonzero(~pred & (y == 1)))
    require(tp + tn + fp + fn == len(y), "labels must be 0 or 1")
    return tp, tn, fp, fn


def own_accuracy(labels: np.ndarray, probas: np.ndarray) -> float:
    tp, tn, fp, fn = own_confusion(labels, probas)
    return (tp + tn) / (tp + tn + fp + fn)


def pairwise_auc(labels: np.ndarray, scores: np.ndarray) -> float:
    """P(score of a positive > score of a negative), ties counting one half."""
    y = np.asarray(labels)
    s = np.asarray(scores, dtype=np.float64)
    pos, neg = s[y == 1], s[y == 0]
    require(len(pos) > 0 and len(neg) > 0, "AUC needs both classes")
    diff = pos[:, None] - neg[None, :]
    return (np.count_nonzero(diff > 0) + 0.5 * np.count_nonzero(diff == 0)) / (len(pos) * len(neg))


def own_metrics(labels: np.ndarray, probas: np.ndarray) -> Dict[str, Optional[float]]:
    tp, tn, fp, fn = own_confusion(labels, probas)
    precision = tp / (tp + fp) if tp + fp else None
    recall = tp / (tp + fn) if tp + fn else None
    f1 = 2 * tp / (2 * tp + fp + fn) if precision and recall else None
    return {
        "accuracy_test": (tp + tn) / (tp + tn + fp + fn),
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "roc_auc": pairwise_auc(labels, probas),
    }


def weighted_sum(weights: Sequence[Tuple[str, float]], probas: Mapping[str, np.ndarray]) -> np.ndarray:
    out = np.zeros(len(next(iter(probas.values()))))
    for pid, w in weights:
        require(pid in probas, f"no probabilities for ensemble member {pid}")
        out += w * np.asarray(probas[pid], dtype=np.float64)
    return out


def _close4(mine: Optional[float], printed: Optional[float]) -> bool:
    if mine is None or printed is None:
        return mine is None and printed is None
    return abs(mine - printed) <= DECIMALS_TOL


# -- fit workloads -----------------------------------------------------------


def check_leaderboard(
    rows: Sequence[Dict[str, object]],
    txt_lines: Sequence[str],
    expected_level1: Sequence[str],
    expected_skips: Sequence[str],
) -> None:
    """Level-1 rows are the expected presets, the ensemble row is last, skips are listed."""
    names = [r["model"] for r in rows]
    require(len(rows) == len(expected_level1) + 1, f"expected {len(expected_level1)} level-1 rows plus the ensemble, got {names}")
    require(names[-1] == ENSEMBLE_NAME and rows[-1]["stack_level"] == 2, f"last leaderboard row is {names[-1]}, not {ENSEMBLE_NAME}")
    require(sorted(names[:-1]) == sorted(expected_level1), f"level-1 rows {sorted(names[:-1])} != {sorted(expected_level1)}")
    require(all(r["stack_level"] == 1 for r in rows[:-1]), "a level-1 row has stack level other than 1")
    listed = []
    if "skipped models:" in txt_lines:
        for line in txt_lines[txt_lines.index("skipped models:") + 1 :]:
            if line.startswith("  ") and ":" in line:
                listed.append(line.strip().split(":", 1)[0])
    require(sorted(listed) == sorted(expected_skips), f"skipped models listed {sorted(listed)} != {sorted(expected_skips)}")


def check_test_metrics(
    rows: Sequence[Dict[str, object]],
    labels: np.ndarray,
    probas: Mapping[str, np.ndarray],
) -> None:
    """Every row's test metrics, recomputed from reloaded-document probabilities."""
    for row in rows:
        name = row["model"]
        require(name in probas, f"no reloaded probabilities for {name}")
        mine = own_metrics(labels, probas[name])
        for key, value in mine.items():
            require(_close4(value, row[key]), f"{name} {key}: leaderboard {row[key]} vs recomputed {value}")


def check_ensemble_selection(
    weights: Sequence[Tuple[str, float]],
    rows: Sequence[Dict[str, object]],
    oof_labels: np.ndarray,
    oof_probas: Mapping[str, np.ndarray],
) -> None:
    """Greedy-selection invariants on the OOF pool the program selected on."""
    require(len(weights) > 0, "ensemble has no members")
    w = np.array([x for _, x in weights], dtype=np.float64)
    require(bool(np.all(w > 0)), f"non-positive ensemble weight in {weights}")
    require(abs(w.sum() - 1.0) <= 1e-9, f"ensemble weights sum to {w.sum()}")
    require(
        any(np.all(np.abs(w * r - np.rint(w * r)) <= 1e-9) for r in range(1, MAX_ROUNDS + 1)),
        f"weights {w.tolist()} are not selection counts over at most {MAX_ROUNDS} rounds",
    )
    singles = {pid: own_accuracy(oof_labels, p) for pid, p in oof_probas.items()}
    by_name = {r["model"]: r for r in rows}
    for pid, acc in singles.items():
        require(_close4(acc, by_name[pid]["accuracy_val"]), f"{pid} accuracy_val {by_name[pid]['accuracy_val']} vs OOF {acc}")
    best = max(singles.values())
    floor = max(best - THRESHOLD_MARGIN, THRESHOLD_FLOOR)
    for pid, _ in weights:
        require(pid in singles, f"ensemble member {pid} has no OOF column")
        require(singles[pid] >= floor, f"member {pid} OOF accuracy {singles[pid]} below {floor}")
    ens_acc = own_accuracy(oof_labels, weighted_sum(weights, oof_probas))
    require(_close4(ens_acc, by_name[ENSEMBLE_NAME]["accuracy_val"]), f"ensemble accuracy_val {by_name[ENSEMBLE_NAME]['accuracy_val']} vs OOF {ens_acc}")
    require(ens_acc >= best and by_name[ENSEMBLE_NAME]["accuracy_val"] >= max(r["accuracy_val"] for r in rows[:-1]), f"ensemble OOF accuracy {ens_acc} below best single {best}")


def check_loss_traces(docs: Mapping[str, dict]) -> None:
    """Boosted documents: loss trace non-increasing, one entry per tree plus the start."""
    for name, doc in docs.items():
        payload = doc.get("payload", {})
        if payload.get("type") != "gbt":
            continue
        trace = payload["loss_trace"]
        n_trees = int(doc["spec"]["hyperparameters"]["n_trees"])
        require(len(trace) == n_trees + 1, f"{name}: {len(trace)} loss entries for {n_trees} trees")
        require(len(payload["trees"]) == n_trees, f"{name}: {len(payload['trees'])} trees stored, {n_trees} configured")
        require(all(b <= a for a, b in zip(trace, trace[1:])), f"{name}: loss trace increases")


def own_clean(header: Sequence[str], rows: Sequence[Sequence[str]]) -> List[int]:
    """Indices kept by the documented cleaning: first copies of distinct rows,
    no zero RestingBP or Cholesterol, then within 1.5 IQR fences of the survivors."""
    seen = set()
    first = []
    for i, cells in enumerate(rows):
        key = tuple(cells)
        if key not in seen:
            seen.add(key)
            first.append(i)
    cols = ("RestingBP", "Cholesterol")
    vals = {c: np.array([float(rows[i][header.index(c)]) for i in first]) for c in cols}
    alive = np.ones(len(first), dtype=bool)
    for c in cols:
        alive &= vals[c] != 0.0
    fences = {}
    for c in cols:
        q1, q3 = np.percentile(vals[c][alive], [25, 75])
        fences[c] = (q1 - 1.5 * (q3 - q1), q3 + 1.5 * (q3 - q1))
    for c in cols:
        lo, hi = fences[c]
        alive &= (vals[c] >= lo) & (vals[c] <= hi)
    return [i for i, a in zip(first, alive) if a]


def check_split(
    cleaned_rows: Sequence[Sequence[str]],
    train_rows: Sequence[Sequence[str]],
    test_rows: Sequence[Sequence[str]],
    target_index: int,
    test_ratio: float,
) -> None:
    """Train and test partition the cleaned rows; per class the test share is
    within one row of `test_ratio`. Rows are compared as multisets of cells."""
    require(
        sorted(map(tuple, train_rows + test_rows)) == sorted(map(tuple, cleaned_rows)),
        f"train ({len(train_rows)}) and test ({len(test_rows)}) rows do not partition the {len(cleaned_rows)} cleaned rows",
    )
    for cls in ("0", "1"):
        n_test = sum(r[target_index] == cls for r in test_rows)
        n_all = n_test + sum(r[target_index] == cls for r in train_rows)
        require(abs(n_test - test_ratio * n_all) <= 1.0, f"class {cls}: {n_test} of {n_all} rows in test")


# -- score-batch -------------------------------------------------------------


def check_scores(
    n_rows: int,
    level1: Mapping[str, np.ndarray],
    ensemble: np.ndarray,
    weights: Sequence[Tuple[str, float]],
    labels: np.ndarray,
    accuracy_floor: float,
) -> float:
    """Shapes, ranges, the ensemble as the weighted member sum, and accuracy
    above max(floor, majority rate). Returns the ensemble accuracy."""
    for name, p in {**level1, "ensemble": ensemble}.items():
        require(len(p) == n_rows, f"{name}: {len(p)} probabilities for {n_rows} rows")
        require(bool(np.all((p >= 0.0) & (p <= 1.0))), f"{name}: probability outside [0, 1]")
    mine = weighted_sum(weights, level1)
    gap = float(np.max(np.abs(mine - ensemble)))
    require(gap <= 1e-12, f"ensemble differs from the weighted member sum by {gap}")
    majority = max(np.mean(labels), 1.0 - np.mean(labels))
    floor = max(accuracy_floor, majority)
    acc = own_accuracy(labels, ensemble)
    require(acc > floor, f"ensemble accuracy {acc:.4f} not above {floor:.4f}")
    return acc


def check_identical(first: Mapping[str, object], again: Mapping[str, object], what: str) -> None:
    require(first.keys() == again.keys(), f"{what}: different files {sorted(first)} vs {sorted(again)}")
    differ = [k for k in first if first[k] != again[k]]
    require(not differ, f"{what}: {differ} differ between rounds of the same inputs")
