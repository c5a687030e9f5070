"""The benchmark's workloads: inputs made from a seed, the timed work, and the
checks of its outputs.

The program is reached only through its public functions, always looked up as
module attributes at call time, so the span wrappers of a traced run see the
calls. The benchmark seed reaches the program only through the generated
input rows; the experiment's own seed stays fixed.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import autotab.data as data
import autotab.datagen as datagen
import autotab.ensemble as ensemble
import autotab.harness as harness
import autotab.model as model
import autotab.preprocess as preprocess
import autotab.serialize as serialize

import checks

PROGRAM_SEED = 0
TEST_RATIO = 0.2
TARGET = "HeartDisease"
ALL_PRESETS = (
    "knn-uniform",
    "knn-distance",
    "gbt-xt",
    "gbt-default",
    "gbt-large",
    "gbt-newton",
    "gbt-ordered",
    "rf-gini",
    "rf-entropy",
    "xt-gini",
    "xt-entropy",
    "mlp-a",
    "mlp-b",
)
KNN_PRESETS = ("knn-uniform", "knn-distance")  # skipped by design under s2
TRAINING_FAILED = "training failed"


@dataclass(frozen=True)
class FitConfig:
    """One run_experiment call on generated rows."""

    scenario: str  # "s1" or "s2"
    rows: Optional[int]  # None: datagen.build_corpus(seed); else synthetic_heart(rows, seed)
    folds: int
    tune_budget: int
    presets: Optional[Tuple[str, ...]] = None  # None: all thirteen

    def wanted(self) -> Tuple[str, ...]:
        return self.presets if self.presets is not None else ALL_PRESETS

    def design_skips(self) -> Tuple[str, ...]:
        return tuple(p for p in self.wanted() if self.scenario == "s2" and p in KNN_PRESETS)

    def applicable(self) -> Tuple[str, ...]:
        return tuple(p for p in self.wanted() if p not in self.design_skips())


@dataclass(frozen=True)
class ScoreConfig:
    """Score generated raw rows with the documents of one fixed fit run."""

    rows: int
    docs: FitConfig
    docs_seed: int
    accuracy_floor: float


PAPER_S1 = FitConfig(scenario="s1", rows=None, folds=2, tune_budget=0)
BINARY_S2 = FitConfig(scenario="s2", rows=800, folds=2, tune_budget=0)
SCORE_BATCH = ScoreConfig(rows=10_000, docs=PAPER_S1, docs_seed=7, accuracy_floor=0.80)


# -- fit workloads -------------------------------------------------------------


def write_fit_input(cfg: FitConfig, seed: int, path: Path) -> None:
    if cfg.rows is None:
        _, ds = datagen.build_corpus(seed)
    else:
        ds = datagen.synthetic_heart(cfg.rows, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    data.write_csv(ds, path)


def load_and_clean(path: Path) -> int:
    """The program's part of a fit workload's set-up: parse and clean the rows.
    Returns the number of raw rows."""
    raw = data.load_csv(path, data.heart_schema())
    preprocess.clean(raw)
    return raw.row_count


def run_fit(cfg: FitConfig, data_path: Path, out_dir: Path):
    config = harness.ExperimentConfig(
        data_path=data_path,
        scenario=preprocess.ScenarioId(cfg.scenario),
        out_dir=out_dir,
        seed=PROGRAM_SEED,
        test_ratio=TEST_RATIO,
        folds=cfg.folds,
        tune_budget=cfg.tune_budget,
        presets=cfg.presets,
    )
    return harness.run_experiment(config)


def failed_presets(result) -> List[str]:
    return sorted(p for p, reason in result.skips.items() if reason.startswith(TRAINING_FAILED))


def model_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in Path(out_dir).glob("model_*.json"))


@dataclass
class Deployment:
    """Documents of one run, reloaded the way a deployment would use them."""

    artifacts: object
    level1: Dict[str, object]  # preset id -> TrainedModel
    ensemble: object  # LoadedEnsemble
    weights: List[Tuple[str, float]]  # read from the ensemble document by the benchmark


def load_deployment(out_dir: Path) -> Deployment:
    out_dir = Path(out_dir)
    artifacts, _ = serialize.load_artifacts(out_dir / "artifacts.json")
    ens_path = out_dir / f"model_{checks.ENSEMBLE_NAME}.json"
    level1 = {
        p.name[len("model_") : -len(".json")]: serialize.load_model(p)
        for p in sorted(out_dir.glob("model_*.json"))
        if p != ens_path
    }
    loaded_ensemble = serialize.load_model(ens_path)
    doc = json.loads(ens_path.read_text(encoding="utf-8"))
    weights = [(str(pid), float(w)) for pid, w in doc["members"]]
    return Deployment(artifacts, level1, loaded_ensemble, weights)


def score(dep: Deployment, ds) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
    """Every level-1 document, then the ensemble document's weights over their probabilities.

    The ensemble reuses the level-1 probabilities rather than re-predicting
    its members, so the work does not depend on how many members it has.
    """
    level1 = {pid: model.predict_proba(m, ds) for pid, m in dep.level1.items()}
    return level1, ensemble.ensemble_predict(dep.ensemble.ensemble, level1)


def emitted_test_split(out_dir: Path, dep: Deployment):
    """The emitted test split as the program reads it, and its labels as the benchmark reads them."""
    schema = next(iter(dep.level1.values())).schema
    header, rows = checks.read_csv(Path(out_dir) / "test.csv")
    labels = np.array([int(r[header.index(TARGET)]) for r in rows])
    return data.load_csv(Path(out_dir) / "test.csv", schema), labels


def check_fit_outputs(cfg: FitConfig, data_path: Path, out_dir: Path, result) -> Deployment:
    """Every check on one run's emitted files; returns the reloaded documents."""
    out_dir = Path(out_dir)
    failed = failed_presets(result)
    design = sorted(set(result.skips) - set(failed))
    checks.require(design == sorted(cfg.design_skips()), f"skipped by design: {design}, expected {sorted(cfg.design_skips())}")
    rows = checks.parse_leaderboard(out_dir / "leaderboard.csv")
    txt = (out_dir / "leaderboard.txt").read_text(encoding="utf-8").splitlines()
    expected = [p for p in cfg.applicable() if p not in failed]
    checks.check_leaderboard(rows, txt, expected, design + failed)

    dep = load_deployment(out_dir)
    checks.require(sorted(dep.level1) == sorted(expected), f"documents {sorted(dep.level1)} != {expected}")
    check_docs(out_dir, dep)

    oof = {pid: result.oof.column(pid) for pid in result.oof.preset_ids}
    checks.check_ensemble_selection(dep.weights, rows, np.asarray(result.oof.labels), oof)
    docs = {pid: json.loads((out_dir / f"model_{pid}.json").read_text(encoding="utf-8")) for pid in expected}
    checks.check_loss_traces(docs)

    header, raw_rows = checks.read_csv(data_path)
    kept = checks.own_clean(header, raw_rows)
    art_doc = json.loads((out_dir / "artifacts.json").read_text(encoding="utf-8"))
    checks.require(art_doc["cleaning"]["rows_after"] == len(kept), f"program kept {art_doc['cleaning']['rows_after']} rows, cleaning rules keep {len(kept)}")
    # the scenario transform of the cleaned rows, so s2's one-hot splits compare cell by cell
    _, schema = serialize.load_artifacts(out_dir / "artifacts.json")
    raw_ds = data.load_csv(data_path, schema)
    transformed_path = out_dir.parent / f"{out_dir.name}.cleaned.csv"
    data.write_csv(preprocess.transform_with_artifacts(raw_ds.take(kept), dep.artifacts), transformed_path)
    cleaned_header, cleaned_rows = checks.read_csv(transformed_path)
    transformed_path.unlink()
    train_header, train_rows = checks.read_csv(out_dir / "train.csv")
    test_header, test_rows = checks.read_csv(out_dir / "test.csv")
    checks.require(train_header == test_header == cleaned_header, "split files and cleaned rows have different columns")
    checks.check_split(cleaned_rows, train_rows, test_rows, test_header.index(TARGET), TEST_RATIO)
    return dep


def make_docs(cfg: ScoreConfig, work_dir: Path) -> Path:
    """Run the documents' fit into `work_dir`, check it, and return its output directory."""
    data_path = work_dir / "input.csv"
    out_dir = work_dir / "run"
    write_fit_input(cfg.docs, cfg.docs_seed, data_path)
    result = run_fit(cfg.docs, data_path, out_dir)
    check_fit_outputs(cfg.docs, data_path, out_dir, result)
    return out_dir


def check_docs(docs_dir: Path, dep: Deployment) -> None:
    """Reloaded documents reproduce their run's leaderboard on its test split."""
    test_ds, labels = emitted_test_split(docs_dir, dep)
    probas, _ = score(dep, test_ds)
    probas[checks.ENSEMBLE_NAME] = checks.weighted_sum(dep.weights, probas)
    checks.check_test_metrics(checks.parse_leaderboard(docs_dir / "leaderboard.csv"), labels, probas)


def raw_batch(rows: int, seed: int):
    return datagen.synthetic_heart(rows, seed)


def score_round(dep: Deployment, raw) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
    return score(dep, preprocess.transform_with_artifacts(raw, dep.artifacts))
