"""Experiment driver: one scenario end to end, leaderboard out.

Pipeline per run: load the data, clean and split it, fit the scenario
transform on the training split, tune each applicable preset on an inner
split, collect out-of-fold predictions, build the greedy weighted ensemble,
refit every kept model on the full training split, and score everything on
the held-out test rows. Every random decision is derived from the config
seed, so the same config always emits the same bytes.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .data import TabularDataset, heart_schema, load_csv, write_csv
from .ensemble import (
    DEFAULT_FOLDS,
    DEFAULT_MAX_ROUNDS,
    DEFAULT_REPEATS,
    EnsembleModel,
    OofMatrix,
    ensemble_predict,
    greedy_select,
    kfold_assign,
    oof_predictions,
)
from .learners.presets import PRESET_INDEX
from .metrics import MetricsReport, accuracy, confusion, report
from .model import predict_proba, registry_presets, train, tune_preset
from .preprocess import PreprocessArtifacts, ScenarioId, scenario_preprocess
from .serialize import save_artifacts, save_ensemble, save_model

DEFAULT_SEED = 0
DEFAULT_TEST_RATIO = 0.2
DEFAULT_TUNE_BUDGET = 8
ENSEMBLE_NAME = "WeightedEnsemble_L2"
LEADERBOARD_HEADER = "model,stack_level,accuracy_test,accuracy_val,roc_auc,precision,f1,recall"


class HarnessError(ValueError):
    def __init__(self, phase: str, message: str):
        super().__init__(f"[{phase}] {message}")
        self.phase = phase


@dataclass(frozen=True)
class ExperimentConfig:
    data_path: Union[str, Path]
    scenario: ScenarioId
    out_dir: Union[str, Path]
    seed: int = DEFAULT_SEED
    test_ratio: float = DEFAULT_TEST_RATIO
    folds: int = DEFAULT_FOLDS
    repeats: int = DEFAULT_REPEATS
    presets: Optional[Tuple[str, ...]] = None  # None means the full registry
    tune_budget: int = DEFAULT_TUNE_BUDGET

    def validate(self) -> None:
        if not Path(self.data_path).exists():
            raise ValueError(f"data file not found: {self.data_path}")
        if not isinstance(self.scenario, ScenarioId):
            raise ValueError(f"scenario must be a ScenarioId, got {self.scenario!r}")
        if not 0.0 < self.test_ratio < 1.0:
            raise ValueError(f"test_ratio must be in (0, 1), got {self.test_ratio}")
        if self.folds < 2:
            raise ValueError(f"folds must be at least 2, got {self.folds}")
        if self.repeats < 1:
            raise ValueError(f"repeats must be positive, got {self.repeats}")
        if self.tune_budget < 0:
            raise ValueError(f"tune_budget must be nonnegative, got {self.tune_budget}")
        if self.presets is not None:
            if not self.presets:
                raise ValueError("preset filter is empty")
            unknown = [p for p in self.presets if p not in PRESET_INDEX]
            if unknown:
                raise ValueError(f"unknown presets: {', '.join(unknown)}")


@dataclass
class LeaderboardRow:
    model: str
    stack_level: int
    accuracy_test: float
    accuracy_val: float
    roc_auc: float
    precision: Optional[float]
    f1: Optional[float]
    recall: Optional[float]


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    rows: List[LeaderboardRow]
    skips: Dict[str, str]
    ensemble: EnsembleModel
    oof: OofMatrix
    artifacts: PreprocessArtifacts
    train_ds: TabularDataset
    test_ds: TabularDataset
    files: Dict[str, Path]
    elapsed_seconds: float


def _fmt(value: Optional[float]) -> str:
    return "undefined" if value is None else f"{value:.4f}"


def _parse_cell(cell: str) -> Optional[float]:
    return None if cell == "undefined" else float(cell)


def emit_leaderboard(
    rows: Sequence[LeaderboardRow], out_dir: Union[str, Path], skips: Optional[Dict[str, str]] = None
) -> Dict[str, Path]:
    """Write leaderboard.csv (machine) and leaderboard.txt (aligned columns)."""
    if not rows:
        raise ValueError("cannot emit an empty leaderboard")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "leaderboard.csv"
    txt_path = out_dir / "leaderboard.txt"

    table = [LEADERBOARD_HEADER.split(",")] + [
        [r.model, str(r.stack_level)]
        + [_fmt(v) for v in (r.accuracy_test, r.accuracy_val, r.roc_auc, r.precision, r.f1, r.recall)]
        for r in rows
    ]
    csv_path.write_text("".join(",".join(cells) + "\n" for cells in table), encoding="utf-8")

    name_w = max(len(cells[0]) for cells in table)
    txt_lines = [
        cells[0].ljust(name_w) + "  " + "  ".join(c.rjust(13) for c in cells[1:]) for cells in table
    ]
    if skips:
        txt_lines.append("")
        txt_lines.append("skipped models:")
        for pid in sorted(skips):
            txt_lines.append(f"  {pid}: {skips[pid]}")
    txt_path.write_text("\n".join(txt_lines) + "\n", encoding="utf-8")
    return {"csv": csv_path, "txt": txt_path}


def parse_leaderboard(path: Union[str, Path]) -> List[LeaderboardRow]:
    lines = Path(path).read_text(encoding="utf-8").strip().split("\n")
    if not lines or lines[0] != LEADERBOARD_HEADER:
        raise ValueError(f"unexpected leaderboard header in {path}")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 8:
            raise ValueError(f"malformed leaderboard line: {line!r}")
        rows.append(
            LeaderboardRow(
                model=parts[0],
                stack_level=int(parts[1]),
                accuracy_test=float(parts[2]),
                accuracy_val=float(parts[3]),
                roc_auc=float(parts[4]),
                precision=_parse_cell(parts[5]),
                f1=_parse_cell(parts[6]),
                recall=_parse_cell(parts[7]),
            )
        )
    return rows


def _row_from_report(model: str, level: int, rep: MetricsReport, acc_val: float) -> LeaderboardRow:
    return LeaderboardRow(
        model=model,
        stack_level=level,
        accuracy_test=rep.accuracy,
        accuracy_val=acc_val,
        roc_auc=rep.roc_auc,
        precision=rep.precision,
        f1=rep.f1,
        recall=rep.recall,
    )


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    started = time.time()

    def phase(name: str, fn):
        try:
            return fn()
        except HarnessError:
            raise
        except Exception as exc:
            raise HarnessError(name, str(exc)) from exc

    phase("config", cfg.validate)
    ds = phase("load", lambda: load_csv(cfg.data_path, heart_schema()))
    train_ds, test_ds, artifacts = phase(
        "preprocess",
        lambda: scenario_preprocess(ds, cfg.scenario, cfg.seed, test_ratio=cfg.test_ratio),
    )

    wanted = cfg.presets if cfg.presets is not None else tuple(PRESET_INDEX)
    base_specs = [s.with_seed(cfg.seed) for s in registry_presets() if s.preset_id in wanted]
    tuned = phase(
        "tune",
        lambda: [tune_preset(spec, train_ds, cfg.tune_budget) for spec in base_specs],
    )

    def _oof():
        folds = kfold_assign(
            train_ds.row_count, train_ds.target(), cfg.folds, cfg.repeats, cfg.seed
        )
        return oof_predictions(tuned, train_ds, folds)

    oof = phase("stack", _oof)
    skips = oof.skipped
    val_acc = {
        pid: accuracy(confusion(oof.labels, oof.probas[:, i]))
        for i, pid in enumerate(oof.preset_ids)
    }

    ens = phase("ensemble", lambda: greedy_select(oof, None, DEFAULT_MAX_ROUNDS))
    ens_val = accuracy(
        confusion(oof.labels, ensemble_predict(ens, {pid: oof.column(pid) for pid in dict(ens.members)}))
    )

    def _refit():
        models = {}
        for spec in tuned:
            if spec.preset_id in oof.preset_ids:
                models[spec.preset_id] = train(spec, train_ds)
        return models

    models = phase("refit", _refit)

    def _score():
        y_test = test_ds.target()
        rows: List[LeaderboardRow] = []
        test_probas: Dict[str, np.ndarray] = {}
        for pid, model in models.items():
            probas = predict_proba(model, test_ds)
            test_probas[pid] = probas
            rows.append(_row_from_report(pid, 1, report(y_test, probas), val_acc[pid]))
        ens_probas = ensemble_predict(ens, test_probas)
        ens_row = _row_from_report(ENSEMBLE_NAME, 2, report(y_test, ens_probas), ens_val)
        rows.sort(key=lambda r: (-r.accuracy_test, r.model))
        rows.append(ens_row)
        return rows

    rows = phase("score", _score)

    def _emit():
        out_dir = Path(cfg.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        # a rerun into a used directory must not leave another run's models behind
        written = {f"model_{pid}.json" for pid in [*models, ENSEMBLE_NAME]}
        for stale in out_dir.glob("model_*.json"):
            if stale.name not in written:
                stale.unlink()
        files = emit_leaderboard(rows, out_dir, skips)
        files["artifacts"] = save_artifacts(artifacts, ds.schema, out_dir / "artifacts.json")
        member_files: Dict[str, str] = {}
        for pid, model in models.items():
            name = f"model_{pid}.json"
            files[pid] = save_model(model, out_dir / name)
            member_files[pid] = name
        files[ENSEMBLE_NAME] = save_ensemble(
            ens, train_ds.schema, member_files, out_dir / f"model_{ENSEMBLE_NAME}.json"
        )
        write_csv(train_ds, out_dir / "train.csv")
        files["train"] = out_dir / "train.csv"
        write_csv(test_ds, out_dir / "test.csv")
        files["test"] = out_dir / "test.csv"
        return files

    files = phase("emit", _emit)

    return ExperimentResult(
        config=cfg,
        rows=rows,
        skips=skips,
        ensemble=ens,
        oof=oof,
        artifacts=artifacts,
        train_ds=train_ds,
        test_ds=test_ds,
        files=files,
        elapsed_seconds=time.time() - started,
    )
