"""Command line interface: run experiments, preprocess data, score saved models."""
from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .data import load_csv, heart_schema
from .ensemble import DEFAULT_FOLDS, DEFAULT_REPEATS, ensemble_predict
from .harness import (
    DEFAULT_SEED,
    DEFAULT_TEST_RATIO,
    DEFAULT_TUNE_BUDGET,
    ENSEMBLE_NAME,
    ExperimentConfig,
    HarnessError,
    _fmt,
    run_experiment,
    write_split,
)
from .metrics import report
from .model import TrainedModel, predict_proba
from .preprocess import ScenarioId, scenario_preprocess, transform_with_artifacts
from .serialize import load_artifacts, load_model


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="autotab",
        description="Automated model selection and ensembling for binary tabular classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one preprocessing scenario end to end")
    run.add_argument("--data", required=True, help="input CSV with the heart-disease column layout")
    run.add_argument("--scenario", required=True, help="s1, s2 or s3")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--folds", type=int, default=DEFAULT_FOLDS)
    run.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    run.add_argument("--test-ratio", type=float, default=DEFAULT_TEST_RATIO)
    run.add_argument("--presets", default=None, help="comma-separated preset ids (default: all)")
    run.add_argument("--tune-budget", type=int, default=DEFAULT_TUNE_BUDGET)
    run.add_argument("--out", required=True, help="output directory")

    prep = sub.add_parser("prep", help="clean, split and transform only")
    prep.add_argument("--data", required=True)
    prep.add_argument("--scenario", required=True)
    prep.add_argument("--seed", type=int, default=DEFAULT_SEED)
    prep.add_argument("--test-ratio", type=float, default=DEFAULT_TEST_RATIO)
    prep.add_argument("--out", required=True)

    score = sub.add_parser("score", help="score a saved model document against a CSV")
    score.add_argument("--model", required=True)
    score.add_argument("--data", required=True)
    score.add_argument(
        "--artifacts",
        default=None,
        help="artifacts document; when given, --data is raw rows to transform first",
    )
    score.add_argument("--out", default=None, help="optional CSV to receive per-row probabilities")
    return parser


def _cmd_run(args) -> int:
    cfg = ExperimentConfig(
        data_path=args.data,
        scenario=ScenarioId.parse(args.scenario),
        out_dir=args.out,
        seed=args.seed,
        test_ratio=args.test_ratio,
        folds=args.folds,
        repeats=args.repeats,
        presets=tuple(p.strip() for p in args.presets.split(",")) if args.presets else None,
        tune_budget=args.tune_budget,
    )
    result = run_experiment(cfg)
    sys.stdout.write(result.files["txt"].read_text(encoding="utf-8"))
    print(f"\ncompleted in {result.elapsed_seconds:.1f}s; outputs in {cfg.out_dir}")
    return 0


def _cmd_prep(args) -> int:
    out_dir = Path(args.out)
    ds = load_csv(args.data, heart_schema())
    scenario = ScenarioId.parse(args.scenario)
    train_ds, test_ds, artifacts = scenario_preprocess(
        ds, scenario, args.seed, test_ratio=args.test_ratio
    )
    write_split(out_dir, artifacts, ds.schema, train_ds, test_ds)
    c = artifacts.cleaning
    print(f"scenario {scenario.value}: {c.rows_before} rows in, {c.rows_after} after cleaning")
    print(f"  duplicates removed: {c.duplicates_removed}")
    for col, n in c.invalid_rows_removed.items():
        print(f"  invalid {col}: {n}")
    for col, n in c.outlier_rows_removed.items():
        print(f"  outliers {col}: {n}")
    print(f"train rows: {train_ds.row_count}, test rows: {test_ds.row_count}")
    print(f"outputs in {out_dir}")
    return 0


def _cmd_score(args) -> int:
    loaded = load_model(args.model)
    if args.artifacts:
        artifacts, schema = load_artifacts(args.artifacts)
        raw = load_csv(args.data, schema)
        ds = transform_with_artifacts(raw, artifacts)
    else:
        ds = load_csv(args.data, loaded.schema)
    if isinstance(loaded, TrainedModel):
        probas = predict_proba(loaded, ds)
        name = loaded.preset_id
    else:
        base = {pid: predict_proba(m, ds) for pid, m in loaded.members.items()}
        probas = ensemble_predict(loaded.ensemble, base)
        name = ENSEMBLE_NAME
    rep = report(ds.target(), probas)
    print(f"model: {name}  rows: {ds.row_count}")
    for metric in ("accuracy", "roc_auc", "precision", "recall", "f1"):
        print(f"{metric + ':':<11}{_fmt(getattr(rep, metric))}")
    if args.out:
        lines = ["row,proba,predicted"]
        for i, p in enumerate(probas):
            lines.append(f"{i},{float(p)!r},{1 if p >= 0.5 else 0}")
        Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"predictions written to {args.out}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "prep":
            return _cmd_prep(args)
        if args.command == "score":
            return _cmd_score(args)
        parser.error(f"unknown command {args.command!r}")
    except HarnessError as exc:
        print(f"error {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # staged diagnostics for non-harness failures
        print(f"error [{args.command}] {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
