"""Release gate: numbered end-to-end checks against the bundled heart data.

Each test is one criterion; `pytest -v` prints one pass/fail line per
criterion. The three full scenario runs share a session fixture so the
whole gate stays under a few minutes.
"""
import time
from pathlib import Path

import numpy as np
import pytest

from autotab.data import concat, heart_schema, load_csv
from autotab.ensemble import (
    OofMatrix,
    ensemble_predict,
    greedy_select,
    kfold_assign,
    oof_predictions,
)
from autotab.harness import ENSEMBLE_NAME, ExperimentConfig, run_experiment
from autotab.learners.mlp import init_params, mlp_loss_gradient
from autotab.metrics import accuracy, confusion, f1, precision, recall, roc_auc, roc_auc_pairwise
from autotab.model import predict_proba, preset_by_id, train
from autotab.preprocess import (
    ScenarioId,
    apply_binning,
    deduplicate,
    remove_invalid_and_outliers,
    scenario_preprocess,
)
from autotab.data import ColumnKind, ColumnSchema, TabularDataset
from autotab.serialize import load_model, save_model

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
SOURCE_NAMES = ("cleveland", "hungarian", "switzerland", "longbeach", "statlog")

ACCURACY_FLOORS = {ScenarioId.S1: 0.82, ScenarioId.S2: 0.85, ScenarioId.S3: 0.80}
RUN_TIME_LIMIT = 300.0


@pytest.fixture(scope="session")
def heart_raw():
    return load_csv(DATA / "heart.csv", heart_schema())


@pytest.fixture(scope="session")
def full_runs(tmp_path_factory):
    """One default-configuration experiment per scenario."""
    runs = {}
    for scenario in (ScenarioId.S1, ScenarioId.S2, ScenarioId.S3):
        out = tmp_path_factory.mktemp(f"run_{scenario.value}")
        cfg = ExperimentConfig(
            data_path=DATA / "heart.csv", scenario=scenario, out_dir=out
        )
        runs[scenario] = run_experiment(cfg)
    return runs


def test_criterion_01_combined_sources_and_deduplication_counts():
    started = time.perf_counter()
    parts = [
        load_csv(DATA / "sources" / f"{name}.csv", heart_schema())
        for name in SOURCE_NAMES
    ]
    combined = concat(parts)
    unique, report = deduplicate(combined)
    elapsed = time.perf_counter() - started
    assert combined.row_count == 1190
    assert unique.row_count == 918
    assert report.duplicates_removed == 272
    assert elapsed < 1.0


def test_criterion_02_cleaning_counts_stay_in_band():
    parts = [
        load_csv(DATA / "sources" / f"{name}.csv", heart_schema())
        for name in SOURCE_NAMES
    ]
    unique, _ = deduplicate(concat(parts))
    assert unique.row_count == 918
    cleaned, report = remove_invalid_and_outliers(unique)
    assert 700 <= cleaned.row_count <= 730
    chol = report.invalid_rows_removed["Cholesterol=0"] + report.outlier_rows_removed["Cholesterol"]
    rbp = report.invalid_rows_removed["RestingBP=0"] + report.outlier_rows_removed["RestingBP"]
    assert abs(chol / 918 - 0.19) <= 0.02
    assert abs(rbp / 918 - 0.04) <= 0.02


@pytest.mark.slow
def test_criterion_03_ensemble_accuracy_bands_and_runtime(full_runs):
    for scenario, floor in ACCURACY_FLOORS.items():
        result = full_runs[scenario]
        ens_row = result.rows[-1]
        assert ens_row.model == ENSEMBLE_NAME
        assert ens_row.accuracy_test >= floor, (
            f"{scenario.value}: ensemble test accuracy {ens_row.accuracy_test:.4f} below {floor}"
        )
        assert result.elapsed_seconds < RUN_TIME_LIMIT


@pytest.mark.slow
def test_criterion_04_scenario_two_skips_neighbours_with_reasons(full_runs):
    result = full_runs[ScenarioId.S2]
    assert set(result.skips) == {"knn-uniform", "knn-distance"}
    assert all(result.skips[pid] for pid in result.skips)
    level1 = [r for r in result.rows if r.stack_level == 1]
    assert len(level1) == 11


@pytest.mark.slow
def test_criterion_05_ensemble_validation_dominates_singles(heart_raw):
    presets = ("knn-uniform", "knn-distance", "gbt-default", "rf-gini")
    for scenario in (ScenarioId.S1, ScenarioId.S2, ScenarioId.S3):
        for seed in range(5):
            train_ds, _, _ = scenario_preprocess(heart_raw, scenario, seed)
            specs = [preset_by_id(pid).with_seed(seed) for pid in presets]
            folds = kfold_assign(train_ds.row_count, train_ds.target(), 5, 1, seed)
            oof = oof_predictions(specs, train_ds, folds)
            ens = greedy_select(oof)
            pool = {pid: oof.column(pid) for pid in dict(ens.members)}
            ens_val = accuracy(confusion(oof.labels, ensemble_predict(ens, pool)))
            best_single = max(
                accuracy(confusion(oof.labels, oof.probas[:, i]))
                for i in range(len(oof.preset_ids))
            )
            assert ens_val >= best_single - 1e-12, (
                f"{scenario.value} seed {seed}: ensemble {ens_val} vs single {best_single}"
            )


def test_criterion_06_row_wise_dominator_takes_all_weight():
    rng = np.random.default_rng(17)
    y = rng.integers(0, 2, 40)
    dominator = np.where(y == 1, 0.9, 0.1)
    others = []
    for _ in range(2):
        delta = rng.uniform(0.05, 0.45, 40)
        others.append(np.clip(dominator + np.where(y == 1, -delta, delta), 0.0, 1.0))
    for col in others:  # strictly farther from the label on every row
        assert np.all(np.abs(col - y) > np.abs(dominator - y))
    oof = OofMatrix(
        ("blurry-a", "blurry-b", "sharp"),
        np.column_stack([others[0], others[1], dominator]),
        y,
    )
    ens = greedy_select(oof)
    assert ens.members == (("sharp", 1.0),)


def test_criterion_07_metric_oracles_on_random_vectors():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        n = int(rng.integers(2, 31))
        y = rng.integers(0, 2, n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        scores = rng.integers(0, 7, n) / 6.0  # coarse grid forces score ties
        assert roc_auc(y, scores) == roc_auc_pairwise(y, scores)

        cm = confusion(y, scores)
        pred = scores >= 0.5
        tp = int(np.sum(pred & (y == 1)))
        fp = int(np.sum(pred & (y == 0)))
        fn = int(np.sum(~pred & (y == 1)))
        tn = int(np.sum(~pred & (y == 0)))
        assert accuracy(cm) == pytest.approx((tp + tn) / n, abs=1e-12)
        p = tp / (tp + fp) if tp + fp else None
        r = tp / (tp + fn) if tp + fn else None
        if p is None:
            assert precision(cm) is None
        else:
            assert precision(cm) == pytest.approx(p, abs=1e-12)
        if r is None:
            assert recall(cm) is None
        else:
            assert recall(cm) == pytest.approx(r, abs=1e-12)
        if p is None or r is None or p + r == 0:
            assert f1(cm) is None
        else:
            assert f1(cm) == pytest.approx(2 * p * r / (p + r), abs=1e-12)


def test_criterion_08_network_gradients_match_finite_differences():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        n_features = int(rng.integers(2, 7))
        n = int(rng.integers(2, 9))
        hidden = tuple(int(h) for h in rng.integers(2, 6, size=int(rng.integers(1, 3))))
        weights, biases = init_params(n_features, hidden, rng)
        for b in biases:  # nonzero biases keep relu pre-activations off the kink
            b[:] = rng.normal(0.0, 0.5, b.shape)
        X = rng.normal(size=(n, n_features))
        y = rng.integers(0, 2, n).astype(float)
        _, grad_w, grad_b = mlp_loss_gradient(weights, biases, X, y)
        eps = 1e-5
        for arrays, grads in ((weights, grad_w), (biases, grad_b)):
            for arr, g in zip(arrays, grads):
                flat, gflat = arr.ravel(), g.ravel()
                for i in range(flat.size):
                    old = flat[i]
                    flat[i] = old + eps
                    up, _, _ = mlp_loss_gradient(weights, biases, X, y)
                    flat[i] = old - eps
                    down, _, _ = mlp_loss_gradient(weights, biases, X, y)
                    flat[i] = old
                    numeric = (up - down) / (2 * eps)
                    assert abs(gflat[i] - numeric) <= 1e-4 * abs(numeric) + 1e-6


@pytest.mark.slow
def test_criterion_09_boosting_loss_traces_non_increasing(full_runs):
    train_ds = full_runs[ScenarioId.S3].train_ds
    for pid in ("gbt-xt", "gbt-default", "gbt-large", "gbt-newton"):
        spec = preset_by_id(pid).with_seed(0)
        model = train(spec, train_ds)
        trace = np.asarray(model.payload.loss_trace)
        assert len(trace) == spec.hyperparameters["n_trees"] + 1
        assert np.all(np.diff(trace) <= 0.0), f"{pid} loss trace increased"


@pytest.mark.slow
def test_criterion_10_preprocessing_properties(full_runs):
    s2 = full_runs[ScenarioId.S2]
    for ds in (s2.train_ds, s2.test_ds):
        for source, derived in s2.artifacts.encoding.items():
            block = np.column_stack([ds.column(d) for d in derived])
            assert np.all(block.sum(axis=1) == 1), f"one-hot block for {source}"
    assert len(s2.train_ds.feature_schema) == 41

    s3 = full_runs[ScenarioId.S3]
    for col in s3.train_ds.feature_schema:
        if col.kind != ColumnKind.CONTINUOUS:
            continue
        values = s3.train_ds.column(col.name)
        assert abs(float(np.mean(values))) < 1e-9
        assert abs(float(np.std(values)) - 1.0) < 1e-9

    for spec in s2.artifacts.binnings:
        width = spec.edges[1] - spec.edges[0]
        grid = np.linspace(spec.edges[0] - width, spec.edges[-1] + width, 1000)
        probe = TabularDataset(
            [ColumnSchema(spec.column, ColumnKind.CONTINUOUS), ColumnSchema("HeartDisease", ColumnKind.TARGET)],
            {spec.column: grid, "HeartDisease": np.zeros(1000, dtype=np.int64)},
        )
        binned = apply_binning(probe, spec)
        codes = binned.column(spec.column)
        assert np.all(np.diff(codes) >= 0), f"binning of {spec.column} not monotone"


@pytest.mark.slow
def test_criterion_11_reruns_and_round_trips_are_bit_exact(full_runs, tmp_path):
    first = full_runs[ScenarioId.S1]
    cfg = ExperimentConfig(
        data_path=DATA / "heart.csv", scenario=ScenarioId.S1, out_dir=tmp_path / "again"
    )
    second = run_experiment(cfg)
    assert first.files["csv"].read_bytes() == second.files["csv"].read_bytes()

    test_ds = first.test_ds
    for pid in ("gbt-newton", "knn-distance", "mlp-a", "rf-gini"):
        loaded = load_model(first.files[pid])
        p1 = predict_proba(loaded, test_ds)
        resaved = save_model(loaded, tmp_path / f"resaved_{pid}.json")
        p2 = predict_proba(load_model(resaved), test_ds)
        assert np.array_equal(p1, p2), f"{pid} round trip changed predictions"
        retrained = train(loaded.spec, first.train_ds)
        p3 = predict_proba(retrained, test_ds)
        assert np.array_equal(p1, p3), f"{pid} document does not capture the trained state"

    ens_doc = load_model(first.files[ENSEMBLE_NAME])
    base = {pid: predict_proba(m, test_ds) for pid, m in ens_doc.members.items()}
    blended = ensemble_predict(ens_doc.ensemble, base)
    again = ensemble_predict(ens_doc.ensemble, base)
    assert np.array_equal(blended, again)
    assert ens_doc.ensemble == first.ensemble
