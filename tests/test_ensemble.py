"""Fold assignment, out-of-fold stacking and greedy ensemble selection."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import autotab.ensemble as ensemble_mod
from autotab.data import ColumnKind, ColumnSchema, TabularDataset
from autotab.datagen import synthetic_heart
from autotab.ensemble import (
    EnsembleError,
    EnsembleModel,
    OofMatrix,
    default_threshold,
    ensemble_predict,
    greedy_select,
    kfold_assign,
    oof_predictions,
)
from autotab.metrics import accuracy, confusion
from autotab.model import predict_proba, preset_by_id, train


def balanced_dataset(n=8, seed=0):
    """Tiny two-column continuous dataset with an exactly balanced target."""
    rng = np.random.default_rng(seed)
    schema = [
        ColumnSchema("u", ColumnKind.CONTINUOUS),
        ColumnSchema("v", ColumnKind.CONTINUOUS),
        ColumnSchema("target", ColumnKind.TARGET),
    ]
    y = np.arange(n) % 2
    cols = {
        "u": rng.normal(size=n),
        "v": rng.normal(size=n),
        "target": y.astype(np.int64),
    }
    return TabularDataset(schema, cols)


class TestKfoldAssign:
    def test_ten_rows_five_folds_gives_pairs(self):
        labels = np.arange(10) % 2
        folds = kfold_assign(10, labels, k=5, repeats=1, seed=0)
        sizes = [len(folds.fold_rows(0, j)) for j in range(5)]
        assert sizes == [2, 2, 2, 2, 2]

    def test_same_seed_identical(self):
        labels = np.arange(20) % 2
        a = kfold_assign(20, labels, k=4, repeats=2, seed=7)
        b = kfold_assign(20, labels, k=4, repeats=2, seed=7)
        c = kfold_assign(20, labels, k=4, repeats=2, seed=8)
        assert np.array_equal(a.assignment, b.assignment)
        assert not np.array_equal(a.assignment, c.assignment)

    def test_six_four_split_two_folds(self):
        labels = np.array([1] * 6 + [0] * 4)
        folds = kfold_assign(10, labels, k=2, repeats=1, seed=3)
        for j in range(2):
            rows = folds.fold_rows(0, j)
            assert (labels[rows] == 1).sum() == 3
            assert (labels[rows] == 0).sum() == 2

    def test_class_smaller_than_k_rejected(self):
        labels = np.array([1, 1, 1, 1, 1, 1, 1, 1, 0, 0])
        with pytest.raises(EnsembleError):
            kfold_assign(10, labels, k=3, repeats=1, seed=0)

    def test_per_class_fold_sizes_differ_by_at_most_one(self):
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 2, 53)
        folds = kfold_assign(53, labels, k=4, repeats=3, seed=11)
        for r in range(3):
            for cls in (0, 1):
                per_fold = [
                    int((labels[folds.fold_rows(r, j)] == cls).sum()) for j in range(4)
                ]
                assert max(per_fold) - min(per_fold) <= 1

    def test_complement_partitions_rows(self):
        labels = np.arange(12) % 2
        folds = kfold_assign(12, labels, k=3, repeats=1, seed=0)
        for j in range(3):
            both = np.concatenate([folds.fold_rows(0, j), folds.complement_rows(0, j)])
            assert np.array_equal(np.sort(both), np.arange(12))

    def test_invalid_counts_rejected(self):
        labels = np.arange(10) % 2
        with pytest.raises(EnsembleError):
            kfold_assign(10, labels, k=1, repeats=1, seed=0)
        with pytest.raises(EnsembleError):
            kfold_assign(10, labels, k=2, repeats=0, seed=0)
        with pytest.raises(EnsembleError):
            kfold_assign(11, labels, k=2, repeats=1, seed=0)


class TestOofPredictions:
    def test_prior_only_model_yields_constant_column(self):
        # a boosted model with zero trees predicts the training prevalence,
        # which is 0.5 on every balanced complement
        ds = balanced_dataset(8)
        spec = preset_by_id("gbt-default").with_hyperparameters(
            {"n_trees": 0, "max_depth": 3, "learning_rate": 0.1}
        )
        folds = kfold_assign(8, ds.target(), k=2, repeats=1, seed=0)
        oof = oof_predictions([spec], ds, folds)
        assert np.array_equal(oof.column("gbt-default"), np.full(8, 0.5))

    def test_two_folds_train_each_model_twice(self, monkeypatch):
        ds = balanced_dataset(10)
        calls = []
        original = ensemble_mod.train

        def counting_train(spec, subset):
            calls.append(spec.preset_id)
            return original(spec, subset)

        monkeypatch.setattr(ensemble_mod, "train", counting_train)
        spec = preset_by_id("gbt-default").with_hyperparameters(
            {"n_trees": 2, "max_depth": 2, "learning_rate": 0.1}
        )
        folds = kfold_assign(10, ds.target(), k=2, repeats=1, seed=0)
        oof_predictions([spec], ds, folds)
        assert calls == ["gbt-default", "gbt-default"]

    def test_inapplicable_spec_recorded_as_skip(self):
        schema = [
            ColumnSchema("flag", ColumnKind.BINARY, ("n", "y")),
            ColumnSchema("target", ColumnKind.TARGET),
        ]
        cols = {
            "flag": np.arange(12) % 2,
            "target": (np.arange(12) // 2 % 2).astype(np.int64),
        }
        ds = TabularDataset(schema, cols)
        specs = [
            preset_by_id("knn-uniform"),
            preset_by_id("gbt-default").with_hyperparameters(
                {"n_trees": 2, "max_depth": 2, "learning_rate": 0.1}
            ),
        ]
        folds = kfold_assign(12, ds.target(), k=2, repeats=1, seed=0)
        oof = oof_predictions(specs, ds, folds)
        assert oof.preset_ids == ("gbt-default",)
        assert oof.skipped["knn-uniform"] == "no continuous feature columns after preprocessing"

    def test_training_failure_recorded_not_fatal(self):
        ds = balanced_dataset(10)
        bad = preset_by_id("knn-uniform").with_hyperparameters({"k": -1})
        good = preset_by_id("knn-uniform")
        folds = kfold_assign(10, ds.target(), k=2, repeats=1, seed=0)
        oof = oof_predictions([bad, good], ds, folds)
        assert oof.preset_ids == ("knn-uniform",)
        assert "training failed" in oof.skipped["knn-uniform"]

    def test_all_failures_raise(self):
        ds = balanced_dataset(10)
        bad = preset_by_id("knn-uniform").with_hyperparameters({"k": -1})
        folds = kfold_assign(10, ds.target(), k=2, repeats=1, seed=0)
        with pytest.raises(EnsembleError):
            oof_predictions([bad], ds, folds)

    def test_entries_come_from_models_that_never_saw_the_row(self):
        ds = synthetic_heart(40, seed=2)
        spec = preset_by_id("rf-gini").with_hyperparameters(
            {"criterion": "gini", "n_trees": 10, "max_depth": 0, "min_leaf": 1, "bootstrap": True}
        ).with_seed(3)
        folds = kfold_assign(40, ds.target(), k=2, repeats=1, seed=1)
        oof = oof_predictions([spec], ds, folds)
        col = oof.column("rf-gini")
        for j in range(2):
            fit_rows = folds.complement_rows(0, j)
            score_rows = folds.fold_rows(0, j)
            member = train(spec, ds.take(fit_rows))
            expect = predict_proba(member, ds.take(score_rows))
            assert np.array_equal(col[score_rows], expect)

    def test_fold_count_mismatch_rejected(self):
        ds = balanced_dataset(10)
        folds = kfold_assign(8, np.arange(8) % 2, k=2, repeats=1, seed=0)
        with pytest.raises(EnsembleError):
            oof_predictions([preset_by_id("gbt-default")], ds, folds)

    def test_missing_column_lookup_raises(self):
        oof = OofMatrix(("a",), np.zeros((3, 1)), np.array([0, 1, 0]))
        with pytest.raises(EnsembleError):
            oof.column("b")


class TestGreedySelect:
    def test_strict_dominator_gets_full_weight(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 2, 30)
        perfect = np.where(y == 1, 0.9, 0.1)
        noisy = np.clip(perfect + rng.normal(0, 0.45, 30), 0.0, 1.0)
        oof = OofMatrix(("noisy", "sharp"), np.column_stack([noisy, perfect]), y)
        ens = greedy_select(oof)
        assert ens.members == (("sharp", 1.0),)
        assert ens.stack_level == 2

    def test_identical_columns_blend_to_the_same_predictions(self):
        rng = np.random.default_rng(1)
        y = rng.integers(0, 2, 24)
        col = rng.uniform(size=24)
        oof = OofMatrix(("a", "b"), np.column_stack([col, col]), y)
        ens = greedy_select(oof, threshold_k=0.0)
        blended = ensemble_predict(ens, {"a": col, "b": col})
        assert np.allclose(blended, col, atol=1e-12)

    def test_three_candidates_beat_singles_and_respect_grid_oracle(self):
        rng = np.random.default_rng(1)
        P = rng.uniform(size=(20, 3))
        y = rng.integers(0, 2, 20)
        oof = OofMatrix(("a", "b", "c"), P, y)
        ens = greedy_select(oof, threshold_k=0.0)
        got = accuracy(confusion(y, ensemble_predict(ens, {"a": P[:, 0], "b": P[:, 1], "c": P[:, 2]})))
        singles = [accuracy(confusion(y, P[:, i])) for i in range(3)]
        step = 25
        grid_best = -1.0
        for i in range(step + 1):
            for j in range(step + 1 - i):
                w = np.array([i, j, step - i - j]) / step
                grid_best = max(grid_best, accuracy(confusion(y, P @ w)))
        assert got >= max(singles)
        assert got <= grid_best
        assert got == grid_best  # frozen for this fixture

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(2)
        P = rng.uniform(size=(40, 4))
        y = rng.integers(0, 2, 40)
        oof = OofMatrix(("a", "b", "c", "d"), P, y)
        ens = greedy_select(oof, threshold_k=0.0)
        weights = [w for _, w in ens.members]
        assert abs(sum(weights) - 1.0) < 1e-12
        assert all(w > 0 for w in weights)

    def test_threshold_excludes_weak_candidates(self):
        y = np.array([1, 1, 1, 1, 0, 0, 0, 0])
        strong = np.where(y == 1, 0.8, 0.2)
        weak = 1.0 - strong
        oof = OofMatrix(("strong", "weak"), np.column_stack([strong, weak]), y)
        ens = greedy_select(oof)  # default threshold: 1.0 - 0.05
        assert ens.weight_map() == {"strong": 1.0}
        assert ens.threshold_k == pytest.approx(0.95)

    def test_no_candidate_above_threshold_raises(self):
        y = np.array([1, 1, 0, 0])
        col = np.array([0.2, 0.2, 0.8, 0.8])  # always wrong
        oof = OofMatrix(("inv",), col[:, None], y)
        with pytest.raises(EnsembleError):
            greedy_select(oof, threshold_k=0.9)

    def test_tied_candidates_break_lexicographically(self):
        y = np.array([1, 0, 1, 0, 1, 0])
        col = np.where(y == 1, 0.9, 0.1)
        oof = OofMatrix(("zeta", "alpha"), np.column_stack([col, col]), y)
        ens = greedy_select(oof)
        assert ens.members[0][0] == "alpha"

    def test_default_threshold_floor(self):
        assert default_threshold([0.9, 0.7]) == pytest.approx(0.85)
        assert default_threshold([0.52]) == 0.5


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(6, 40))
def test_greedy_never_loses_to_best_single(data_seed, n_models, n_rows):
    rng = np.random.default_rng(data_seed)
    P = rng.uniform(size=(n_rows, n_models))
    y = rng.integers(0, 2, n_rows)
    ids = tuple(f"m{i}" for i in range(n_models))
    oof = OofMatrix(ids, P, y)
    ens = greedy_select(oof, threshold_k=0.0)
    blended = ensemble_predict(ens, {pid: P[:, i] for i, pid in enumerate(ids)})
    ens_acc = accuracy(confusion(y, blended))
    best_single = max(accuracy(confusion(y, P[:, i])) for i in range(n_models))
    assert ens_acc >= best_single - 1e-12
    assert abs(sum(w for _, w in ens.members) - 1.0) < 1e-12


class TestEnsemblePredict:
    def test_single_member_is_identity(self):
        ens = EnsembleModel((("m", 1.0),), stack_level=2, threshold_k=0.5)
        p = np.array([0.1, 0.9, 0.4])
        assert np.array_equal(ensemble_predict(ens, {"m": p}), p)

    def test_halves_average_to_midpoint(self):
        ens = EnsembleModel((("a", 0.5), ("b", 0.5)), stack_level=2, threshold_k=0.5)
        out = ensemble_predict(ens, {"a": [0.2], "b": [0.8]})
        assert out[0] == pytest.approx(0.5, abs=1e-15)

    def test_output_stays_in_member_hull(self):
        rng = np.random.default_rng(3)
        cols = {pid: rng.uniform(size=30) for pid in ("a", "b", "c")}
        ens = EnsembleModel(
            (("a", 0.2), ("b", 0.5), ("c", 0.3)), stack_level=2, threshold_k=0.5
        )
        out = ensemble_predict(ens, cols)
        stacked = np.column_stack([cols["a"], cols["b"], cols["c"]])
        assert np.all(out >= stacked.min(axis=1) - 1e-12)
        assert np.all(out <= stacked.max(axis=1) + 1e-12)

    def test_missing_member_named_in_error(self):
        ens = EnsembleModel((("a", 0.5), ("b", 0.5)), stack_level=2, threshold_k=0.5)
        with pytest.raises(EnsembleError, match="'b'"):
            ensemble_predict(ens, {"a": [0.1]})
