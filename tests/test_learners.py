"""Base learner tests: featurization, tree growth, forests, boosting, knn, mlp."""
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autotab.data import ColumnKind, ColumnSchema, TabularDataset, schema_fingerprint
from autotab.datagen import synthetic_heart
from autotab.learners.boosting import fit_gbt, gbt_proba, logistic_loss, sigmoid
from autotab.learners.features import (
    LearnerError,
    dataset_matrix,
    featurize,
    fit_featurizer,
)
from autotab.learners.forest import fit_forest, forest_proba, sqrt_feature_count
from autotab.learners.knn import KnnModel, fit_knn, knn_proba
from autotab.learners.mlp import fit_mlp, init_params, mlp_loss_gradient, mlp_proba
from autotab.learners.presets import FAMILY_GRIDS, candidate_hyperparameters
from autotab.learners.trees import (
    TreeArrays,
    exact_codes,
    grow_tree,
    predict_leaf_matrix,
    quantile_codes,
)
from autotab.model import (
    model_applicable,
    predict_proba,
    preset_by_id,
    registry_presets,
    train,
    tune_preset,
)
from autotab.serialize import _plain


def toy_dataset(n=60, seed=3):
    return synthetic_heart(n, seed=seed)


def continuous_dataset(X, y):
    """Wrap a plain matrix as a dataset of continuous columns."""
    schema = [ColumnSchema(f"x{j}", ColumnKind.CONTINUOUS) for j in range(X.shape[1])]
    schema.append(ColumnSchema("y", ColumnKind.TARGET))
    cols = {f"x{j}": X[:, j].astype(np.float64) for j in range(X.shape[1])}
    cols["y"] = np.asarray(y, dtype=np.int64)
    return TabularDataset(schema, cols)


# -- featurizer --------------------------------------------------------------


class TestFeaturizer:
    def test_standardizes_continuous_and_expands_categories(self):
        ds = toy_dataset()
        fz = fit_featurizer(ds)
        X = featurize(ds, fz)
        assert X.shape == (ds.row_count, len(fz.derived_names))
        age = fz.derived_names.index("Age")
        assert abs(X[:, age].mean()) < 1e-9
        assert abs(X[:, age].std() - 1.0) < 1e-9
        sex_m = fz.derived_names.index("Sex=M")
        assert set(np.unique(X[:, sex_m])) <= {0.0, 1.0}

    def test_constant_column_gets_unit_scale(self):
        X = np.column_stack([np.full(10, 7.0), np.arange(10.0)])
        ds = continuous_dataset(X, np.arange(10) % 2)
        fz = fit_featurizer(ds)
        out = featurize(ds, fz)
        assert np.array_equal(out[:, 0], np.zeros(10))

    def test_rejects_mismatched_columns(self):
        fz = fit_featurizer(toy_dataset())
        other = continuous_dataset(np.zeros((4, 2)), [0, 1, 0, 1])
        with pytest.raises(LearnerError):
            featurize(other, fz)

    def test_dataset_matrix_uses_schema_order(self):
        ds = toy_dataset(20)
        X = dataset_matrix(ds)
        assert X.shape == (20, 11)
        assert np.array_equal(X[:, 0], ds.column("Age").astype(float))


# -- tree engine -------------------------------------------------------------


def _bruteforce_split(X, y, impurity):
    best = None
    for f in range(X.shape[1]):
        for t in np.unique(X[:, f])[:-1]:
            left = X[:, f] <= t
            if not left.any() or left.all():
                continue
            score = impurity(y[left]) + impurity(y[~left])
            if best is None or score < best[0] - 1e-12:
                best = (score, f, t)
    return best


def _gini(y):
    p = y.mean()
    return len(y) * 2 * p * (1 - p)


def _entropy(y):
    n = len(y)
    c1 = y.sum()
    total = 0.0
    for c in (c1, n - c1):
        if c > 0:
            total -= c * np.log(c / n)
    return total


class TestTreeGrowth:
    @pytest.mark.parametrize("mode,impurity", [("gini", _gini), ("entropy", _entropy)])
    def test_depth_one_split_matches_bruteforce(self, mode, impurity):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(10, 40))
            X = rng.integers(0, 6, size=(n, 3)).astype(float)
            y = rng.integers(0, 2, size=n).astype(float)
            if len(np.unique(y)) < 2:
                continue
            codes = exact_codes(X)
            tree, _ = grow_tree(codes, codes.flat, (y,), mode=mode, max_depth=1, min_leaf=1)
            oracle = _bruteforce_split(X, y, impurity)
            if tree.feature[0] == -1:
                parent = impurity(y)
                assert oracle is None or oracle[0] >= parent - 1e-9
            else:
                chosen = impurity(y[X[:, tree.feature[0]] <= tree.threshold[0]]) + impurity(
                    y[X[:, tree.feature[0]] > tree.threshold[0]]
                )
                assert chosen == pytest.approx(oracle[0], abs=1e-9)

    def test_leaf_of_row_matches_descent(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(50, 4))
        y = rng.integers(0, 2, 50).astype(float)
        codes = exact_codes(X)
        tree, leaf_of_row = grow_tree(codes, codes.flat, (y,), mode="gini", max_depth=4, min_leaf=2)
        assert np.array_equal(predict_leaf_matrix([tree], X)[:, 0], leaf_of_row)

    def test_min_leaf_respected(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(60, 3))
        y = (X[:, 0] > 0).astype(float)
        codes = exact_codes(X)
        tree, _ = grow_tree(codes, codes.flat, (y,), mode="gini", max_depth=10, min_leaf=7)
        _, leaf_sizes = np.unique(_leaf_ids(tree, X), return_counts=True)
        assert leaf_sizes.min() >= 7

    def test_quantile_codes_bounded(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(500, 2))
        codes = quantile_codes(X, 32)
        assert codes.nbuckets.max() <= 32
        assert all(b < X[:, f].max() for f in range(2) for b in [codes.cut_threshold[codes.cut_feature == f].max()])

    def test_predict_matches_sequential_walk(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 3))
        y = rng.integers(0, 2, 40).astype(float)
        codes = exact_codes(X)
        trees = []
        for d in (1, 3, 6):
            t, _ = grow_tree(codes, codes.flat, (y,), mode="gini", max_depth=d, min_leaf=1)
            trees.append(t)
        got = predict_leaf_matrix(trees, X)
        for ti, t in enumerate(trees):
            for i in range(len(X)):
                node = 0
                while t.feature[node] >= 0:
                    node = t.left[node] if X[i, t.feature[node]] <= t.threshold[node] else t.right[node]
                assert got[i, ti] == t.value[node]


# (mode, forest, random_cuts, oblivious) of each tree configuration a preset reaches;
# forests sample sqrt(F) features per node and bootstrap unless they cut at random
TREE_CONFIGS = {
    "rf-gini": ("gini", True, False, False),
    "rf-entropy": ("entropy", True, False, False),
    "xt-gini": ("gini", True, True, False),
    "xt-entropy": ("entropy", True, True, False),
    "gbt-default": ("sse", False, False, False),
    "gbt-xt": ("sse", False, True, False),
    "gbt-newton": ("newton", False, False, False),
    "gbt-ordered": ("newton", False, False, True),
}
# (max_depth, min_leaf): the preset default, then values from the tuning grid
FOREST_SETTINGS = ((10_000, 1), (8, 2), (12, 4))
GBT_SETTINGS = ((6, 5), (4, 20), (10, 10))
# sha256 of every grown tree document, its leaf_of_row and the generator's next draw
PINNED_TREE_DIGESTS = {
    "gbt-default": "6f72c5a8fc7ea6f6dc733e1e05af41618dc69b3753f54f66c14506e8ad6944f7",
    "gbt-newton": "f18ca37de8ee8447dc343f6ecaea8e7fef929c41bd5522a3bcffffce615b30e0",
    "gbt-ordered": "55b7a7588853eaf24868ad24a040221f8d63b382010c77e74823517369344941",
    "gbt-xt": "d1c0e31893e346868298683b81d0ff2f01dd6c2adc728e8c4c6c4acfc217f9d7",
    "rf-entropy": "e48f0bedb597966536c6849af1092d30398653b5dcf2e9e1b7e106e7d807a347",
    "rf-gini": "8557f88ea5a60706c321d5d2f8cdfe59e28e53e8319f77b4dea9b787f9bf3dfc",
    "xt-entropy": "cd791ea0c8d685e20e6149335ba841431ec878b7ec4f950b0f148e7f9b82b734",
    "xt-gini": "88b732d512f0d606a05ba94cc47543ab3b5e9669dd0a8e45a58eef94ea2b1e78",
}


@pytest.mark.parametrize("name", sorted(TREE_CONFIGS))
def test_tree_growth_matches_pinned_digest(name):
    mode, forest, random_cuts, oblivious = TREE_CONFIGS[name]
    data = np.random.default_rng(2024)
    n = 200  # at 160 rows xt-gini and xt-entropy grow the same trees
    X = np.column_stack(
        [data.normal(size=n), data.normal(size=n), data.integers(0, 6, n), data.integers(0, 2, (n, 2))]
    ).astype(float)
    y = ((X[:, 0] + 0.5 * X[:, 2] + data.normal(size=n)) > 1.0).astype(float)
    p = 0.2 + 0.6 * data.random(n)
    codes = exact_codes(X) if forest else quantile_codes(X, 32)
    rng = np.random.default_rng(5)
    grown = []
    for max_depth, min_leaf in FOREST_SETTINGS if forest else GBT_SETTINGS:
        for _ in range(2):
            rows = rng.integers(0, n, size=n) if forest and not random_cuts else np.arange(n)
            if forest:
                channels = (y[rows],)
            else:
                channels = (y - p, p * (1.0 - p)) if mode == "newton" else (y - p,)
            tree, leaf_of_row = grow_tree(
                codes, codes.flat[rows], channels, mode=mode, max_depth=max_depth, min_leaf=min_leaf,
                rng=rng, n_sample_features=sqrt_feature_count(X.shape[1]) if forest else None,
                random_cuts=random_cuts, oblivious=oblivious,
            )
            grown.append([_plain([tree]), leaf_of_row.tolist()])
    grown.append(rng.random())
    assert hashlib.sha256(json.dumps(grown).encode()).hexdigest() == PINNED_TREE_DIGESTS[name]


def _leaf_ids(t, X):
    out = np.zeros(len(X), dtype=int)
    for i in range(len(X)):
        node = 0
        while t.feature[node] >= 0:
            node = t.left[node] if X[i, t.feature[node]] <= t.threshold[node] else t.right[node]
        out[i] = node
    return out


# -- forests -----------------------------------------------------------------


class TestForest:
    def test_separable_toy_training_accuracy(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(100, 2))
        y = (X[:, 0] > 0.5).astype(np.int64)
        model = fit_forest(
            X, y, {"criterion": "gini", "n_trees": 50, "max_depth": 0, "min_leaf": 1}, (0, 1)
        )
        acc = np.mean((forest_proba(model, X) >= 0.5) == (y == 1))
        assert acc >= 0.99

    def test_probabilities_bounded_and_deterministic(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(80, 5))
        y = rng.integers(0, 2, 80)
        params = {"criterion": "entropy", "n_trees": 30, "max_depth": 0, "min_leaf": 1}
        p1 = forest_proba(fit_forest(X, y, params, (7, 1)), X)
        p2 = forest_proba(fit_forest(X, y, params, (7, 1)), X)
        p3 = forest_proba(fit_forest(X, y, params, (8, 1)), X)
        assert np.array_equal(p1, p2)
        assert not np.array_equal(p1, p3)
        assert p1.min() >= 0.0 and p1.max() <= 1.0

    def test_unanimous_vote_gives_probability_one(self):
        X = np.column_stack([np.r_[np.zeros(10), np.ones(10)], np.arange(20.0)])
        y = np.r_[np.zeros(10, int), np.ones(10, int)]
        model = fit_forest(
            X, y, {"criterion": "gini", "n_trees": 25, "max_depth": 0, "min_leaf": 1}, (0, 2)
        )
        p = forest_proba(model, np.array([[1.0, 25.0]]))
        assert p[0] == 1.0

    def test_rescale_invariance(self):
        rng = np.random.default_rng(9)
        Xtr = rng.normal(size=(70, 4))
        ytr = (Xtr[:, 0] + rng.normal(0, 0.5, 70) > 0).astype(np.int64)
        Xte = rng.normal(size=(25, 4))
        for params in (
            {"criterion": "gini", "n_trees": 15, "max_depth": 0, "min_leaf": 1},
            {"criterion": "entropy", "n_trees": 15, "max_depth": 0, "min_leaf": 1,
             "bootstrap": False, "random_cuts": True},
        ):
            base = forest_proba(fit_forest(Xtr, ytr, params, (3, 1)), Xte)
            for c in (4.0, 1024.0, 0.25):
                Xs, Xes = Xtr.copy(), Xte.copy()
                Xs[:, 2] *= c
                Xes[:, 2] *= c
                scaled = forest_proba(fit_forest(Xs, ytr, params, (3, 1)), Xes)
                assert np.array_equal(base, scaled)

    def test_sqrt_feature_count(self):
        assert sqrt_feature_count(11) == 3
        assert sqrt_feature_count(41) == 6
        assert sqrt_feature_count(1) == 1


# -- boosting ----------------------------------------------------------------


class TestBoosting:
    def _data(self, n=200, seed=2):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 5))
        y = ((X[:, 0] + 0.5 * X[:, 1] + rng.normal(0, 0.7, n)) > 0).astype(np.int64)
        return X, y

    def test_loss_trace_non_increasing(self):
        X, y = self._data()
        for params in (
            {"n_trees": 60, "max_depth": 4, "learning_rate": 0.1},
            {"n_trees": 60, "max_depth": 4, "learning_rate": 0.1, "order": "newton"},
            {"n_trees": 60, "max_depth": 4, "learning_rate": 0.1, "random_cuts": True},
        ):
            model = fit_gbt(X, y, params, (0, 5))
            trace = np.asarray(model.loss_trace)
            assert len(trace) == 61
            assert np.all(np.diff(trace) <= 0.0)

    def test_zero_trees_predicts_prevalence(self):
        X, y = self._data(50)
        model = fit_gbt(X, y, {"n_trees": 0, "max_depth": 4, "learning_rate": 0.1}, (0, 5))
        p = gbt_proba(model, X)
        assert np.all(np.abs(p - y.mean()) < 1e-12)

    def test_single_class_rejected(self):
        X = np.random.default_rng(0).normal(size=(20, 3))
        with pytest.raises(LearnerError):
            fit_gbt(X, np.ones(20, dtype=np.int64), {"n_trees": 5, "max_depth": 3, "learning_rate": 0.1}, (0, 5))

    def test_ordered_stats_cover_categorical_columns_only(self):
        rng = np.random.default_rng(4)
        X = np.column_stack([rng.normal(size=100), rng.integers(0, 3, 100).astype(float)])
        y = rng.integers(0, 2, 100)
        model = fit_gbt(
            X, y,
            {"n_trees": 20, "max_depth": 3, "learning_rate": 0.1, "order": "newton",
             "oblivious": True, "ordered_stats": True},
            (0, 6),
            categorical=np.array([False, True]),
            cardinalities=(0, 3),
        )
        assert set(model.ts_tables) == {1}
        assert len(model.ts_tables[1]) == 3
        assert np.all(np.diff(model.loss_trace) <= 0.0)

    def test_rescale_invariance(self):
        X, y = self._data(80)
        Xte = np.random.default_rng(11).normal(size=(30, 5))
        for params in (
            {"n_trees": 25, "max_depth": 4, "learning_rate": 0.1},
            {"n_trees": 25, "max_depth": 4, "learning_rate": 0.1, "order": "newton"},
        ):
            base = gbt_proba(fit_gbt(X, y, params, (0, 7)), Xte)
            Xs, Xes = X.copy(), Xte.copy()
            Xs[:, 3] *= 1024.0
            Xes[:, 3] *= 1024.0
            scaled = gbt_proba(fit_gbt(Xs, y, params, (0, 7)), Xes)
            assert np.array_equal(base, scaled)

    def test_raw_scores_compose_base_and_shrinkage(self):
        X, y = self._data(60)
        model = fit_gbt(X, y, {"n_trees": 10, "max_depth": 3, "learning_rate": 0.1}, (0, 8))
        expected = model.base_score + model.learning_rate * predict_leaf_matrix(model.trees, X).sum(axis=1)
        assert np.array_equal(gbt_proba(model, X), sigmoid(expected))

    def test_logistic_loss_matches_direct_formula(self):
        raw = np.array([-2.0, 0.0, 3.0])
        y = np.array([0.0, 1.0, 1.0])
        direct = np.mean(np.log1p(np.exp(-np.abs(raw))) + np.maximum(raw, 0) - y * raw)
        assert logistic_loss(raw, y) == pytest.approx(direct, abs=1e-15)


# -- knn ---------------------------------------------------------------------


class TestKnn:
    def test_five_neighbor_vote(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0], [4.0], [10.0]])
        y = np.array([1, 1, 0, 0, 0, 1], dtype=np.int64)
        model = fit_knn(X, y, {"k": 5, "weighted": False})
        assert knn_proba(model, np.array([[0.0]]))[0] == 0.4

    def test_boundary_ties_split_fractionally(self):
        model = fit_knn(np.array([[1.0], [-1.0]]), np.array([1, 0]), {"k": 1})
        assert knn_proba(model, np.array([[0.0]]))[0] == 0.5

    def test_exact_match_dominates_distance_weighting(self):
        X = np.array([[0.0], [0.0], [2.0]])
        y = np.array([1, 0, 0], dtype=np.int64)
        model = fit_knn(X, y, {"k": 2, "weighted": True})
        assert knn_proba(model, np.array([[0.0]]))[0] == 0.5

    def test_distance_weighting_favors_closer(self):
        X = np.array([[1.0], [4.0]])
        y = np.array([1, 0], dtype=np.int64)
        model = fit_knn(X, y, {"k": 2, "weighted": True})
        p = knn_proba(model, np.array([[0.0]]))[0]
        assert p == pytest.approx((1 / 1) / (1 / 1 + 1 / 4), abs=1e-15)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(40, 4))
        X[5] = X[17]
        y = rng.integers(0, 2, 40)
        Q = rng.normal(size=(15, 4))
        Q[3] = X[5]
        for weighted in (False, True):
            base = knn_proba(fit_knn(X, y, {"k": 5, "weighted": weighted}), Q)
            for _ in range(3):
                perm = rng.permutation(40)
                p = knn_proba(fit_knn(X[perm], y[perm], {"k": 5, "weighted": weighted}), Q)
                assert np.array_equal(base, p)

    def test_k_clamped_to_training_size(self):
        model = fit_knn(np.array([[0.0], [1.0]]), np.array([1, 0]), {"k": 10})
        assert knn_proba(model, np.array([[0.5]]))[0] == 0.5

    def test_invalid_k_rejected(self):
        with pytest.raises(LearnerError):
            fit_knn(np.zeros((3, 1)), np.array([0, 1, 0]), {"k": 0})


# -- mlp ---------------------------------------------------------------------


class TestMlp:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(12, 5))
        y = rng.integers(0, 2, 12).astype(float)
        weights, biases = init_params(5, (8, 4), rng)
        _, gw, gb = mlp_loss_gradient(weights, biases, X, y)
        eps = 1e-5
        for target, grads in ((weights, gw), (biases, gb)):
            for arr, g in zip(target, grads):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in range(min(arr.size, 6)):
                    idx = it.multi_index
                    old = arr[idx]
                    arr[idx] = old + eps
                    lp, _, _ = mlp_loss_gradient(weights, biases, X, y)
                    arr[idx] = old - eps
                    lm, _, _ = mlp_loss_gradient(weights, biases, X, y)
                    arr[idx] = old
                    num = (lp - lm) / (2 * eps)
                    assert abs(num - g[idx]) <= 1e-4 * abs(num) + 1e-6
                    it.iternext()

    def test_zero_network_balanced_batch_output_bias_gradient(self):
        X = np.random.default_rng(1).normal(size=(8, 3))
        y = np.array([0, 1, 0, 1, 0, 1, 0, 1], dtype=float)
        weights, biases = init_params(3, (4,), np.random.default_rng(2))
        weights = [np.zeros_like(w) for w in weights]
        _, _, gb = mlp_loss_gradient(weights, biases, X, y)
        assert gb[-1][0] == 0.0

    def test_confident_wrong_prediction_has_larger_gradient(self):
        rng = np.random.default_rng(5)
        weights, biases = init_params(3, (4,), rng)
        x = rng.normal(size=(1, 3))
        acts_w = [w.copy() for w in weights]
        # scale the output layer so the prediction is confident
        acts_w[-1] *= 50.0
        from autotab.learners.mlp import _forward

        out = _forward(acts_w, biases, x)[0][-1].ravel()[0]
        y_conf = 1.0 if out > 0 else 0.0
        _, g_match, _ = mlp_loss_gradient(acts_w, biases, x, np.array([y_conf]))
        _, g_miss, _ = mlp_loss_gradient(acts_w, biases, x, np.array([1.0 - y_conf]))
        norm = lambda gs: np.sqrt(sum((g**2).sum() for g in gs))
        assert norm(g_match) < norm(g_miss)

    def test_training_reduces_loss_and_is_deterministic(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(60, 4))
        y = ((X[:, 0] - X[:, 1]) > 0).astype(np.int64)
        params = {"hidden": (16,), "learning_rate": 1e-3, "epochs": 40, "batch_size": 16}
        m1 = fit_mlp(X, y, params, (0, 3))
        m2 = fit_mlp(X, y, params, (0, 3))
        p1, p2 = mlp_proba(m1, X), mlp_proba(m2, X)
        assert np.array_equal(p1, p2)
        final, _, _ = mlp_loss_gradient(m1.weights, m1.biases, X, y.astype(float))
        w0, b0 = init_params(4, (16,), np.random.default_rng(np.random.SeedSequence((0, 3))))
        initial, _, _ = mlp_loss_gradient(w0, b0, X, y.astype(float))
        assert final < initial
        assert p1.min() >= 0.0 and p1.max() <= 1.0


# power-of-two factors multiply without rounding, so the order of any column
# is preserved exactly and predictions must not change at all
@settings(max_examples=20, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([2.0**-20, 0.25, 0.5, 2.0, 4.0, 1024.0, 2.0**20]),
)
def test_tree_predictions_invariant_to_power_of_two_rescaling(data_seed, factor):
    rng = np.random.default_rng(data_seed)
    Xtr = rng.normal(size=(40, 3))
    ytr = (Xtr[:, 0] + rng.normal(0, 0.5, 40) > 0).astype(np.int64)
    if ytr.min() == ytr.max():
        ytr[0] = 1 - ytr[0]
    Xte = rng.normal(size=(12, 3))
    Xtr_s, Xte_s = Xtr.copy(), Xte.copy()
    Xtr_s[:, 1] *= factor
    Xte_s[:, 1] *= factor

    fparams = {"criterion": "gini", "n_trees": 8, "max_depth": 0, "min_leaf": 1,
               "bootstrap": False, "random_cuts": True}
    assert np.array_equal(
        forest_proba(fit_forest(Xtr, ytr, fparams, (1, 1)), Xte),
        forest_proba(fit_forest(Xtr_s, ytr, fparams, (1, 1)), Xte_s),
    )
    gparams = {"n_trees": 8, "max_depth": 3, "learning_rate": 0.1}
    assert np.array_equal(
        gbt_proba(fit_gbt(Xtr, ytr, gparams, (1, 2)), Xte),
        gbt_proba(fit_gbt(Xtr_s, ytr, gparams, (1, 2)), Xte_s),
    )


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 7), st.booleans())
def test_knn_invariant_to_training_order(data_seed, k, weighted):
    rng = np.random.default_rng(data_seed)
    X = rng.normal(size=(18, 3))
    X[4] = X[11]  # force a duplicate so distance ties occur
    y = rng.integers(0, 2, 18)
    Q = np.vstack([rng.normal(size=(5, 3)), X[4][None, :]])
    base = knn_proba(fit_knn(X, y, {"k": k, "weighted": weighted}), Q)
    perm = rng.permutation(18)
    shuffled = knn_proba(fit_knn(X[perm], y[perm], {"k": k, "weighted": weighted}), Q)
    assert np.array_equal(base, shuffled)


# -- registry and dataset-level dispatch --------------------------------------


class TestRegistry:
    def test_thirteen_unique_presets(self):
        presets = registry_presets()
        assert len(presets) == 13
        assert len({p.preset_id for p in presets}) == 13
        assert sum(1 for p in presets if p.family == "knn") == 2

    def test_every_preset_trains_on_small_synthetic_data(self):
        ds = toy_dataset(50, seed=9)
        for spec in registry_presets():
            model = train(spec.with_seed(1), ds)
            p = predict_proba(model, ds)
            assert p.shape == (50,)
            assert p.min() >= 0.0 and p.max() <= 1.0

    def test_applicability_rules(self):
        binary_only = [
            ColumnSchema("a", ColumnKind.BINARY, ("0", "1")),
            ColumnSchema("b", ColumnKind.BINARY, ("0", "1")),
        ]
        with_continuous = [ColumnSchema("z", ColumnKind.CONTINUOUS)]
        assert not model_applicable(preset_by_id("knn-uniform"), binary_only)
        assert model_applicable(preset_by_id("knn-uniform"), with_continuous)
        assert model_applicable(preset_by_id("gbt-default"), binary_only)

    def test_unknown_preset_rejected(self):
        with pytest.raises(LearnerError):
            preset_by_id("gbt-mystery")

    def test_knn_distance_k1_memorizes_training_set(self):
        ds = toy_dataset(60, seed=3)
        # keep rows whose feature tuples are unique so labels cannot conflict
        keys = {}
        for i in range(ds.row_count):
            key = tuple(ds.column(c.name)[i] for c in ds.feature_schema)
            keys.setdefault(key, []).append(i)
        rows = [idxs[0] for idxs in keys.values()]
        ds = ds.take(rows)
        spec = preset_by_id("knn-distance").with_hyperparameters({"k": 1, "weighted": True})
        model = train(spec, ds)
        p = predict_proba(model, ds)
        assert np.array_equal((p >= 0.5).astype(np.int64), ds.target())

    def test_fingerprint_mismatch_rejected(self):
        ds = toy_dataset(30)
        model = train(preset_by_id("gbt-default").with_seed(0), ds)
        other = continuous_dataset(np.random.default_rng(0).normal(size=(5, 2)), [0, 1, 0, 1, 0])
        with pytest.raises(LearnerError):
            predict_proba(model, other)
        assert model.fingerprint == schema_fingerprint(ds.schema)

    def test_single_class_training_rejected(self):
        X = np.random.default_rng(0).normal(size=(12, 2))
        ds = continuous_dataset(X, np.ones(12, dtype=int))
        with pytest.raises(LearnerError):
            train(preset_by_id("rf-gini"), ds)

    def test_train_is_deterministic(self):
        ds = toy_dataset(60, seed=5)
        for pid in ("rf-gini", "gbt-ordered", "mlp-a"):
            spec = preset_by_id(pid).with_seed(4)
            p1 = predict_proba(train(spec, ds), ds)
            p2 = predict_proba(train(spec, ds), ds)
            assert np.array_equal(p1, p2)


class TestTuning:
    def test_zero_budget_keeps_spec(self):
        ds = toy_dataset(50)
        spec = preset_by_id("knn-uniform").with_seed(0)
        assert tune_preset(spec, ds, 0) is spec

    def test_candidates_start_with_defaults_and_stay_unique(self):
        spec = preset_by_id("gbt-default").with_seed(0)
        rng = np.random.default_rng(0)
        cands = candidate_hyperparameters(spec, 8, rng)
        assert cands[0] == dict(spec.hyperparameters)
        fps = [tuple(sorted(c.items())) for c in cands]
        assert len(set(fps)) == len(fps)
        for c in cands[1:]:
            for key, options in FAMILY_GRIDS["gbt"].items():
                assert c[key] in options

    def test_tuning_is_deterministic_and_draws_from_grid(self):
        ds = toy_dataset(80, seed=8)
        spec = preset_by_id("knn-uniform").with_seed(2)
        t1 = tune_preset(spec, ds, 4)
        t2 = tune_preset(spec, ds, 4)
        assert t1.hyperparameters == t2.hyperparameters
        assert t1.hyperparameters["k"] in FAMILY_GRIDS["knn"]["k"]
