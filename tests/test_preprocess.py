"""Cleaning rules, binning, one-hot, z-score, and the scenario pipelines."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autotab import data as D
from autotab import preprocess as P
from autotab.datagen import synthetic_heart
from conftest import same_data


def heart_rows(n=40, seed=3):
    return synthetic_heart(n, seed)


# -- deduplicate ---------------------------------------------------------------


def dup_dataset():
    ds = heart_rows(4)
    # rows [A, B, A, A]
    return D.concat([ds.take([0, 1, 0, 0])])


def test_deduplicate_keeps_first_occurrence():
    ds = dup_dataset()
    out, report = P.deduplicate(ds)
    assert out.row_count == 2
    assert report.duplicates_removed == 2
    assert report.rows_before == 4 and report.rows_after == 2
    base = heart_rows(4)
    assert same_data(out, base.take([0, 1]))


def test_deduplicate_identity_and_idempotent():
    ds = heart_rows(30)
    out, report = P.deduplicate(ds)
    assert report.duplicates_removed == 0
    assert same_data(out, ds)
    twice, report2 = P.deduplicate(out)
    assert same_data(twice, out) and report2.duplicates_removed == 0


def test_deduplicate_distinguishes_missing_from_placeholder():
    ds = heart_rows(1)
    masked = D.TabularDataset(
        ds.schema,
        {name: np.concatenate([arr, arr]) for name, arr in ds.columns.items()},
        missing={"Oldpeak": np.array([False, True])},
    )
    # same stored bytes in row 2 except the mask, so not a duplicate
    out, report = P.deduplicate(masked)
    assert report.duplicates_removed == 0 if ds.column("Oldpeak")[0] != 0.0 else True
    # and a genuinely identical masked pair is a duplicate
    both = D.TabularDataset(
        ds.schema,
        {name: np.concatenate([arr, arr]) for name, arr in ds.columns.items()},
        missing={"Oldpeak": np.array([True, True])},
    )
    _, report2 = P.deduplicate(both)
    assert report2.duplicates_removed == 1


# -- invalid zeros and outliers ---------------------------------------------------


def with_values(ds, column, values):
    cols = {name: arr.copy() for name, arr in ds.columns.items()}
    cols[column][: len(values)] = values
    return D.TabularDataset(ds.schema, cols, dict(ds.missing))


def test_cleaning_identity_when_tidy():
    ds = heart_rows(60)
    out, report = P.remove_invalid_and_outliers(ds)
    assert same_data(out, ds)
    removed = (
        report.duplicates_removed
        + sum(report.invalid_rows_removed.values())
        + sum(report.outlier_rows_removed.values())
    )
    assert removed == 0


def test_cleaning_zero_rows_and_attribution():
    ds = heart_rows(50, seed=9)
    ds = with_values(ds, "RestingBP", [0.0])
    ds = with_values(ds, "Cholesterol", [0.0, 0.0, 0.0])  # row 0 has both zeros
    out, report = P.remove_invalid_and_outliers(ds)
    # the doubly-invalid row counts under the RestingBP rule only
    assert report.invalid_rows_removed == {"RestingBP=0": 1, "Cholesterol=0": 2}
    assert out.row_count == 47
    assert report.rows_after == 47


def test_cleaning_iqr_outliers():
    ds = heart_rows(80, seed=11)
    spiked = with_values(ds, "Cholesterol", [2000.0])
    out, report = P.remove_invalid_and_outliers(spiked)
    assert report.outlier_rows_removed["Cholesterol"] >= 1
    assert 2000.0 not in out.column("Cholesterol")
    removed = (
        report.duplicates_removed
        + sum(report.invalid_rows_removed.values())
        + sum(report.outlier_rows_removed.values())
    )
    assert out.row_count == 80 - removed


def test_cleaning_never_removes_infence_rows():
    ds = heart_rows(100, seed=13)
    spiked = with_values(ds, "RestingBP", [0.0, 400.0])
    out, _ = P.remove_invalid_and_outliers(spiked)
    rbp, chol = out.column("RestingBP"), out.column("Cholesterol")
    assert np.all(rbp > 0) and np.all(chol > 0)
    # every survivor sits inside the fences recomputed from survivors alone
    for col in (rbp, chol):
        q1, q3 = np.percentile(col, [25, 75])
        assert col.min() >= q1 - 1.5 * (q3 - q1) - 1e-9
        assert col.max() <= q3 + 1.5 * (q3 - q1) + 1e-9


def test_cleaning_report_arithmetic():
    ds = heart_rows(90, seed=17)
    ds = with_values(ds, "Cholesterol", [0.0, 9999.0])
    out, report = P.remove_invalid_and_outliers(ds)
    removed = (
        report.duplicates_removed
        + sum(report.invalid_rows_removed.values())
        + sum(report.outlier_rows_removed.values())
    )
    assert report.rows_after == report.rows_before - removed
    assert out.row_count == report.rows_after


# -- binning ----------------------------------------------------------------------


def continuous_column(values):
    n = len(values)
    ds = heart_rows(n, seed=23)
    return with_values(ds, "Oldpeak", values)


def test_fit_binning_equal_width():
    ds = continuous_column([0.0, 10.0, 3.0, 7.0])
    spec = P.fit_binning(ds, "Oldpeak")
    assert spec.edges == (0.0, 2.0, 4.0, 6.0, 8.0, 10.0)


def test_fit_binning_age_width():
    ds = heart_rows(120, seed=29)
    cols = {name: arr.copy() for name, arr in ds.columns.items()}
    cols["Age"][0], cols["Age"][1] = 28.0, 77.0
    ds = D.TabularDataset(ds.schema, cols)
    spec = P.fit_binning(ds, "Age")
    widths = np.diff(spec.edges)
    assert np.allclose(widths, 9.8, rtol=1e-12)
    assert spec.edges[0] == 28.0 and spec.edges[-1] == 77.0


def test_fit_binning_errors():
    ds = continuous_column([5.0] * 4)
    with pytest.raises(P.PreprocessError, match="constant"):
        P.fit_binning(ds, "Oldpeak")
    with pytest.raises(P.PreprocessError):
        P.fit_binning(heart_rows(5), "Sex")


def test_apply_binning_boundaries_and_clipping():
    train = continuous_column([0.0, 10.0])
    spec = P.fit_binning(train, "Oldpeak")
    probe = continuous_column([0.0, 10.0, 5.0, 2.0, -3.0, 42.0, 3.999999])
    binned = P.apply_binning(probe, spec)
    col = binned.column("Oldpeak")
    assert col[0] == 0  # lower edge
    assert col[1] == 4  # upper edge closes the last bin
    assert col[2] == 2  # interior
    assert col[3] == 1  # left-closed at an interior edge
    assert col[4] == 0 and col[5] == 4  # clipping
    assert col[6] == 1
    assert binned.column_schema("Oldpeak").categories == ("bin0", "bin1", "bin2", "bin3", "bin4")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-50, 50, allow_nan=False), min_size=2, max_size=30))
def test_apply_binning_monotone(values):
    values = sorted(values)
    if values[0] == values[-1]:
        values[-1] += 1.0
    train = continuous_column(values + [0.0] * 0)
    spec = P.fit_binning(train, "Oldpeak")
    grid = np.linspace(values[0] - 5, values[-1] + 5, 1000)
    binned = P.apply_binning(continuous_column(list(grid)), spec).column("Oldpeak")
    assert np.all(np.diff(binned) >= 0)
    assert binned.min() >= 0 and binned.max() <= 4


# -- one-hot -----------------------------------------------------------------------


def test_build_encoding_over_heart_after_binning():
    schema = tuple(
        D.ColumnSchema(c.name, D.ColumnKind.CATEGORICAL, P.bin_tokens(5))
        if c.kind == D.ColumnKind.CONTINUOUS
        else c
        for c in D.heart_schema()
    )
    enc = P.build_encoding(schema)
    derived = [name for cols in enc.values() for name in cols]
    assert len(derived) == 41  # 5*5 + 4 + 3 + 3 + 2 + 2 + 2
    assert len(set(derived)) == 41
    assert "Age=bin0" in derived and "ST_Slope=Down" in derived


def test_one_hot_values_and_block_sums():
    ds = heart_rows(25, seed=31)
    spec = P.fit_binning(ds, "Age")
    binned = ds
    for name in ds.continuous_names():
        binned = P.apply_binning(binned, P.fit_binning(ds, name))
    enc = P.build_encoding(binned.schema)
    encoded = P.one_hot(binned, enc)
    feature_names = [c.name for c in encoded.feature_schema]
    assert len(feature_names) == 41
    assert all(c.kind == D.ColumnKind.BINARY for c in encoded.feature_schema)
    for source, derived in enc.items():
        block = np.column_stack([encoded.column(d) for d in derived])
        assert np.all(block.sum(axis=1) == 1)
    # row semantics: indicator matches the source category
    assert np.array_equal(encoded.column("Sex=M"), (ds.column("Sex") == 0).astype(int))
    assert np.array_equal(encoded.target(), ds.target())


def test_one_hot_binary_orientation():
    ds = heart_rows(10, seed=37)
    binned = ds
    for name in ds.continuous_names():
        binned = P.apply_binning(binned, P.fit_binning(ds, name))
    encoded = P.one_hot(binned, P.build_encoding(binned.schema))
    # ExerciseAngina categories are (Y, N): a Y row encodes as (1, 0)
    src = ds.column("ExerciseAngina")
    assert np.array_equal(encoded.column("ExerciseAngina=Y"), (src == 0).astype(int))
    assert np.array_equal(encoded.column("ExerciseAngina=N"), (src == 1).astype(int))


def test_one_hot_requires_encoding_for_every_column():
    ds = heart_rows(10)
    with pytest.raises(P.PreprocessError):
        P.one_hot(ds, {"Sex": ("Sex=M", "Sex=F")})


def test_one_hot_rejects_colliding_derived_names():
    ds = heart_rows(10)
    binned = ds
    for name in ds.continuous_names():
        binned = P.apply_binning(binned, P.fit_binning(ds, name))
    enc = P.build_encoding(binned.schema)
    enc["FastingBS"] = enc["Sex"]
    with pytest.raises(P.PreprocessError, match="collide"):
        P.one_hot(binned, enc)


# -- z-score ------------------------------------------------------------------------


def test_zscore_train_statistics():
    ds = heart_rows(200, seed=41)
    stats = P.fit_zscore(ds)
    out = P.apply_zscore(ds, stats)
    for name in ds.continuous_names():
        col = out.column(name)
        assert abs(col.mean()) < 1e-9
        assert abs(col.std() - 1.0) < 1e-9
    # categoricals untouched
    assert np.array_equal(out.column("Sex"), ds.column("Sex"))


def test_zscore_frozen_value():
    train = continuous_column([1.0, 2.0, 3.0])
    stats = P.fit_zscore(train)
    mean, stdev = stats["Oldpeak"]
    assert mean == 2.0
    assert abs(stdev - 0.816496580927726) < 1e-15
    test = continuous_column([4.0, 2.0])
    out = P.apply_zscore(test, stats)
    assert abs(out.column("Oldpeak")[0] - 2.449489742783178) < 1e-12
    assert out.column("Oldpeak")[1] == 0.0  # x = mean


def test_zscore_zero_variance_errors():
    train = continuous_column([5.0, 5.0, 5.0])
    with pytest.raises(P.PreprocessError, match="zero variance"):
        P.fit_zscore(train)


# -- imputation ----------------------------------------------------------------------


def masked_heart(n=30, seed=43):
    ds = heart_rows(n, seed)
    masks = {
        "Age": np.zeros(n, dtype=bool),
        "ST_Slope": np.zeros(n, dtype=bool),
    }
    masks["Age"][:3] = True
    masks["ST_Slope"][:2] = True
    return D.TabularDataset(ds.schema, dict(ds.columns), masks), ds


def test_imputation_median_and_mode():
    ds, raw = masked_heart()
    fills = P.fit_imputation(ds)
    observed_age = raw.column("Age")[3:]
    assert fills["Age"] == float(np.median(observed_age))
    slope_counts = np.bincount(raw.column("ST_Slope")[2:], minlength=3)
    assert fills["ST_Slope"] == ("Up", "Flat", "Down")[int(np.argmax(slope_counts))]
    filled = P.apply_imputation(ds, fills)
    assert not filled.has_missing()
    assert np.all(filled.column("Age")[:3] == fills["Age"])


def test_imputation_noop_without_missing():
    ds = heart_rows(10)
    filled = P.apply_imputation(ds, {})
    assert same_data(filled, ds)


# -- scenario pipelines ----------------------------------------------------------------


@pytest.fixture(scope="module")
def corpus():
    return synthetic_heart(400, seed=47)


def test_scenario_s1_shapes(corpus):
    train, test, art = P.scenario_preprocess(corpus, P.ScenarioId.S1, seed=0)
    assert train.schema == corpus.schema
    assert train.row_count + test.row_count == art.cleaning.rows_after
    assert art.imputation is not None and art.binnings is None and art.norm is None
    assert not train.has_missing() and not test.has_missing()


def test_scenario_s2_shapes(corpus):
    train, test, art = P.scenario_preprocess(corpus, P.ScenarioId.S2, seed=0)
    assert len(train.feature_schema) == 41
    assert all(c.kind == D.ColumnKind.BINARY for c in train.feature_schema)
    assert train.schema == test.schema
    assert art.binnings is not None and len(art.binnings) == 5
    assert art.encoding is not None and art.norm is None and art.imputation is None


def test_scenario_s3_shapes(corpus):
    train, test, art = P.scenario_preprocess(corpus, P.ScenarioId.S3, seed=0)
    assert train.schema == corpus.schema
    assert art.norm is not None and set(art.norm) == set(corpus.continuous_names())
    for name in corpus.continuous_names():
        col = train.column(name)
        assert abs(col.mean()) < 1e-9 and abs(col.std() - 1.0) < 1e-9
    # test columns standardized with train stats, so typically off-center
    assert test.column("Age").std() > 0


def test_scenario_determinism(corpus):
    for scen in P.ScenarioId:
        a_train, a_test, _ = P.scenario_preprocess(corpus, scen, seed=5)
        b_train, b_test, _ = P.scenario_preprocess(corpus, scen, seed=5)
        assert same_data(a_train, b_train) and same_data(a_test, b_test)
        c_train, _, _ = P.scenario_preprocess(corpus, scen, seed=6)
        assert not same_data(a_train, c_train)


def test_scenario_artifacts_fit_on_train_only(corpus):
    train_raw, test_raw, art = P.scenario_preprocess(corpus, P.ScenarioId.S3, seed=0)
    cleaned, _ = P.clean(corpus)
    split = D.split_train_test(cleaned, 0.8, 0)
    refit = P.fit_zscore(cleaned.take(split.train_rows))
    assert refit == art.norm
    test_fit = P.fit_zscore(cleaned.take(split.test_rows))
    assert test_fit != art.norm


def test_scenario_parse():
    assert P.ScenarioId.parse("S2") is P.ScenarioId.S2
    assert P.ScenarioId.parse(" s3 ") is P.ScenarioId.S3
    with pytest.raises(P.PreprocessError):
        P.ScenarioId.parse("s4")


def test_transform_with_artifacts_matches_pipeline(corpus):
    for scen in P.ScenarioId:
        train, test, art = P.scenario_preprocess(corpus, scen, seed=2)
        cleaned, _ = P.clean(corpus)
        split = D.split_train_test(cleaned, 0.8, 2)
        again = P.transform_with_artifacts(cleaned.take(split.test_rows), art)
        assert same_data(again, test)
