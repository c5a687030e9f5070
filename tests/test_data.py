"""Schema, CSV ingestion, and seeded splitting."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autotab import data as D
from conftest import same_data


def tiny_schema():
    return (
        D.ColumnSchema("x", D.ColumnKind.CONTINUOUS),
        D.ColumnSchema("color", D.ColumnKind.CATEGORICAL, ("red", "green", "blue")),
        D.ColumnSchema("flag", D.ColumnKind.BINARY, ("N", "Y")),
        D.ColumnSchema("y", D.ColumnKind.TARGET),
    )


def tiny_dataset(n=6):
    rng = np.random.default_rng(0)
    return D.TabularDataset(
        tiny_schema(),
        {
            "x": rng.random(n),
            "color": rng.integers(0, 3, n),
            "flag": rng.integers(0, 2, n),
            "y": rng.integers(0, 2, n),
        },
    )


# -- schema ------------------------------------------------------------------


def test_heart_schema_shape():
    schema = D.heart_schema()
    assert len(schema) == 12
    kinds = [c.kind for c in schema]
    assert kinds.count(D.ColumnKind.CONTINUOUS) == 5
    assert kinds.count(D.ColumnKind.TARGET) == 1
    assert schema[-1].name == "HeartDisease"
    names = [c.name for c in schema]
    assert names[0] == "Age" and "Oldpeak" in names and "ST_Slope" in names


def test_schema_validation():
    with pytest.raises(D.DataError):
        D.ColumnSchema("c", D.ColumnKind.CATEGORICAL)  # no categories
    with pytest.raises(D.DataError):
        D.ColumnSchema("c", D.ColumnKind.CATEGORICAL, ("a", "a"))
    with pytest.raises(D.DataError):
        D.ColumnSchema("x", D.ColumnKind.CONTINUOUS, ("a",))


def test_schema_fingerprint_sensitivity():
    base = D.schema_fingerprint(D.heart_schema())
    assert base == D.schema_fingerprint(D.heart_schema())
    assert len(base) == 64
    reordered = D.heart_schema()[::-1]
    assert D.schema_fingerprint(reordered) != base
    renamed = (D.ColumnSchema("Age2", D.ColumnKind.CONTINUOUS),) + D.heart_schema()[1:]
    assert D.schema_fingerprint(renamed) != base


# -- dataset container ---------------------------------------------------------


def test_dataset_validation():
    schema = tiny_schema()
    good = {"x": [1.0], "color": [0], "flag": [1], "y": [1]}
    with pytest.raises(D.DataError):
        D.TabularDataset(schema, {**good, "extra": [1]})
    with pytest.raises(D.DataError):
        D.TabularDataset(schema, {**good, "color": [3]})  # index out of range
    with pytest.raises(D.DataError):
        D.TabularDataset(schema, {**good, "y": [2]})
    with pytest.raises(D.DataError):
        D.TabularDataset(schema, {**good, "x": [float("nan")]})
    with pytest.raises(D.DataError):
        D.TabularDataset(schema, {**good, "x": [1.0, 2.0]})  # ragged
    with pytest.raises(D.DataError):
        D.TabularDataset(schema, good, missing={"y": np.array([True])})


def test_take_preserves_order_and_masks():
    ds = D.TabularDataset(
        tiny_schema(),
        {"x": [1.0, 2.0, 3.0], "color": [0, 1, 2], "flag": [0, 1, 0], "y": [0, 1, 0]},
        missing={"x": np.array([False, True, False])},
    )
    sub = ds.take([2, 0])
    assert sub.row_count == 2
    assert sub.column("x").tolist() == [3.0, 1.0]
    assert sub.column("color").tolist() == [2, 0]
    assert not sub.missing_mask("x").any()
    sub2 = ds.take([1, 1])
    assert sub2.missing_mask("x").tolist() == [True, True]


def test_columns_are_readonly():
    ds = tiny_dataset()
    with pytest.raises(ValueError):
        ds.column("x")[0] = 99.0


# -- csv i/o -------------------------------------------------------------------


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_load_csv_happy_path(tmp_path):
    f = tmp_path / "d.csv"
    write_lines(
        f,
        [
            "x,color,flag,y",
            "1.5,red,N,0",
            "2.25,blue,Y,1",
        ],
    )
    ds = D.load_csv(f, tiny_schema())
    assert ds.row_count == 2
    assert ds.column("x").tolist() == [1.5, 2.25]
    assert ds.column("color").tolist() == [0, 2]
    assert ds.column("flag").tolist() == [0, 1]
    assert ds.target().tolist() == [0, 1]
    assert not ds.has_missing()


def test_load_csv_header_any_order(tmp_path):
    f = tmp_path / "d.csv"
    write_lines(f, ["y,flag,color,x", "1,Y,green,0.5"])
    ds = D.load_csv(f, tiny_schema())
    assert ds.column("color").tolist() == [1]
    assert ds.target().tolist() == [1]


def test_load_csv_missing_cells_masked(tmp_path):
    f = tmp_path / "d.csv"
    write_lines(f, ["x,color,flag,y", ",red,N,0", "2.0,,Y,1"])
    ds = D.load_csv(f, tiny_schema())
    assert ds.missing_mask("x").tolist() == [True, False]
    assert ds.missing_mask("color").tolist() == [False, True]
    assert ds.has_missing()


@pytest.mark.parametrize(
    "row,expect",
    [
        ("oops,red,N,0", ("row 1", "column x")),
        ("1.0,mauve,N,0", ("row 1", "column color")),
        ("1.0,red,N,2", ("row 1", "column y")),
        ("1.0,red,N,", ("row 1", "column y")),
        ("inf,red,N,0", ("row 1", "column x")),
        ("1.0,red,N", ("row 1",)),
    ],
)
def test_load_csv_errors_name_row_and_column(tmp_path, row, expect):
    f = tmp_path / "d.csv"
    write_lines(f, ["x,color,flag,y", row])
    with pytest.raises(D.DataError) as exc:
        D.load_csv(f, tiny_schema())
    for fragment in expect:
        assert fragment in str(exc.value)


def test_load_csv_header_mismatch(tmp_path):
    f = tmp_path / "d.csv"
    write_lines(f, ["x,colour,flag,y", "1.0,red,N,0"])
    with pytest.raises(D.DataError, match="header"):
        D.load_csv(f, tiny_schema())


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(D.DataError, match="no such file"):
        D.load_csv(tmp_path / "absent.csv", tiny_schema())


def test_csv_round_trip_exact(tmp_path):
    ds = D.TabularDataset(
        tiny_schema(),
        {
            "x": [0.1, 2.0 / 3.0, 53.50911],
            "color": [0, 2, 1],
            "flag": [1, 0, 1],
            "y": [1, 0, 1],
        },
        missing={"x": np.array([False, False, True])},
    )
    f = tmp_path / "out.csv"
    D.write_csv(ds, f)
    back = D.load_csv(f, tiny_schema())
    assert same_data(back, ds)


# -- splitting -----------------------------------------------------------------


def balanced_dataset(n, n_pos, seed=0):
    rng = np.random.default_rng(seed)
    y = np.zeros(n, dtype=int)
    y[:n_pos] = 1
    return D.TabularDataset(
        tiny_schema(),
        {"x": rng.random(n), "color": rng.integers(0, 3, n), "flag": rng.integers(0, 2, n), "y": y},
    )


def test_split_sizes_round_half_up():
    # 714 rows at 0.8 -> 571.2 -> 571 train / 143 test
    ds = balanced_dataset(714, 340)
    sp = D.split_train_test(ds, 0.8, seed=0)
    assert len(sp.train_rows) == 571
    assert len(sp.test_rows) == 143
    # .5 fraction rounds up: 5 rows at 0.5 -> 2.5 -> 3
    sp2 = D.split_train_test(balanced_dataset(5, 2), 0.5, seed=0)
    assert len(sp2.train_rows) == 3


def test_split_is_partition():
    ds = balanced_dataset(101, 41)
    sp = D.split_train_test(ds, 0.8, seed=3)
    merged = sorted(sp.train_rows + sp.test_rows)
    assert merged == list(range(101))
    assert list(sp.train_rows) == sorted(sp.train_rows)


def test_split_stratified_class_counts():
    ds = balanced_dataset(100, 30)
    sp = D.split_train_test(ds, 0.8, seed=5)
    y = ds.target()
    train_pos = int(y[list(sp.train_rows)].sum())
    assert train_pos == 24  # 0.8 * 30 exactly
    assert len(sp.train_rows) == 80


def test_split_stratified_within_one_of_exact():
    ds = balanced_dataset(714, 397)
    sp = D.split_train_test(ds, 0.8, seed=11)
    y = ds.target()
    train_pos = int(y[list(sp.train_rows)].sum())
    assert abs(train_pos - 0.8 * 397) <= 1.0
    assert len(sp.train_rows) == 571


def test_split_deterministic_and_seed_sensitive():
    ds = balanced_dataset(120, 50)
    a = D.split_train_test(ds, 0.75, seed=9)
    b = D.split_train_test(ds, 0.75, seed=9)
    c = D.split_train_test(ds, 0.75, seed=10)
    assert a == b
    assert a.train_rows != c.train_rows


def test_split_validation():
    ds = balanced_dataset(10, 4)
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(D.DataError):
            D.split_train_test(ds, bad, seed=0)
    single_class = balanced_dataset(10, 0)
    with pytest.raises(D.DataError, match="both classes"):
        D.split_train_test(single_class, 0.8, seed=0)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=300),
    ratio=st.floats(min_value=0.05, max_value=0.95),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_split_partition_property(n, ratio, seed):
    n_pos = max(1, min(n - 1, n // 3))
    ds = balanced_dataset(n, n_pos, seed=1)
    sp = D.split_train_test(ds, ratio, seed=seed)
    assert sorted(sp.train_rows + sp.test_rows) == list(range(n))
    expected = int(np.floor(ratio * n + 0.5))
    expected = min(max(expected, 1), n - 1)
    assert len(sp.train_rows) == expected
