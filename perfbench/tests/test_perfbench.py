"""The benchmark's own tests: every workload at a reduced size, the
determinism contract, the traced mode, and one tampered input per check so
that no check is vacuous.

    python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import checks  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
from checks import CheckError  # noqa: E402

# one preset per family; tuning on so the tune path runs too
S1_SMALL = wl.FitConfig(scenario="s1", rows=None, folds=2, tune_budget=1, presets=("knn-uniform", "gbt-default", "rf-gini", "mlp-a"))
S2_SMALL = wl.FitConfig(scenario="s2", rows=300, folds=2, tune_budget=0, presets=("knn-distance", "gbt-newton", "mlp-a"))
SCORE_SMALL = wl.ScoreConfig(rows=600, docs=S1_SMALL, docs_seed=3, accuracy_floor=wl.SCORE_BATCH.accuracy_floor)


def _fit(cfg, seed, directory):
    data_path = directory / "input.csv"
    wl.write_fit_input(cfg, seed, data_path)
    return data_path, directory / "out", wl.run_fit(cfg, data_path, directory / "out")


@pytest.fixture(scope="module")
def s1_run(tmp_path_factory):
    data_path, out_dir, result = _fit(S1_SMALL, SCORE_SMALL.docs_seed, tmp_path_factory.mktemp("s1"))
    return data_path, out_dir, result


@pytest.fixture()
def s1_copy(s1_run, tmp_path):
    data_path, out_dir, result = s1_run
    copy = tmp_path / "out"
    shutil.copytree(out_dir, copy)
    return data_path, copy, result


def _rewrite_csv(path, edit):
    header, rows = checks.read_csv(path)
    header, rows = edit(header, rows)
    path.write_text("\n".join(",".join(r) for r in [header] + rows) + "\n", encoding="utf-8")


def _edit_json(path, edit):
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")


# -- workloads at a reduced size ---------------------------------------------


def test_s1_outputs_pass_every_check(s1_run):
    data_path, out_dir, result = s1_run
    assert wl.failed_presets(result) == []
    dep = wl.check_fit_outputs(S1_SMALL, data_path, out_dir, result)
    assert sorted(dep.level1) == sorted(S1_SMALL.applicable())
    assert wl.model_bytes(out_dir) > 0


def test_same_seed_gives_byte_identical_files(s1_run, tmp_path):
    _, out_dir, _ = s1_run
    _, again, _ = _fit(S1_SMALL, SCORE_SMALL.docs_seed, tmp_path)
    first, second = checks.file_digests(out_dir), checks.file_digests(again)
    assert len(first) == 6 + len(S1_SMALL.applicable())
    assert first == second


def test_s2_skips_knn_by_design_and_passes(tmp_path):
    data_path, out_dir, result = _fit(S2_SMALL, 5, tmp_path)
    assert sorted(result.skips) == ["knn-distance"]
    assert S2_SMALL.applicable() == ("gbt-newton", "mlp-a")
    wl.check_fit_outputs(S2_SMALL, data_path, out_dir, result)


def test_score_batch_passes_and_repeats_exactly(s1_run):
    _, out_dir, _ = s1_run
    dep = wl.load_deployment(out_dir)
    wl.check_docs(out_dir, dep)
    raw = wl.raw_batch(SCORE_SMALL.rows, 11)
    level1, ens = wl.score_round(dep, raw)
    acc = checks.check_scores(raw.row_count, level1, ens, dep.weights, raw.target(), SCORE_SMALL.accuracy_floor)
    assert acc > SCORE_SMALL.accuracy_floor
    level1_again, ens_again = wl.score_round(dep, raw)
    assert ens.tobytes() == ens_again.tobytes()
    assert all(level1[k].tobytes() == level1_again[k].tobytes() for k in level1)


# -- traced mode -------------------------------------------------------------

COUNTS = ("model.train.calls", "trees.grow_tree.calls", "mlp.mlp_loss_gradient.calls", "metrics.confusion.calls")


def _traced_round(cfg, directory):
    data_path = directory / "input.csv"
    wl.write_fit_input(cfg, 2, data_path)
    rec = spans.Recorder()
    with spans.installed(rec):
        rec.active = True
        wl.run_fit(cfg, data_path, directory / "out")
        rec.active = False
    return rec


def test_traced_round_reports_every_layer_metric_and_repeats_counts(tmp_path):
    first = _traced_round(S1_SMALL, tmp_path / "a").metrics()
    second = _traced_round(S1_SMALL, tmp_path / "b").metrics()
    assert set(first) == set(spans.PER_LAYER)
    assert all(m["value"] is not None for m in first.values())
    for name in COUNTS:
        assert first[name]["value"] > 0
        assert first[name]["value"] == second[name]["value"]
    # forest 300 trees per fit: two tune candidates, two folds, one refit
    assert first["trees.grow_tree.calls"]["value"] >= 5 * 300
    assert first["harness.tune_s"]["value"] > 0
    assert first["forest.fit_forest.self_s"]["value"] < first["model.train.s.forest"]["value"]


def test_wrappers_are_removed_after_the_traced_block():
    import autotab.harness as harness
    import autotab.model as model

    original = model.train
    with spans.installed(spans.Recorder()):
        assert harness.train is not original
        assert model.train is not original
    assert harness.train is original and model.train is original


def test_a_missing_function_is_reported_absent(monkeypatch, tmp_path):
    targets = spans.LAYER_TARGETS + (("autotab.learners.knn", "no_such_function", "knn.knn_proba"),)
    monkeypatch.setattr(spans, "LAYER_TARGETS", targets)
    metrics = _traced_round(replace(S1_SMALL, tune_budget=0), tmp_path).metrics()
    assert metrics["knn.knn_proba.s"]["value"] is None and metrics["knn.knn_proba.s"]["absent"]
    assert metrics["model.train.calls"]["value"] > 0


# -- every check trips on a tampered input -----------------------------------


def test_leaderboard_check_trips(s1_copy):
    data_path, out_dir, result = s1_copy
    rows = checks.parse_leaderboard(out_dir / "leaderboard.csv")
    txt = (out_dir / "leaderboard.txt").read_text(encoding="utf-8").splitlines()
    expected = list(S1_SMALL.applicable())
    checks.check_leaderboard(rows, txt, expected, [])
    with pytest.raises(CheckError):
        checks.check_leaderboard(rows[1:], txt, expected, [])
    with pytest.raises(CheckError):
        checks.check_leaderboard([rows[-1]] + rows[:-1], txt, expected, [])
    with pytest.raises(CheckError):
        checks.check_leaderboard(rows, txt, expected, ["knn-uniform"])


def test_flipped_label_column_trips_metrics_and_split(s1_copy):
    data_path, out_dir, result = s1_copy
    header, train_rows = checks.read_csv(out_dir / "train.csv")
    _, test_rows = checks.read_csv(out_dir / "test.csv")
    t = header.index(wl.TARGET)
    flipped = [r[:t] + [{"0": "1", "1": "0"}[r[t]]] + r[t + 1 :] for r in test_rows]
    _rewrite_csv(out_dir / "test.csv", lambda h, rows: (h, flipped))
    with pytest.raises(CheckError, match="leaderboard"):
        wl.check_fit_outputs(S1_SMALL, data_path, out_dir, result)
    with pytest.raises(CheckError, match="partition"):
        checks.check_split(train_rows + test_rows, train_rows, flipped, t, 0.2)


def _most_reached_leaf(tree, X):
    node = np.zeros(len(X), dtype=np.int64)
    feature = np.asarray(tree["feature"])
    while True:
        f = feature[node]
        live = f >= 0
        if not live.any():
            return np.bincount(node).argmax()
        go_left = X[live, f[live]] <= np.asarray(tree["threshold"])[node[live]]
        node[live] = np.where(go_left, np.asarray(tree["left"])[node[live]], np.asarray(tree["right"])[node[live]])


def _alter_one_leaf(out_dir, dep):
    """Push the busiest leaf of the first boosted tree far against the current predictions."""
    test_ds, _ = wl.emitted_test_split(out_dir, dep)
    from autotab.learners.features import dataset_matrix

    X = dataset_matrix(test_ds)
    path = out_dir / "model_gbt-default.json"
    before = wl.model.predict_proba(dep.level1["gbt-default"], test_ds)
    push = -1e3 if np.mean(before >= 0.5) > 0.5 else 1e3

    def edit(doc):
        tree = doc["payload"]["trees"][0]
        tree["value"][int(_most_reached_leaf(tree, X))] = push

    _edit_json(path, edit)


def test_one_altered_leaf_value_trips_the_metric_recomputation(s1_copy):
    data_path, out_dir, result = s1_copy
    _alter_one_leaf(out_dir, wl.load_deployment(out_dir))
    with pytest.raises(CheckError, match="gbt-default"):
        wl.check_fit_outputs(S1_SMALL, data_path, out_dir, result)
    with pytest.raises(CheckError, match="gbt-default"):
        wl.check_docs(out_dir, wl.load_deployment(out_dir))


def test_ensemble_selection_check_trips(s1_run):
    _, out_dir, result = s1_run
    rows = checks.parse_leaderboard(out_dir / "leaderboard.csv")
    labels = np.asarray(result.oof.labels)
    oof = {pid: result.oof.column(pid) for pid in result.oof.preset_ids}
    weights = wl.load_deployment(out_dir).weights
    checks.check_ensemble_selection(weights, rows, labels, oof)
    worst = min(oof, key=lambda pid: checks.own_accuracy(labels, oof[pid]))
    for bad in (
        [(pid, w * 1.2) for pid, w in weights],
        [(pid, -w) for pid, w in weights],
        [(pid, 1.0 / 27) for pid in ["x"] * 27],
        [(worst, 1.0)],
    ):
        with pytest.raises(CheckError):
            checks.check_ensemble_selection(bad, rows, labels, oof)
    lowered = [dict(r) for r in rows]
    lowered[-1]["accuracy_val"] = 0.5
    with pytest.raises(CheckError):
        checks.check_ensemble_selection(weights, lowered, labels, oof)


def test_loss_trace_check_trips(s1_run):
    _, out_dir, _ = s1_run
    doc = json.loads((out_dir / "model_gbt-default.json").read_text(encoding="utf-8"))
    checks.check_loss_traces({"gbt-default": doc})
    trace = doc["payload"]["loss_trace"]
    short = json.loads(json.dumps(doc))
    short["payload"]["loss_trace"] = trace[:-1]
    rising = json.loads(json.dumps(doc))
    rising["payload"]["loss_trace"][5] = trace[3] + 1.0
    for bad in (short, rising):
        with pytest.raises(CheckError):
            checks.check_loss_traces({"gbt-default": bad})


def test_split_check_trips(s1_run):
    _, out_dir, _ = s1_run
    header, train_rows = checks.read_csv(out_dir / "train.csv")
    _, test_rows = checks.read_csv(out_dir / "test.csv")
    t = header.index(wl.TARGET)
    cleaned = train_rows + test_rows
    checks.check_split(cleaned, train_rows, test_rows, t, 0.2)
    with pytest.raises(CheckError):
        checks.check_split(cleaned, train_rows[1:], test_rows, t, 0.2)
    positives = [r for r in test_rows if r[t] == "1"]
    with pytest.raises(CheckError):
        checks.check_split(cleaned, train_rows + positives[:5], [r for r in test_rows if r not in positives[:5]], t, 0.2)


def test_cleaning_count_check_trips(s1_copy):
    data_path, out_dir, result = s1_copy
    _edit_json(out_dir / "artifacts.json", lambda doc: doc["cleaning"].update(rows_after=doc["cleaning"]["rows_after"] + 1))
    with pytest.raises(CheckError, match="cleaning"):
        wl.check_fit_outputs(S1_SMALL, data_path, out_dir, result)


def test_score_checks_trip(s1_run):
    _, out_dir, _ = s1_run
    dep = wl.load_deployment(out_dir)
    raw = wl.raw_batch(SCORE_SMALL.rows, 11)
    level1, ens = wl.score_round(dep, raw)
    labels = raw.target()
    n = raw.row_count
    floor = SCORE_SMALL.accuracy_floor
    two = sorted(level1)[:2]
    weights = [(two[0], 0.75), (two[1], 0.25)]
    mixed = 0.75 * level1[two[0]] + 0.25 * level1[two[1]]
    checks.check_scores(n, level1, mixed, weights, labels, 0.5)
    with pytest.raises(CheckError, match="weighted member sum"):
        checks.check_scores(n, level1, mixed, [(two[0], 0.25), (two[1], 0.75)], labels, 0.5)
    out_of_range = ens.copy()
    out_of_range[0] = 1.5
    with pytest.raises(CheckError, match="outside"):
        checks.check_scores(n, level1, out_of_range, dep.weights, labels, floor)
    with pytest.raises(CheckError, match="rows"):
        checks.check_scores(n, level1, ens[1:], dep.weights, labels, floor)
    with pytest.raises(CheckError, match="accuracy"):
        checks.check_scores(n, level1, ens, dep.weights, 1 - labels, floor)


def test_round_to_round_identity_check_trips(s1_run):
    _, out_dir, _ = s1_run
    digests = checks.file_digests(out_dir)
    checks.check_identical(digests, dict(digests), "files")
    with pytest.raises(CheckError):
        checks.check_identical(digests, {**digests, "leaderboard.csv": "0"}, "files")


# -- the command -------------------------------------------------------------


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for workload in ("paper-s1", "score-batch"):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=tmp_path,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""


def test_benchmark_file_names_what_the_command_prints():
    import run

    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == {k: v[0] for k, v in spans.PER_LAYER.items()}
