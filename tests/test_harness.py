"""Experiment driver and command line behavior on small configurations."""
import hashlib
import shutil
from pathlib import Path

import numpy as np
import pytest

import autotab.ensemble as ensemble_mod
import autotab.harness as harness_mod
import autotab.model as model_mod
from autotab.cli import main
from autotab.data import write_csv
from autotab.datagen import synthetic_heart
from autotab.harness import (
    ENSEMBLE_NAME,
    LEADERBOARD_HEADER,
    ExperimentConfig,
    HarnessError,
    LeaderboardRow,
    emit_leaderboard,
    run_experiment,
)
from autotab.learners.features import LearnerError
from autotab.preprocess import ScenarioId
from autotab.serialize import load_artifacts, load_model

FAST_PRESETS = ("knn-uniform", "gbt-default", "rf-gini", "mlp-a")

# sha256 of every file the small runs below emit. A change that moves any
# byte of any output (a model, a metric, a split, a file format) shows here.
PINNED_DIGESTS = {
    "fast": {
        "artifacts.json": "a878d46cd2d3543b345cc1e853da3499d4e3ef496e13747e8ef15e86601ef433",
        "leaderboard.csv": "77ddf53d4796f79d0fad9db8ea5c379bd01040ad998a183aab4ab53dc273d0ab",
        "leaderboard.txt": "b596a4c02d393d6b480da60ab018dfad879cfafbaf7a585580048d0b5b315c22",
        "model_WeightedEnsemble_L2.json": "3993de24f7b4236426a0e70750e206538d2215f206a8e342785aad1170392007",
        "model_gbt-default.json": "105aa2cad8b60ca810daf07c844d68393adf58cde926f15b977714033ad94394",
        "model_knn-uniform.json": "7012344f3b1a3f939677bfd3f5d5abefbc30c6fbe5bb413b6f5aae65a01c72ba",
        "model_mlp-a.json": "7a475f62dadbedce4fd46b1a7fb10995d2cf60d6df02b12f983bee2940f5aea9",
        "model_rf-gini.json": "d631f33e9a7fb4126882cfb49a842ce5783c828e98f537b73af4308951ec3557",
        "test.csv": "fd7b1a0311330677279606f3ece2d784d7ec38b78f73219d4c87932db17bd3d8",
        "train.csv": "8e32afeea95249721ca0fbb70f614c6ad11a45886519ed9f2a131967202afbcd",
    },
    "rerun": {
        "artifacts.json": "5a16834a7cfdca8fe69df0f8bc73a625d316899d8504517eb8485e1687536901",
        "leaderboard.csv": "23dd6efb888b947cedc4cacacf53e62ac09da48080da1e999a1602bc507c11c8",
        "leaderboard.txt": "a356540b784f8f7661e640ccda0553fafeb7c890340e067de45e79d38a73a8c6",
        "model_WeightedEnsemble_L2.json": "6e552e18918eb4509465bc2942392fd05cb0b003a53c1d7145f1525cec471085",
        "model_knn-distance.json": "775c6ba2873804b7887b4a87b13ad514bb1e80a143fb8f39957c9329157bc054",
        "model_xt-gini.json": "fe68e15a0288736c34df95b43303b92605d7e822eaeb520d0a30fe38dd289d41",
        "test.csv": "6307284b20e40dfc79cb445341cfd77f30502cb48efaa7b22cc0972e1815540f",
        "train.csv": "86fe0dd295e258a440f43f24e5e3b5972e180fe8eb643cf0c91296ccd2d0a7dc",
    },
    "s2": {
        "artifacts.json": "15a1d34b1ccc8d49b1d8bf514c3281f07f4e5d8606906be4b2081cdae90ba3db",
        "leaderboard.csv": "0fe3b8be21530a2442540b4f6547526ad96208bf3c616251a5667e512e94ab62",
        "leaderboard.txt": "3733894714678437139f140dda3923e00c7f1b3a7af0fc95b2ac6c8c1c9ec50c",
        "model_WeightedEnsemble_L2.json": "ec4e61cf972ab982ca71ffe6b3c6fbbb0bc3489a7b2b6a5a0effa314f12894cf",
        "model_gbt-default.json": "b9802d9ecdb07ae024a56551293b9066ac8caafbd0e873d1f9228e069da21497",
        "test.csv": "d3f2bf86fa32d9378dc3832f32e0ef241ede9fc471772ac4623770e7cebf9264",
        "train.csv": "d47ee463c8dbf2bc38f7d2f0158fc548ba0bdaebaf7ec2f8b10d5f6f73d8d031",
    },
}


def _digests(out_dir):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(Path(out_dir).iterdir())}


def parse_leaderboard(path):
    """leaderboard.csv back as rows; an "undefined" cell reads as None."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    assert lines[0] == LEADERBOARD_HEADER
    rows = []
    for line in lines[1:]:
        model, level, *cells = line.split(",")
        assert len(cells) == 6, line
        rows.append(LeaderboardRow(model, int(level), *(None if c == "undefined" else float(c) for c in cells)))
    return rows


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "small.csv"
    write_csv(synthetic_heart(160, seed=1), path)
    return path


@pytest.fixture(scope="module")
def fast_result(small_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = ExperimentConfig(
        data_path=small_csv,
        scenario=ScenarioId.S1,
        out_dir=out,
        seed=0,
        folds=2,
        presets=FAST_PRESETS,
        tune_budget=0,
    )
    return run_experiment(cfg)


class TestConfigValidation:
    def test_missing_data_file(self, tmp_path):
        cfg = ExperimentConfig(tmp_path / "nope.csv", ScenarioId.S1, tmp_path)
        with pytest.raises(HarnessError, match=r"\[config\]"):
            run_experiment(cfg)

    def test_bad_values_rejected_before_training(self, small_csv, tmp_path):
        bad = [
            {"test_ratio": 1.5},
            {"folds": 1},
            {"repeats": 0},
            {"tune_budget": -1},
            {"presets": ("no-such-model",)},
            {"presets": ()},
        ]
        for overrides in bad:
            cfg = ExperimentConfig(small_csv, ScenarioId.S1, tmp_path, **overrides)
            with pytest.raises(ValueError):
                cfg.validate()


class TestEmit:
    def _row(self, model="gbt-default", level=1):
        return LeaderboardRow(
            model=model,
            stack_level=level,
            accuracy_test=0.9125,
            accuracy_val=0.8875,
            roc_auc=0.95,
            precision=0.9,
            f1=0.88,
            recall=0.8612345,
        )

    def test_single_row_gives_header_plus_one_line(self, tmp_path):
        files = emit_leaderboard([self._row()], tmp_path)
        lines = files["csv"].read_text().splitlines()
        assert lines == [
            LEADERBOARD_HEADER,
            "gbt-default,1,0.9125,0.8875,0.9500,0.9000,0.8800,0.8612",
        ]

    def test_undefined_cells(self, tmp_path):
        row = self._row()
        row.precision = None
        row.f1 = None
        files = emit_leaderboard([row], tmp_path)
        line = files["csv"].read_text().splitlines()[1]
        assert ",undefined,undefined," in line

    def test_parse_back_round_trip(self, tmp_path):
        row = self._row()
        row.recall = None
        files = emit_leaderboard([row], tmp_path)
        back = parse_leaderboard(files["csv"])
        assert len(back) == 1
        assert back[0].model == row.model
        assert back[0].accuracy_test == pytest.approx(0.9125)
        assert back[0].recall is None

    def test_text_table_aligns_and_lists_skips(self, tmp_path):
        files = emit_leaderboard([self._row()], tmp_path, skips={"knn-uniform": "because"})
        text = files["txt"].read_text()
        assert "skipped models:" in text
        assert "knn-uniform: because" in text
        header, first = text.splitlines()[:2]
        assert len(header) == len(first)

    def test_empty_leaderboard_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_leaderboard([], tmp_path)


class TestRunExperiment:
    def test_rows_sorted_with_ensemble_last(self, fast_result):
        rows = fast_result.rows
        assert rows[-1].model == ENSEMBLE_NAME
        assert rows[-1].stack_level == 2
        level1 = rows[:-1]
        assert all(r.stack_level == 1 for r in level1)
        keys = [(-r.accuracy_test, r.model) for r in level1]
        assert keys == sorted(keys)
        assert len(level1) == len(FAST_PRESETS)

    def test_ensemble_validation_dominates_singles(self, fast_result):
        ens_val = fast_result.rows[-1].accuracy_val
        assert all(ens_val >= r.accuracy_val - 1e-12 for r in fast_result.rows[:-1])

    def test_output_files_exist_and_reload(self, fast_result):
        files = fast_result.files
        for key in ("csv", "txt", "artifacts", "train", "test", ENSEMBLE_NAME):
            assert files[key].exists()
        loaded = load_model(files[ENSEMBLE_NAME])
        assert loaded.ensemble == fast_result.ensemble
        artifacts, schema = load_artifacts(files["artifacts"])
        assert artifacts.scenario == fast_result.artifacts.scenario
        back = parse_leaderboard(files["csv"])
        assert [r.model for r in back] == [r.model for r in fast_result.rows]

    def test_emitted_files_match_pinned_digests(self, fast_result):
        assert _digests(fast_result.config.out_dir) == PINNED_DIGESTS["fast"]

    def test_split_files_partition_cleaned_rows(self, fast_result):
        train_rows = fast_result.train_ds.row_count
        test_rows = fast_result.test_ds.row_count
        assert train_rows + test_rows == fast_result.artifacts.cleaning.rows_after

    def test_rerun_is_byte_identical(self, small_csv, tmp_path):
        outs = []
        for sub in ("a", "b"):
            cfg = ExperimentConfig(
                data_path=small_csv,
                scenario=ScenarioId.S3,
                out_dir=tmp_path / sub,
                seed=3,
                folds=2,
                presets=("knn-distance", "xt-gini"),
                tune_budget=0,
            )
            run_experiment(cfg)
            outs.append(_digests(tmp_path / sub))
        assert outs[0] == outs[1] == PINNED_DIGESTS["rerun"]

    def test_s2_skips_neighbour_models(self, small_csv, fast_result, tmp_path):
        # run into a used directory: the earlier run's other models must go
        out = tmp_path / "out"
        shutil.copytree(fast_result.config.out_dir, out)
        cfg = ExperimentConfig(
            data_path=small_csv,
            scenario=ScenarioId.S2,
            out_dir=out,
            folds=2,
            presets=("knn-uniform", "knn-distance", "gbt-default"),
            tune_budget=0,
        )
        result = run_experiment(cfg)
        assert set(result.skips) == {"knn-uniform", "knn-distance"}
        assert [r.model for r in result.rows] == ["gbt-default", ENSEMBLE_NAME]
        assert not list(out.glob("model_knn-*.json"))
        assert not (out / "model_rf-gini.json").exists()
        assert _digests(out) == PINNED_DIGESTS["s2"]


class TestSkips:
    """One skip rule for the whole run: a preset that cannot be fitted is
    listed with its reason and gets no out-of-fold column, row or document."""

    def _run(self, small_csv, out, scenario=ScenarioId.S1, **overrides):
        settings = {"folds": 2, "tune_budget": 0, **overrides}
        return run_experiment(ExperimentConfig(small_csv, scenario, out, **settings))

    @staticmethod
    def _bad_knn(monkeypatch):
        # knn-uniform tuned to k=-1, which every fit of it rejects
        def tune(spec, ds, budget):
            return spec.with_hyperparameters({"k": -1}) if spec.preset_id == "knn-uniform" else spec

        monkeypatch.setattr(harness_mod, "tune_preset", tune)

    def _assert_skipped(self, result, pid, reason):
        assert result.skips[pid] == reason
        assert pid not in result.oof.preset_ids
        assert pid not in [r.model for r in result.rows]
        out = Path(result.config.out_dir)
        assert not (out / f"model_{pid}.json").exists()
        text = (out / "leaderboard.txt").read_text(encoding="utf-8")
        assert f"skipped models:\n  {pid}: {result.skips[pid]}" in text

    def test_inapplicable_preset_recorded_as_skip(self, small_csv, tmp_path):
        result = self._run(small_csv, tmp_path, ScenarioId.S2, presets=("knn-uniform", "gbt-default"))
        self._assert_skipped(result, "knn-uniform", "no continuous feature columns after preprocessing")
        assert result.oof.preset_ids == ("gbt-default",)

    def test_training_failure_recorded_not_fatal(self, small_csv, tmp_path, monkeypatch):
        self._bad_knn(monkeypatch)
        result = self._run(small_csv, tmp_path, presets=("knn-uniform", "knn-distance"))
        self._assert_skipped(result, "knn-uniform", "training failed: k must be positive, got -1")
        assert result.oof.preset_ids == ("knn-distance",)

    def test_all_failures_raise(self, small_csv, tmp_path, monkeypatch):
        self._bad_knn(monkeypatch)
        with pytest.raises(HarnessError, match=r"^\[stack\] no model produced out-of-fold predictions$"):
            self._run(small_csv, tmp_path, presets=("knn-uniform",))

    def test_refit_failure_skips_only_that_preset(self, small_csv, tmp_path, monkeypatch):
        original = harness_mod.train

        def train(spec, ds):
            if spec.preset_id == "knn-uniform":
                raise LearnerError("refit refused")
            return original(spec, ds)

        monkeypatch.setattr(harness_mod, "train", train)
        result = self._run(small_csv, tmp_path, presets=("knn-uniform", "knn-distance"))
        self._assert_skipped(result, "knn-uniform", "training failed: refit refused")
        assert [r.model for r in result.rows] == ["knn-distance", ENSEMBLE_NAME]

    def test_fold_count_checked_before_any_fit(self, small_csv, tmp_path, monkeypatch):
        calls = []
        original = model_mod.train

        def counting_train(spec, ds):
            calls.append(spec.preset_id)
            return original(spec, ds)

        for module in (model_mod, ensemble_mod, harness_mod):
            monkeypatch.setattr(module, "train", counting_train)
        with pytest.raises(HarnessError, match=r"^\[stack\] class \d has \d+ rows, fewer than 400 folds$"):
            self._run(small_csv, tmp_path, presets=("gbt-default",), folds=400, tune_budget=2)
        assert calls == []


class TestCli:
    def test_run_and_score_agree(self, small_csv, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(
            [
                "run",
                "--data", str(small_csv),
                "--scenario", "s1",
                "--out", str(out),
                "--folds", "2",
                "--presets", "gbt-default,rf-gini",
                "--tune-budget", "0",
            ]
        )
        assert rc == 0
        rows = parse_leaderboard(out / "leaderboard.csv")
        target = next(r for r in rows if r.model == "gbt-default")

        rc = main(
            [
                "score",
                "--model", str(out / "model_gbt-default.json"),
                "--data", str(out / "test.csv"),
                "--out", str(out / "preds.csv"),
            ]
        )
        assert rc == 0
        printed = capsys.readouterr().out
        assert f"accuracy:  {target.accuracy_test:.4f}" in printed

        lines = (out / "preds.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "row,proba,predicted"
        n_test = len((out / "test.csv").read_text(encoding="utf-8").splitlines()) - 1
        assert len(lines) - 1 == n_test
        for line in lines[1:]:
            _, proba, predicted = line.split(",")
            p = float(proba)
            assert 0.0 <= p <= 1.0
            assert predicted == ("1" if p >= 0.5 else "0")

    def test_prep_writes_splits_and_reports_cleaning(self, small_csv, tmp_path, capsys):
        out = tmp_path / "prep"
        rc = main(
            ["prep", "--data", str(small_csv), "--scenario", "s2", "--out", str(out)]
        )
        assert rc == 0
        # the same data, scenario, seed and ratio as the pinned s2 run
        split_files = ("artifacts.json", "test.csv", "train.csv")
        assert _digests(out) == {name: PINNED_DIGESTS["s2"][name] for name in split_files}
        printed = capsys.readouterr().out
        assert "after cleaning" in printed
        assert "train rows:" in printed

    def test_failed_prep_leaves_no_output_directory(self, small_csv, tmp_path, capsys):
        out = tmp_path / "prep"
        for data, scenario in ((tmp_path / "nope.csv", "s1"), (small_csv, "s9")):
            rc = main(["prep", "--data", str(data), "--scenario", scenario, "--out", str(out)])
            assert rc == 1
            assert not out.exists()
        assert capsys.readouterr().err.count("error [prep]") == 2

    def test_score_one_class_file_leaves_auc_undefined(self, fast_result, tmp_path, capsys):
        run_dir = Path(fast_result.config.out_dir)
        header, first = (run_dir / "test.csv").read_text(encoding="utf-8").splitlines()[:2]
        one_row = tmp_path / "one.csv"
        one_row.write_text(f"{header}\n{first}\n", encoding="utf-8")
        preds = tmp_path / "preds.csv"
        rc = main(
            [
                "score",
                "--model", str(run_dir / f"model_{ENSEMBLE_NAME}.json"),
                "--data", str(one_row),
                "--out", str(preds),
            ]
        )
        assert rc == 0
        assert "roc_auc:   undefined" in capsys.readouterr().out
        lines = preds.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "row,proba,predicted"
        assert len(lines) == 2

    def test_error_paths_exit_nonzero(self, tmp_path, capsys):
        rc = main(
            [
                "run",
                "--data", str(tmp_path / "missing.csv"),
                "--scenario", "s1",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "[config]" in err

        rc = main(["score", "--model", str(tmp_path / "no.json"), "--data", str(tmp_path / "no.csv")])
        assert rc == 1

    def test_unknown_scenario_rejected(self, small_csv, tmp_path, capsys):
        rc = main(
            ["run", "--data", str(small_csv), "--scenario", "s9", "--out", str(tmp_path)]
        )
        assert rc == 1
