"""JSON document round trips for models, ensembles and preprocessing artifacts."""
import dataclasses
import json

import numpy as np
import pytest

from autotab.datagen import synthetic_heart
from autotab.ensemble import EnsembleModel, ensemble_predict
from autotab.model import predict_proba, preset_by_id, train
from autotab.preprocess import ScenarioId, scenario_preprocess, transform_with_artifacts
from autotab.serialize import (
    LoadedEnsemble,
    SerializeError,
    load_artifacts,
    load_model,
    save_artifacts,
    save_ensemble,
    save_model,
)


@pytest.fixture(scope="module")
def small_ds():
    return synthetic_heart(60, seed=4)


SMALL_SPECS = {
    "knn-distance": {"k": 3, "weighted": True},
    "rf-gini": {"criterion": "gini", "n_trees": 8, "max_depth": 0, "min_leaf": 1, "bootstrap": True},
    "gbt-default": {"n_trees": 6, "max_depth": 3, "learning_rate": 0.1, "min_child": 5, "order": "first"},
    "gbt-ordered": {
        "n_trees": 6, "max_depth": 3, "learning_rate": 0.1, "min_child": 5,
        "order": "newton", "l2": 1.0, "oblivious": True, "ordered_stats": True,
    },
    "mlp-a": {"hidden": (8,), "learning_rate": 1e-3, "epochs": 8, "batch_size": 16},
}


def _arrays(value):
    """Every ndarray inside a payload, in field order."""
    if isinstance(value, np.ndarray):
        return [value]
    if dataclasses.is_dataclass(value):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    elif isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return [a for v in value for a in _arrays(v)]
    return []


class TestModelRoundTrip:
    @pytest.mark.parametrize("preset_id", sorted(SMALL_SPECS))
    def test_predictions_survive_round_trip(self, preset_id, small_ds, tmp_path):
        spec = preset_by_id(preset_id).with_hyperparameters(SMALL_SPECS[preset_id]).with_seed(2)
        model = train(spec, small_ds)
        before = predict_proba(model, small_ds)
        path = save_model(model, tmp_path / "model.json")
        loaded = load_model(path)
        assert loaded.spec == model.spec
        assert loaded.fingerprint == model.fingerprint
        after = predict_proba(loaded, small_ds)
        assert np.array_equal(before, after)
        resaved = save_model(loaded, tmp_path / "resaved.json")
        assert resaved.read_bytes() == path.read_bytes()
        fitted, reloaded = _arrays(model.payload), _arrays(loaded.payload)
        assert fitted and [a.dtype for a in reloaded] == [a.dtype for a in fitted]

    def test_document_is_plain_json(self, small_ds, tmp_path):
        spec = preset_by_id("gbt-default").with_hyperparameters(SMALL_SPECS["gbt-default"])
        path = save_model(train(spec, small_ds), tmp_path / "m.json")
        doc = json.loads(path.read_text())
        assert doc["format"] == "autotab-model"
        assert doc["version"] == 1
        assert doc["kind"] == "level1"

    def test_tampered_version_rejected(self, small_ds, tmp_path):
        spec = preset_by_id("knn-uniform").with_hyperparameters({"k": 3, "weighted": False})
        path = save_model(train(spec, small_ds), tmp_path / "m.json")
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(SerializeError):
            load_model(path)

    def test_payload_of_another_family_rejected(self, small_ds, tmp_path):
        spec = preset_by_id("knn-uniform").with_hyperparameters({"k": 3, "weighted": False})
        path = save_model(train(spec, small_ds), tmp_path / "m.json")
        doc = json.loads(path.read_text())
        doc["payload"]["type"] = "forest"
        path.write_text(json.dumps(doc))
        with pytest.raises(SerializeError, match="forest"):
            load_model(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"format": "something-else", "version": 1}))
        with pytest.raises(SerializeError):
            load_model(path)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json")
        with pytest.raises(SerializeError):
            load_model(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SerializeError):
            load_model(tmp_path / "absent.json")

    @pytest.mark.parametrize(
        "number,field",
        [("NaN", "value"), ("-Infinity", "value"), ("1e999", "value"), ("null", "value"), ("1e999", "base_score")],
    )
    def test_non_finite_numbers_rejected(self, number, field, small_ds, tmp_path):
        spec = preset_by_id("gbt-default").with_hyperparameters(SMALL_SPECS["gbt-default"])
        path = save_model(train(spec, small_ds), tmp_path / "m.json")
        doc = json.loads(path.read_text())
        if field == "value":
            for tree in doc["payload"]["trees"]:
                tree["value"] = ["X"] * len(tree["value"])
        else:
            doc["payload"][field] = "X"
        path.write_text(json.dumps(doc).replace('"X"', number))
        with pytest.raises(SerializeError, match="non-finite|expected float"):
            load_model(path)

    def test_missing_payload_field_named(self, small_ds, tmp_path):
        spec = preset_by_id("rf-gini").with_hyperparameters(SMALL_SPECS["rf-gini"])
        path = save_model(train(spec, small_ds), tmp_path / "m.json")
        doc = json.loads(path.read_text())
        del doc["payload"]["trees"]
        path.write_text(json.dumps(doc))
        with pytest.raises(SerializeError, match="ForestModel has no field 'trees'"):
            load_model(path)


class TestEnsembleRoundTrip:
    def _saved_members(self, ds, tmp_path):
        files = {}
        for pid in ("knn-distance", "gbt-default"):
            spec = preset_by_id(pid).with_hyperparameters(SMALL_SPECS[pid]).with_seed(1)
            save_model(train(spec, ds), tmp_path / f"model_{pid}.json")
            files[pid] = f"model_{pid}.json"
        return files

    def test_round_trip_preserves_members_and_predictions(self, small_ds, tmp_path):
        files = self._saved_members(small_ds, tmp_path)
        ens = EnsembleModel(
            (("gbt-default", 0.75), ("knn-distance", 0.25)), stack_level=2, threshold_k=0.6
        )
        path = save_ensemble(ens, small_ds.schema, files, tmp_path / "ens.json")
        loaded = load_model(path)
        assert isinstance(loaded, LoadedEnsemble)
        assert loaded.ensemble == ens
        base = {
            pid: predict_proba(member, small_ds) for pid, member in loaded.members.items()
        }
        out = ensemble_predict(loaded.ensemble, base)
        direct = 0.75 * base["gbt-default"] + 0.25 * base["knn-distance"]
        assert np.array_equal(out, direct)

    def test_member_reference_required_at_save(self, small_ds, tmp_path):
        ens = EnsembleModel((("gbt-default", 1.0),), stack_level=2, threshold_k=0.5)
        with pytest.raises(SerializeError, match="gbt-default"):
            save_ensemble(ens, small_ds.schema, {}, tmp_path / "ens.json")

    def test_missing_member_document_named(self, small_ds, tmp_path):
        files = self._saved_members(small_ds, tmp_path)
        ens = EnsembleModel(
            (("gbt-default", 0.5), ("knn-distance", 0.5)), stack_level=2, threshold_k=0.5
        )
        path = save_ensemble(ens, small_ds.schema, files, tmp_path / "ens.json")
        (tmp_path / "model_knn-distance.json").unlink()
        with pytest.raises(SerializeError, match="knn-distance"):
            load_model(path)

    def test_member_absent_from_member_files_named(self, small_ds, tmp_path):
        files = self._saved_members(small_ds, tmp_path)
        ens = EnsembleModel(
            (("gbt-default", 0.5), ("knn-distance", 0.5)), stack_level=2, threshold_k=0.5
        )
        path = save_ensemble(ens, small_ds.schema, files, tmp_path / "ens.json")
        doc = json.loads(path.read_text())
        del doc["member_files"]["knn-distance"]
        path.write_text(json.dumps(doc))
        with pytest.raises(SerializeError, match="knn-distance"):
            load_model(path)

    def test_member_naming_an_ensemble_rejected(self, small_ds, tmp_path):
        files = self._saved_members(small_ds, tmp_path)
        ens = EnsembleModel((("gbt-default", 1.0),), stack_level=2, threshold_k=0.5)
        files["gbt-default"] = "ens.json"  # the ensemble document itself
        path = save_ensemble(ens, small_ds.schema, files, tmp_path / "ens.json")
        with pytest.raises(SerializeError, match="'gbt-default' is not a level-1 model"):
            load_model(path)


class TestArtifactsRoundTrip:
    @pytest.mark.parametrize("scenario", [ScenarioId.S1, ScenarioId.S2, ScenarioId.S3])
    def test_transform_matches_after_reload(self, scenario, tmp_path):
        raw = synthetic_heart(120, seed=6)
        train_ds, test_ds, artifacts = scenario_preprocess(raw, scenario, seed=0)
        path = save_artifacts(artifacts, raw.schema, tmp_path / "artifacts.json")
        loaded, schema = load_artifacts(path)
        assert schema == tuple(raw.schema)
        assert loaded.scenario == artifacts.scenario
        assert loaded.cleaning == artifacts.cleaning
        before = transform_with_artifacts(raw, artifacts)
        after = transform_with_artifacts(raw, loaded)
        assert before.schema == after.schema
        for col in (c.name for c in before.schema):
            assert np.array_equal(before.column(col), after.column(col))

    def test_artifacts_header_checked(self, tmp_path):
        raw = synthetic_heart(80, seed=7)
        _, _, artifacts = scenario_preprocess(raw, ScenarioId.S3, seed=0)
        path = save_artifacts(artifacts, raw.schema, tmp_path / "a.json")
        doc = json.loads(path.read_text())
        doc["format"] = "autotab-model"
        path.write_text(json.dumps(doc))
        with pytest.raises(SerializeError):
            load_artifacts(path)
