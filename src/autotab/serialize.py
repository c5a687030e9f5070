"""Versioned JSON documents for trained models and preprocessing artifacts.

Two document families: `autotab-model v1` (a level-1 model with its spec,
input schema, fingerprint and family payload, or a level-2 ensemble that
references member documents by preset id) and `autotab-artifacts v1` (a fitted
preprocessing pipeline). Floats are written with full round-trip precision so
a reloaded model reproduces its predictions bit for bit.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple, Union

from .data import ColumnSchema, schema_fingerprint, schema_from_doc, schema_to_doc
from .ensemble import EnsembleModel
from .learners.features import Featurizer
from .learners.presets import ModelSpec
from .model import FAMILIES, TrainedModel
from .preprocess import (
    BinningSpec,
    CleaningReport,
    EncodingMap,
    PreprocessArtifacts,
    ScenarioId,
)

MODEL_FORMAT = "autotab-model"
ARTIFACTS_FORMAT = "autotab-artifacts"
FORMAT_VERSION = 1


class SerializeError(ValueError):
    pass


# -- featurizer ------------------------------------------------------------


def _featurizer_to_doc(fz: Optional[Featurizer]) -> Optional[dict]:
    if fz is None:
        return None
    return {
        "source_names": list(fz.source_names),
        "derived_names": list(fz.derived_names),
        "center": list(fz.center),
        "scale": list(fz.scale),
    }


def _featurizer_from_doc(doc: Optional[dict]) -> Optional[Featurizer]:
    if doc is None:
        return None
    return Featurizer(
        source_names=tuple(doc["source_names"]),
        derived_names=tuple(doc["derived_names"]),
        center=tuple(float(v) for v in doc["center"]),
        scale=tuple(float(v) for v in doc["scale"]),
    )


# -- model documents -------------------------------------------------------


def _payload_from_doc(doc: dict, family: str) -> object:
    kind = doc.get("type")
    if not isinstance(kind, str) or kind not in FAMILIES or kind != family:
        raise SerializeError(f"unknown model payload type {kind!r} for family {family!r}")
    return FAMILIES[kind].from_doc(doc)


def _check_header(doc: dict, expected_format: str) -> None:
    if doc.get("format") != expected_format:
        raise SerializeError(
            f"not a {expected_format} document (format field: {doc.get('format')!r})"
        )
    if doc.get("version") != FORMAT_VERSION:
        raise SerializeError(
            f"unsupported {expected_format} version {doc.get('version')!r}, expected {FORMAT_VERSION}"
        )


def save_model(model: TrainedModel, path: Union[str, Path]) -> Path:
    doc = {
        "format": MODEL_FORMAT,
        "version": FORMAT_VERSION,
        "kind": "level1",
        "spec": {
            "preset_id": model.spec.preset_id,
            "family": model.spec.family,
            "hyperparameters": model.spec.hyperparameters,
            "seed": model.spec.seed,
        },
        "fingerprint": model.fingerprint,
        "schema": schema_to_doc(model.schema),
        "featurizer": _featurizer_to_doc(model.featurizer),
        "payload": {"type": model.spec.family, **FAMILIES[model.spec.family].to_doc(model.payload)},
    }
    return _write_doc(doc, path)


def save_ensemble(
    ens: EnsembleModel,
    schema: Sequence[ColumnSchema],
    member_files: Dict[str, str],
    path: Union[str, Path],
) -> Path:
    for pid, _ in ens.members:
        if pid not in member_files:
            raise SerializeError(f"no document reference for ensemble member {pid!r}")
    doc = {
        "format": MODEL_FORMAT,
        "version": FORMAT_VERSION,
        "kind": "ensemble",
        "stack_level": ens.stack_level,
        "threshold_k": ens.threshold_k,
        "members": [[pid, w] for pid, w in ens.members],
        "member_files": {pid: member_files[pid] for pid, _ in ens.members},
        "fingerprint": schema_fingerprint(schema),
        "schema": schema_to_doc(schema),
    }
    return _write_doc(doc, path)


@dataclass
class LoadedEnsemble:
    """An ensemble document together with its reloaded member models."""

    ensemble: EnsembleModel
    members: Dict[str, TrainedModel]
    schema: Tuple[ColumnSchema, ...]
    fingerprint: str


def _read_model_doc(path: Path) -> dict:
    doc = _read_doc(path)
    _check_header(doc, MODEL_FORMAT)
    return doc


def _level1_from_doc(doc: dict) -> TrainedModel:
    spec_doc = doc["spec"]
    spec = ModelSpec(
        preset_id=spec_doc["preset_id"],
        family=spec_doc["family"],
        hyperparameters=_dejsonable(spec_doc["hyperparameters"]),
        seed=int(spec_doc["seed"]),
    )
    return TrainedModel(
        spec=spec,
        fingerprint=doc["fingerprint"],
        schema=schema_from_doc(doc["schema"]),
        payload=_payload_from_doc(doc["payload"], spec.family),
        featurizer=_featurizer_from_doc(doc.get("featurizer")),
    )


def load_model(path: Union[str, Path]) -> Union[TrainedModel, LoadedEnsemble]:
    path = Path(path)
    doc = _read_model_doc(path)
    kind = doc.get("kind")
    if kind == "level1":
        return _level1_from_doc(doc)
    if kind == "ensemble":
        ens = EnsembleModel(
            members=tuple((pid, float(w)) for pid, w in doc["members"]),
            stack_level=int(doc["stack_level"]),
            threshold_k=float(doc["threshold_k"]),
        )
        members: Dict[str, TrainedModel] = {}
        for pid, _ in ens.members:
            ref = doc["member_files"][pid]
            member_path = path.parent / ref
            if not member_path.exists():
                raise SerializeError(
                    f"ensemble member {pid!r} refers to missing document {ref!r}"
                )
            member_doc = _read_model_doc(member_path)
            if member_doc.get("kind") != "level1":
                raise SerializeError(f"ensemble member {pid!r} is not a level-1 model")
            members[pid] = _level1_from_doc(member_doc)
        return LoadedEnsemble(
            ensemble=ens,
            members=members,
            schema=schema_from_doc(doc["schema"]),
            fingerprint=doc["fingerprint"],
        )
    raise SerializeError(f"unknown model document kind {kind!r}")


# -- artifacts documents ---------------------------------------------------


def save_artifacts(
    artifacts: PreprocessArtifacts, schema: Sequence[ColumnSchema], path: Union[str, Path]
) -> Path:
    cleaning = artifacts.cleaning
    doc = {
        "format": ARTIFACTS_FORMAT,
        "version": FORMAT_VERSION,
        "scenario": artifacts.scenario.value,
        "schema": schema_to_doc(schema),
        "cleaning": {
            "rows_before": cleaning.rows_before,
            "rows_after": cleaning.rows_after,
            "duplicates_removed": cleaning.duplicates_removed,
            "invalid_rows_removed": dict(cleaning.invalid_rows_removed),
            "outlier_rows_removed": dict(cleaning.outlier_rows_removed),
        },
        "binnings": (
            [{"column": b.column, "edges": list(b.edges)} for b in artifacts.binnings]
            if artifacts.binnings is not None
            else None
        ),
        "encoding": (
            {src: list(names) for src, names in artifacts.encoding.derived.items()}
            if artifacts.encoding is not None
            else None
        ),
        "norm": (
            {col: [m, s] for col, (m, s) in artifacts.norm.items()}
            if artifacts.norm is not None
            else None
        ),
        "imputation": (
            dict(artifacts.imputation) if artifacts.imputation is not None else None
        ),
    }
    return _write_doc(doc, path)


def load_artifacts(path: Union[str, Path]) -> Tuple[PreprocessArtifacts, Tuple[ColumnSchema, ...]]:
    doc = _read_doc(Path(path))
    _check_header(doc, ARTIFACTS_FORMAT)
    c = doc["cleaning"]
    cleaning = CleaningReport(
        rows_before=int(c["rows_before"]),
        rows_after=int(c["rows_after"]),
        duplicates_removed=int(c["duplicates_removed"]),
        invalid_rows_removed={k: int(v) for k, v in c["invalid_rows_removed"].items()},
        outlier_rows_removed={k: int(v) for k, v in c["outlier_rows_removed"].items()},
    )
    binnings = None
    if doc.get("binnings") is not None:
        binnings = tuple(
            BinningSpec(column=b["column"], edges=tuple(float(e) for e in b["edges"]))
            for b in doc["binnings"]
        )
    encoding = None
    if doc.get("encoding") is not None:
        encoding = EncodingMap(
            derived={src: tuple(names) for src, names in doc["encoding"].items()}
        )
    norm = None
    if doc.get("norm") is not None:
        norm = {col: (float(m), float(s)) for col, (m, s) in doc["norm"].items()}
    imputation = None
    if doc.get("imputation") is not None:
        imputation = dict(doc["imputation"])
    artifacts = PreprocessArtifacts(
        scenario=ScenarioId.parse(doc["scenario"]),
        cleaning=cleaning,
        binnings=binnings,
        encoding=encoding,
        norm=norm,
        imputation=imputation,
    )
    return artifacts, schema_from_doc(doc["schema"])


# -- plumbing ---------------------------------------------------------------


def _dejsonable(value):
    if isinstance(value, dict):
        return {k: _dejsonable(v) for k, v in value.items()}
    if isinstance(value, list):
        return tuple(_dejsonable(v) for v in value)
    return value


def _write_doc(doc: dict, path: Union[str, Path]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, allow_nan=False)
        fh.write("\n")
    return path


def _read_doc(path: Path) -> dict:
    if not path.exists():
        raise SerializeError(f"no such document: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SerializeError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise SerializeError(f"expected a JSON object in {path}")
    return doc
