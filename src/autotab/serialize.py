"""Versioned JSON documents for trained models and preprocessing artifacts.

Two document families: `autotab-model v1` (a level-1 model with its spec,
input schema, fingerprint and family payload, or a level-2 ensemble that
references member documents by preset id) and `autotab-artifacts v1` (a fitted
preprocessing pipeline). Floats are written with full round-trip precision so
a reloaded model reproduces its predictions bit for bit; NaN and infinity are
refused both ways.

The envelope keys are written by hand. The spec, featurizer, payload and
artifacts inside them are dataclasses, written by one rule (an object of the
fields in declaration order, ndarrays and tuples as arrays) and read back by
following the field annotations. So reordering or renaming a field changes the
document format, and the pinned output digests in the tests show it.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from functools import lru_cache
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple, Union, get_args, get_origin, get_type_hints

import numpy as np

from .data import ColumnSchema, schema_fingerprint, schema_from_doc, schema_to_doc
from .ensemble import EnsembleModel
from .learners.features import Featurizer
from .learners.presets import ModelSpec
from .model import FAMILIES, TrainedModel
from .preprocess import PreprocessArtifacts

MODEL_FORMAT = "autotab-model"
ARTIFACTS_FORMAT = "autotab-artifacts"
FORMAT_VERSION = 1


class SerializeError(ValueError):
    pass


# -- dataclass codec ---------------------------------------------------------


@lru_cache(maxsize=None)
def _field_types(cls: type) -> Tuple[Tuple[str, object], ...]:
    """(name, resolved annotation) of each field of `cls`, in declaration order."""
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in fields(cls))


def _plain(value):
    """`value` as JSON arrays, objects and scalars; a dataclass becomes its fields."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if is_dataclass(value):
        return {name: _plain(getattr(value, name)) for name, _ in _field_types(type(value))}
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value.value if isinstance(value, Enum) else value


def _field(doc: dict, name: str, where: str):
    if name not in doc:
        raise SerializeError(f"{where} has no field {name!r}")
    return doc[name]


def _decode(tp, value):
    """`value`, as parsed from JSON, rebuilt as the annotated type `tp`.

    An ndarray is float64 unless its dataclass's `dtypes` maps the field to another dtype.
    """
    if is_dataclass(tp):
        if not isinstance(value, dict):
            raise SerializeError(f"{tp.__name__}: expected an object, got {value!r}")
        dtypes = getattr(tp, "dtypes", {})
        kwargs = {}
        for name, hint in _field_types(tp):
            item = _field(value, name, tp.__name__)
            kwargs[name] = _array(item, dtypes[name]) if name in dtypes else _decode(hint, item)
        return tp(**kwargs)
    if tp is np.ndarray:
        return _array(value, np.float64)
    if tp is object:  # free-form values such as hyperparameters: arrays become tuples
        if isinstance(value, dict):
            return {k: _decode(object, v) for k, v in value.items()}
        return tuple(_decode(object, v) for v in value) if isinstance(value, list) else value
    origin, args = get_origin(tp), get_args(tp)
    if origin is Union:  # Optional[X], or a union of scalar types
        if value is None and type(None) in args:
            return None
        return _decode(type(value) if type(value) in args else args[0], value)
    if origin in (list, tuple, dict) and not isinstance(value, dict if origin is dict else list):
        raise SerializeError(f"expected {'an object' if origin is dict else 'an array'}, got {value!r}")
    if origin is list:
        return [_decode(args[0], v) for v in value]
    if origin is tuple and args[1:] == (Ellipsis,):
        return tuple(_decode(args[0], v) for v in value)
    if origin is tuple:
        if len(args) != len(value):
            raise SerializeError(f"expected {len(args)} values, got {value!r}")
        return tuple(_decode(a, v) for a, v in zip(args, value))
    if origin is dict:
        return {args[0](k): _decode(args[1], v) for k, v in value.items()}
    if issubclass(tp, Enum):
        return tp(value)
    if tp is float and type(value) is int:
        value = float(value)
    if not isinstance(value, tp) or (tp is float and not math.isfinite(value)):  # 1e999 parses as inf
        raise SerializeError(f"expected {tp.__name__}, got {value!r}")
    return value


def _array(value, dtype) -> np.ndarray:
    arr = np.asarray(value, dtype=dtype)
    if arr.dtype.kind == "f" and not np.isfinite(arr).all():
        raise SerializeError("array holds null or non-finite values")
    return arr


# -- model documents -------------------------------------------------------


def save_model(model: TrainedModel, path: Union[str, Path]) -> Path:
    doc = {
        "format": MODEL_FORMAT,
        "version": FORMAT_VERSION,
        "kind": "level1",
        "spec": _plain(model.spec),
        "fingerprint": model.fingerprint,
        "schema": schema_to_doc(model.schema),
        "featurizer": _plain(model.featurizer),
        "payload": {"type": model.spec.family, **_plain(model.payload)},
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


def _level1_from_doc(doc: dict) -> TrainedModel:
    spec = _decode(ModelSpec, _field(doc, "spec", "model"))
    payload = _field(doc, "payload", "model")
    if payload.get("type") != spec.family or spec.family not in FAMILIES:
        raise SerializeError(
            f"unknown model payload type {payload.get('type')!r} for family {spec.family!r}"
        )
    return TrainedModel(
        spec=spec,
        fingerprint=_field(doc, "fingerprint", "model"),
        schema=schema_from_doc(_field(doc, "schema", "model")),
        payload=_decode(FAMILIES[spec.family].payload, payload),
        featurizer=_decode(Optional[Featurizer], _field(doc, "featurizer", "model")),
    )


def load_model(path: Union[str, Path]) -> Union[TrainedModel, LoadedEnsemble]:
    path = Path(path)
    doc = _read_doc(path, MODEL_FORMAT)
    kind = doc.get("kind")
    if kind == "level1":
        return _level1_from_doc(doc)
    if kind == "ensemble":
        ens = _decode(EnsembleModel, doc)
        member_files = _field(doc, "member_files", "ensemble")
        members: Dict[str, TrainedModel] = {}
        for pid, _ in ens.members:
            ref = _field(member_files, pid, "member_files")
            member_path = path.parent / ref
            if not member_path.exists():
                raise SerializeError(
                    f"ensemble member {pid!r} refers to missing document {ref!r}"
                )
            member_doc = _read_doc(member_path, MODEL_FORMAT)
            if member_doc.get("kind") != "level1":
                raise SerializeError(f"ensemble member {pid!r} is not a level-1 model")
            members[pid] = _level1_from_doc(member_doc)
        return LoadedEnsemble(
            ensemble=ens,
            members=members,
            schema=schema_from_doc(_field(doc, "schema", "ensemble")),
            fingerprint=_field(doc, "fingerprint", "ensemble"),
        )
    raise SerializeError(f"unknown model document kind {kind!r}")


# -- artifacts documents ---------------------------------------------------


def save_artifacts(
    artifacts: PreprocessArtifacts, schema: Sequence[ColumnSchema], path: Union[str, Path]
) -> Path:
    body = _plain(artifacts)
    doc = {
        "format": ARTIFACTS_FORMAT,
        "version": FORMAT_VERSION,
        "scenario": body.pop("scenario"),
        "schema": schema_to_doc(schema),
        **body,
    }
    return _write_doc(doc, path)


def load_artifacts(path: Union[str, Path]) -> Tuple[PreprocessArtifacts, Tuple[ColumnSchema, ...]]:
    doc = _read_doc(Path(path), ARTIFACTS_FORMAT)
    artifacts = _decode(PreprocessArtifacts, doc)
    return artifacts, schema_from_doc(_field(doc, "schema", "artifacts"))


# -- plumbing ---------------------------------------------------------------


def _write_doc(doc: dict, path: Union[str, Path]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, allow_nan=False)
        fh.write("\n")
    return path


def _refuse_constant(name: str):
    raise ValueError(f"non-finite number {name} is not allowed")


def _read_doc(path: Path, expected_format: str) -> dict:
    if not path.exists():
        raise SerializeError(f"no such document: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=_refuse_constant)
    except ValueError as exc:  # JSONDecodeError, undecodable text, or a NaN/Infinity constant
        raise SerializeError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise SerializeError(f"expected a JSON object in {path}")
    if doc.get("format") != expected_format:
        raise SerializeError(
            f"not a {expected_format} document (format field: {doc.get('format')!r})"
        )
    if doc.get("version") != FORMAT_VERSION:
        raise SerializeError(
            f"unsupported {expected_format} version {doc.get('version')!r}, expected {FORMAT_VERSION}"
        )
    return doc
