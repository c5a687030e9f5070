"""In-memory span recorder wrapped around autotab's public functions.

Tracing is done from outside the program. Each target function is replaced,
in every loaded autotab module that holds a reference to it, by a wrapper that
records a span while the recorder is active. Replacing every reference means a
name imported with `from ... import` is wrapped in the module that imports it.
A target that no longer exists is recorded as missing, and every metric built
on it is reported as absent instead of failing the run.
"""
from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

# (module, function, group): the calls of every function in a group add up.
LAYER_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("autotab.model", "train", "model.train"),
    ("autotab.model", "predict_proba", "model.predict_proba"),
    ("autotab.learners.trees", "grow_tree", "trees.grow_tree"),
    ("autotab.learners.trees", "exact_codes", "trees.codes"),
    ("autotab.learners.trees", "quantile_codes", "trees.codes"),
    ("autotab.learners.trees", "predict_leaf_matrix", "trees.predict_leaf_matrix"),
    ("autotab.learners.forest", "fit_forest", "forest.fit_forest"),
    ("autotab.learners.boosting", "fit_gbt", "boosting.fit_gbt"),
    ("autotab.learners.knn", "knn_proba", "knn.knn_proba"),
    ("autotab.learners.mlp", "fit_mlp", "mlp.fit_mlp"),
    ("autotab.learners.mlp", "mlp_loss_gradient", "mlp.mlp_loss_gradient"),
    ("autotab.learners.mlp", "mlp_proba", "mlp.mlp_proba"),
    ("autotab.learners.features", "dataset_matrix", "features.matrix"),
    ("autotab.learners.features", "fit_featurizer", "features.matrix"),
    ("autotab.learners.features", "featurize", "features.matrix"),
    ("autotab.ensemble", "oof_predictions", "ensemble.oof_predictions"),
    ("autotab.ensemble", "greedy_select", "ensemble.greedy_select"),
    ("autotab.ensemble", "ensemble_predict", "ensemble.ensemble_predict"),
    ("autotab.metrics", "confusion", "metrics.confusion"),
    ("autotab.metrics", "report", "metrics.report"),
    ("autotab.serialize", "save_model", "serialize.save"),
    ("autotab.serialize", "save_ensemble", "serialize.save"),
    ("autotab.serialize", "save_artifacts", "serialize.save"),
    ("autotab.serialize", "load_model", "serialize.load"),
    ("autotab.serialize", "load_artifacts", "serialize.load"),
    ("autotab.data", "load_csv", "data.load_csv"),
    ("autotab.data", "write_csv", "data.write_csv"),
    ("autotab.preprocess", "scenario_preprocess", "preprocess.scenario_preprocess"),
    ("autotab.preprocess", "transform_with_artifacts", "preprocess.transform_with_artifacts"),
)

# run_experiment's phases, each timed through the names the harness module
# itself calls inside that phase (its local `phase` helper cannot be reached
# from outside). The ensemble_predict call that scores the OOF pool between
# the ensemble and refit phases lands in `score`; it takes microseconds.
HARNESS_MODULE = "autotab.harness"
HARNESS_PHASES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("load", ("load_csv",)),
    ("preprocess", ("scenario_preprocess",)),
    ("tune", ("tune_preset",)),
    ("stack", ("kfold_assign", "oof_predictions")),
    ("ensemble", ("greedy_select",)),
    ("refit", ("train",)),
    ("score", ("predict_proba", "report", "ensemble_predict")),
    ("emit", ("emit_leaderboard", "save_artifacts", "save_model", "save_ensemble", "write_csv")),
)

FAMILIES = ("forest", "gbt", "knn", "mlp")

# name -> (unit, group, sub-key or None for all, statistic)
# "s" is outermost inclusive time, "self_s" excludes wrapped children.
PER_LAYER: Dict[str, Tuple[str, str, Optional[str], str]] = {
    **{f"harness.{p}_s": ("s", f"harness.{p}", None, "s") for p, _ in HARNESS_PHASES},
    "model.train.calls": ("count", "model.train", None, "calls"),
    **{f"model.train.s.{f}": ("s", "model.train", f, "s") for f in FAMILIES},
    "model.predict_proba.calls": ("count", "model.predict_proba", None, "calls"),
    "model.predict_proba.s": ("s", "model.predict_proba", None, "s"),
    "trees.grow_tree.calls": ("count", "trees.grow_tree", None, "calls"),
    "trees.grow_tree.s": ("s", "trees.grow_tree", None, "s"),
    "trees.codes.s": ("s", "trees.codes", None, "s"),
    "trees.predict_leaf_matrix.s": ("s", "trees.predict_leaf_matrix", None, "s"),
    "forest.fit_forest.self_s": ("s", "forest.fit_forest", None, "self_s"),
    "boosting.fit_gbt.self_s": ("s", "boosting.fit_gbt", None, "self_s"),
    "knn.knn_proba.s": ("s", "knn.knn_proba", None, "s"),
    "mlp.fit_mlp.s": ("s", "mlp.fit_mlp", None, "s"),
    "mlp.mlp_loss_gradient.calls": ("count", "mlp.mlp_loss_gradient", None, "calls"),
    "mlp.mlp_proba.s": ("s", "mlp.mlp_proba", None, "s"),
    "features.matrix.calls": ("count", "features.matrix", None, "calls"),
    "features.matrix.s": ("s", "features.matrix", None, "s"),
    "ensemble.oof_predictions.s": ("s", "ensemble.oof_predictions", None, "s"),
    "ensemble.greedy_select.s": ("s", "ensemble.greedy_select", None, "s"),
    "ensemble.ensemble_predict.s": ("s", "ensemble.ensemble_predict", None, "s"),
    "metrics.confusion.calls": ("count", "metrics.confusion", None, "calls"),
    "metrics.report.s": ("s", "metrics.report", None, "s"),
    "serialize.save.s": ("s", "serialize.save", None, "s"),
    "serialize.load.s": ("s", "serialize.load", None, "s"),
    "data.load_csv.s": ("s", "data.load_csv", None, "s"),
    "data.write_csv.s": ("s", "data.write_csv", None, "s"),
    "preprocess.scenario_preprocess.s": ("s", "preprocess.scenario_preprocess", None, "s"),
    "preprocess.transform_with_artifacts.s": (
        "s",
        "preprocess.transform_with_artifacts",
        None,
        "s",
    ),
}


@dataclass
class _Agg:
    calls: int = 0
    inclusive: float = 0.0  # outermost spans of the group only, so recursion counts once
    self_time: float = 0.0


class Recorder:
    """Spans kept in memory while `active`; written out by `write`."""

    def __init__(self) -> None:
        self.active = False
        self.spans: List[Optional[Tuple[str, Optional[str], int, float, float]]] = []
        self.missing: set = set()  # groups with at least one target that no longer exists
        self._stack: List[list] = []  # [span index, child time] per open span
        self._depth: Dict[str, int] = {}
        self._aggs: Dict[Tuple[str, Optional[str]], _Agg] = {}

    def call(self, group: str, sub: Optional[str], fn: Callable, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)  # filled in on exit, so parents precede children
        self._stack.append([index, 0.0])
        self._depth[group] = self._depth.get(group, 0) + 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - start
            children = self._stack.pop()[1]
            depth = self._depth[group]
            self._depth[group] = depth - 1
            if self._stack:
                self._stack[-1][1] += dur
            agg = self._aggs.setdefault((group, sub), _Agg())
            agg.calls += 1
            agg.self_time += dur - children
            if depth == 1:
                agg.inclusive += dur
            self.spans[index] = (group, sub, parent, start, dur)

    def metrics(self) -> Dict[str, dict]:
        out = {}
        for name, (unit, group, sub, stat) in PER_LAYER.items():
            if group in self.missing:
                out[name] = {"value": None, "unit": unit, "absent": True}
                continue
            aggs = [a for (g, s), a in self._aggs.items() if g == group and sub in (None, s)]
            if stat == "calls":
                value = sum(a.calls for a in aggs)
            elif stat == "s":
                value = sum(a.inclusive for a in aggs)
            else:
                value = sum(a.self_time for a in aggs)
            out[name] = {"value": value, "unit": unit}
        return out

    def write(self, path: Path, extra: dict) -> None:
        doc = {
            **extra,
            "metrics": self.metrics(),
            "missing": sorted(self.missing),
            "span_fields": ["group", "sub", "parent", "start", "seconds"],
            "spans": self.spans,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def _wrap(rec: Recorder, group: str, fn: Callable) -> Callable:
    sub_of = _family_of if group == "model.train" else None

    def wrapper(*args, **kwargs):
        sub = sub_of(args, kwargs) if sub_of is not None else None
        return rec.call(group, sub, fn, args, kwargs)

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", group)
    return wrapper


def _family_of(args, kwargs) -> Optional[str]:
    spec = args[0] if args else kwargs.get("spec")
    return getattr(spec, "family", None)


def _autotab_modules():
    return [m for name, m in list(sys.modules.items()) if name == "autotab" or name.startswith("autotab.")]


def _replace_everywhere(orig: Callable, new: Callable, undo: List[Tuple[object, str, Callable]]) -> None:
    for module in _autotab_modules():
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, new)
                undo.append((module, attr, orig))


@contextlib.contextmanager
def installed(rec: Recorder) -> Iterator[Recorder]:
    """Wrap every target for the duration of the block, then restore the originals."""
    undo: List[Tuple[object, str, Callable]] = []
    try:
        for module_name, fname, group in LAYER_TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                rec.missing.add(group)
                continue
            orig = getattr(module, fname, None)
            if not callable(orig):
                rec.missing.add(group)
                continue
            _replace_everywhere(orig, _wrap(rec, group, orig), undo)
        try:
            harness = importlib.import_module(HARNESS_MODULE)
        except ImportError:
            harness = None
        for phase, names in HARNESS_PHASES:
            group = f"harness.{phase}"
            for fname in names:
                current = getattr(harness, fname, None)
                if not callable(current):
                    rec.missing.add(group)
                    continue
                setattr(harness, fname, _wrap(rec, group, current))
                undo.append((harness, fname, current))
        yield rec
    finally:
        rec.active = False
        for module, attr, value in reversed(undo):
            setattr(module, attr, value)
