"""Outside-in layer spans for the traced benchmark run.

The package is not changed: each layer's public functions are wrapped by
patching the name in the module where callers look it up (for example
``slicemodel.stack_channels``, which ``slicemodel`` imported from ``volume``).
Spans (name, start, end, parent, attributes) stay in memory until the run
ends. A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import statistics
import time
from collections import defaultdict

import numpy as np

from hemtriage import cli, folds, gbdt, metrics, slicemodel, stacker, svgplots, synth, thresholds

GROWTH_MODES = ("leafwise", "depthwise", "oblivious")
# Layers whose share of the timed wall time is reported: the predicted
# dominant layer of each workload.
SHARED_LAYERS = ("gbdt.train", "gbdt.predict", "thresholds.optimize")

#: Per-layer metrics and their units. Times and counts are per timed
#: iteration; synth.* are per set-up. Ratios with no calls read 0.
UNITS = {
    "volume.load_s": "s", "volume.window_s": "s", "volume.window_calls": "count",
    "slicemodel.features_s": "s", "slicemodel.features_calls": "count",
    "slicemodel.features_useful_ratio": "ratio", "slicemodel.probs_io_s": "s",
    "folds.assign_s": "s", "folds.oof_s": "s", "folds.train_fn_calls": "count",
    **{f"gbdt.{name}.{mode}": unit for mode in GROWTH_MODES
       for name, unit in (("train_s", "s"), ("trees", "count"), ("train_ms_per_tree", "ms"))},
    "gbdt.predict_s": "s", "gbdt.predict_calls": "count", "gbdt.predict_row_trees": "count",
    "gbdt.predict_ns_per_row_tree": "ns",
    "stacker.windows_s": "s", "stacker.train_s": "s", "stacker.apply_s": "s",
    "stacker.apply_calls": "count",
    "thresholds.optimize_s": "s", "thresholds.objective_evals": "count",
    "thresholds.objective_s": "s", "thresholds.gp_step_ms": "ms",
    "metrics.report_s": "s", "metrics.auc_s": "s", "metrics.roc_s": "s",
    "svgplots.render_s": "s",
    **{f"{name}_share": "ratio" for name in SHARED_LAYERS},
    "synth.generate_s": "s", "synth.write_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Span:
    __slots__ = ("name", "phase", "start", "end", "parent", "attrs")

    def __init__(self, name, phase, start, parent):
        self.name, self.phase, self.start, self.parent = name, phase, start, parent
        self.end = start
        self.attrs = None

    def as_dict(self):
        return {"name": self.name, "phase": self.phase, "start": self.start,
                "end": self.end, "parent": self.parent, "attrs": self.attrs}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.phase = ""
        self.enabled = False
        self._open: list[int] = []
        self._patches = []

    @contextlib.contextmanager
    def span(self, name):
        if not self.enabled:
            yield
            return
        index = self._start(name)
        try:
            yield
        finally:
            self._finish(index)

    def _start(self, name) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.phase, time.perf_counter(), parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _finish(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._open.pop()

    def traced(self, fn, name, describe=None):
        """``fn`` wrapped in a span; ``describe(arguments, result)`` adds attributes."""
        signature = inspect.signature(fn) if describe is not None else None

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = self._start(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._finish(index)
            if describe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.spans[index].attrs = describe(bound.arguments, result)
            return result
        return wrapper

    def patch(self, owner, attr, name, describe=None) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) with a traced wrapper."""
        is_dict = isinstance(owner, dict)
        original = owner.get(attr) if is_dict else getattr(owner, attr, None)
        if original is None:
            return  # the layer no longer has this name; its metrics read 0
        wrapper = self.traced(original, name, describe)
        if is_dict:
            owner[attr] = wrapper
        else:
            setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, is_dict))

    def install(self) -> None:
        self.patch(cli, "load_manifest_volumes", "volume.load")
        self.patch(slicemodel, "stack_channels", "volume.window")
        self.patch(slicemodel, "extract_features", "slicemodel.features", _slice_key)
        self.patch(slicemodel, "save_slice_probs", "slicemodel.probs_io")
        self.patch(slicemodel, "load_slice_probs", "slicemodel.probs_io")
        self.patch(folds, "assign_folds", "folds.assign")
        self.patch(folds, "generate_oof", "folds.oof")
        factory = getattr(slicemodel, "reference_train_fn", None)
        if factory is not None:
            def traced_factory(*args, **kwargs):
                return self.traced(factory(*args, **kwargs), "folds.train_fn")
            slicemodel.reference_train_fn = traced_factory
            self._patches.append((slicemodel, "reference_train_fn", factory, False))
        self.patch(gbdt, "train", "gbdt.train", _train_attrs)
        self.patch(gbdt, "predict", "gbdt.predict", _predict_attrs)
        self.patch(stacker, "build_windows", "stacker.windows")
        self.patch(stacker, "train_stacker", "stacker.train")
        self.patch(stacker, "apply_stacker_all", "stacker.apply")
        self.patch(stacker, "apply_stacker", "stacker.apply_scan")
        self.patch(thresholds, "optimize_thresholds", "thresholds.optimize", _optimize_attrs)
        for objective in list(thresholds.OBJECTIVES):
            self.patch(thresholds.OBJECTIVES, objective, "thresholds.objective")
        self.patch(metrics, "build_report", "metrics.report")
        self.patch(metrics, "compute_auc", "metrics.auc")
        self.patch(metrics, "roc_points", "metrics.roc")
        self.patch(svgplots, "line_chart", "svgplots.render")
        self.patch(svgplots, "box_chart", "svgplots.render")
        self.patch(synth, "generate", "synth.generate")
        self.patch(synth, "write_dataset", "synth.write")

    def restore(self) -> None:
        for owner, attr, original, is_dict in reversed(self._patches):
            if is_dict:
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()


def _slice_key(arguments, result):
    image = np.ascontiguousarray(arguments["image"])
    key = image.tobytes() + repr(arguments["position"]).encode()
    return {"slice": hashlib.blake2b(key, digest_size=16).hexdigest()}


def _train_attrs(arguments, result):
    return {"growth": arguments["config"].growth, "trees": len(result.trees)}


def _predict_attrs(arguments, result):
    return {"row_trees": len(result) * len(arguments["model"].trees)}


def _optimize_attrs(arguments, result):
    return {"budget": arguments["budget"]}


def self_times(spans) -> list[float]:
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    return [span.end - span.start - c for span, c in zip(spans, covered)]


def layer_table(spans, phases) -> dict[str, dict]:
    """Per span name: calls, inclusive and self seconds over the given phases."""
    table = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for span, self_s in zip(spans, self_times(spans)):
        if span.phase in phases:
            row = table[span.name]
            row["calls"] += 1
            row["total_s"] += span.end - span.start
            row["self_s"] += self_s
    return dict(table)


def _iteration_metrics(spans, phase, initial_points) -> dict[str, float]:
    picked = [s for s in spans if s.phase == phase]

    def total(name, **match):
        return sum(s.end - s.start for s in picked if s.name == name
                   and all(s.attrs and s.attrs.get(k) == v for k, v in match.items()))

    def calls(name):
        return sum(1 for s in picked if s.name == name)

    features = [s for s in picked if s.name == "slicemodel.features"]
    distinct = len({s.attrs["slice"] for s in features})
    out = {
        "volume.load_s": total("volume.load"),
        "volume.window_s": total("volume.window"),
        "volume.window_calls": calls("volume.window"),
        "slicemodel.features_s": total("slicemodel.features"),
        "slicemodel.features_calls": len(features),
        "slicemodel.features_useful_ratio": distinct / len(features) if features else 0.0,
        "slicemodel.probs_io_s": total("slicemodel.probs_io"),
        "folds.assign_s": total("folds.assign"),
        "folds.oof_s": total("folds.oof"),
        "folds.train_fn_calls": calls("folds.train_fn"),
    }
    for mode in GROWTH_MODES:
        seconds = total("gbdt.train", growth=mode)
        trees = sum(s.attrs["trees"] for s in picked
                    if s.name == "gbdt.train" and s.attrs["growth"] == mode)
        out[f"gbdt.train_s.{mode}"] = seconds
        out[f"gbdt.trees.{mode}"] = trees
        out[f"gbdt.train_ms_per_tree.{mode}"] = 1e3 * seconds / trees if trees else 0.0
    row_trees = sum(s.attrs["row_trees"] for s in picked if s.name == "gbdt.predict")
    predict_s = total("gbdt.predict")
    optimize = [s for s in picked if s.name == "thresholds.optimize"]
    optimize_s = sum(s.end - s.start for s in optimize)
    objective_s = total("thresholds.objective")
    gp_steps = sum(max(s.attrs["budget"] - initial_points, 0) for s in optimize)
    out.update({
        "gbdt.predict_s": predict_s,
        "gbdt.predict_calls": calls("gbdt.predict"),
        "gbdt.predict_row_trees": row_trees,
        "gbdt.predict_ns_per_row_tree": 1e9 * predict_s / row_trees if row_trees else 0.0,
        "stacker.windows_s": total("stacker.windows"),
        "stacker.train_s": total("stacker.train"),
        "stacker.apply_s": total("stacker.apply"),
        "stacker.apply_calls": calls("stacker.apply_scan"),
        "thresholds.optimize_s": optimize_s,
        "thresholds.objective_evals": calls("thresholds.objective"),
        "thresholds.objective_s": objective_s,
        "thresholds.gp_step_ms": 1e3 * (optimize_s - objective_s) / gp_steps if gp_steps else 0.0,
        "metrics.report_s": total("metrics.report"),
        "metrics.auc_s": total("metrics.auc"),
        "metrics.roc_s": total("metrics.roc"),
        "svgplots.render_s": total("svgplots.render"),
    })
    wall = sum(s.end - s.start for s in picked if s.parent is None)
    table = layer_table(spans, {phase})
    for name in SHARED_LAYERS:
        out[f"{name}_share"] = table[name]["self_s"] / wall if name in table and wall else 0.0
    return out


def layer_metrics(spans, setup_phases, timed_phases, initial_points) -> dict[str, float]:
    """Per-layer metrics: medians over traced timed iterations; synth over set-ups."""
    per_iteration = [_iteration_metrics(spans, phase, initial_points) for phase in timed_phases]
    out = {name: statistics.median(m[name] for m in per_iteration) for name in per_iteration[0]}
    for name, span_name in (("synth.generate_s", "synth.generate"), ("synth.write_s", "synth.write")):
        out[name] = statistics.median(
            sum(s.end - s.start for s in spans if s.phase == phase and s.name == span_name)
            for phase in setup_phases)
    return out
