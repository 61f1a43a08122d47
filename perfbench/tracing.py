"""Span tracing of the worldsheet layers, installed from outside the package.

The tracer wraps every public function of each layer module and re-binds the
wrapper under every module attribute that held the original, so calls that go
through an imported alias (``variation.frame``, ``cli.boundary_data``) are seen
as well as calls through the defining module.  Methods that are too cheap and
too frequent to be spans (``Embedding.position`` and its derivatives,
``numpy.linalg.svd``) are counted instead, against the layer of the innermost
open span.

Spans are kept in memory as ``[name, layer, start, end, parent, pass_id,
points]`` and written out when the run ends.  The program runs at most one
traced call at a time (the scan's worker thread runs while the main thread
waits on it), so one shared stack gives each span its parent.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import time
from collections import Counter

import numpy as np

LAYERS = ("background", "geometry", "boundary", "integrability", "variation",
          "dynamics", "catalog", "cli")
# layers whose calls take a batch of points as their second argument
POINT_LAYERS = ("geometry", "boundary")
BACKGROUND_METHODS = ("metric_at", "christoffels_at", "riemann_at")  # spans
MAP_METHODS = ("position", "d_position", "dd_position")  # counted, not spans

# every per-layer metric, per traced pass unless it is a ratio
PER_LAYER_UNITS = {
    "geometry.calls": "count", "geometry.points": "count",
    "geometry.points_per_call": "ratio", "geometry.self_s": "s",
    "geometry.map_calls": "count", "geometry.map_calls_per_call": "ratio",
    "geometry.svd_calls": "count",
    "geometry.frame.calls": "count", "geometry.frame.self_s": "s",
    "geometry.normal_frame.calls": "count", "geometry.normal_frame.self_s": "s",
    "geometry.extrinsic_curvature.calls": "count",
    "geometry.extrinsic_curvature.self_s": "s",
    "boundary.calls": "count", "boundary.points": "count", "boundary.self_s": "s",
    "boundary.boundary_data.calls": "count", "boundary.boundary_data.self_s": "s",
    "integrability.calls": "count", "integrability.self_s": "s",
    "integrability.svd_calls": "count",
    "variation.calls": "count", "variation.self_s": "s",
    "variation.action_evals": "count",
    "dynamics.steps": "count", "dynamics.step.self_s": "s", "dynamics.step_us": "us",
    "dynamics.diagnostics.calls": "count", "dynamics.diagnostics.self_s": "s",
    "cli.self_s": "s", "cli.bytes_written": "B", "cli.files_written": "count",
    "catalog.calls": "count", "catalog.self_s": "s",
    "background.calls": "count", "background.self_s": "s",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """Collects spans and counters while ``active``; inert (pass-through) otherwise."""

    def __init__(self):
        self.active = False
        self.pass_id = None
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"worldsheet.{layer}") for layer in LAYERS}
        holders = [importlib.import_module("worldsheet")] + list(modules.values())
        for layer, mod in modules.items():
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapped = self._span_wrapper(f"{layer}.{name}", layer, fn)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            self._rebind(holder, attr, wrapped)
        metric = modules["background"].BackgroundMetric
        for meth in BACKGROUND_METHODS:
            self._rebind(metric, meth, self._span_wrapper(
                f"background.{meth}", "background", getattr(metric, meth)))
        embedding = modules["geometry"].Embedding
        for meth in MAP_METHODS:
            self._rebind(embedding, meth, self._count_wrapper("map", getattr(embedding, meth)))
        self._rebind(np.linalg, "svd", self._count_wrapper("svd", np.linalg.svd))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    def _rebind(self, holder, attr: str, value) -> None:
        self._restore.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def _span_wrapper(self, name: str, layer: str, fn):
        tracer = self
        with_points = layer in POINT_LAYERS
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            points = 0
            if with_points:
                pt = args[1] if len(args) > 1 else kwargs.get("point")
                if isinstance(pt, np.ndarray) and pt.ndim >= 1:
                    points = int(np.prod(pt.shape[:-1]))
            spans, stack = tracer.spans, tracer.stack
            idx = len(spans)
            spans.append([name, layer, clock(), 0.0, stack[-1] if stack else -1,
                          tracer.pass_id, points])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][3] = clock()
                if stack.pop() != idx:
                    raise RuntimeError(f"span {name} closed out of order")

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, counter: str, fn):
        tracer = self

        def counted(*args, **kwargs):
            if tracer.active:
                stack = tracer.stack
                layer = tracer.spans[stack[-1]][1] if stack else "benchmark"
                tracer.counters[(layer, counter)] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- output -------------------------------------------------------------

    def write(self, path) -> None:
        """Write spans as gzipped JSON lines, then the counters as one last line."""
        keys = ("name", "layer", "start", "end", "parent", "pass", "points")
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
            fh.write(json.dumps({"counters": {f"{layer}.{name}": n for (layer, name), n
                                              in sorted(self.counters.items())}}) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[4] >= 0:
            children.setdefault(span[4], []).append((span[2], span[3]))
    out = []
    for idx, span in enumerate(spans):
        covered, reach = 0.0, span[2]
        for start, end in sorted(children.get(idx, ())):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out.append(span[3] - span[2] - covered)
    return out


def layer_metrics(spans: list[list], counters: Counter, passes: int, extra: dict) -> dict:
    """Per-pass layer metrics from the spans and counters of ``passes`` traced passes.

    A layer's ``calls`` are the spans entered from outside that layer; its
    ``self_s`` sums the self time of all its spans.  ``extra`` carries the
    benchmark-side counts (``cli.bytes_written``, ``cli.files_written``) and
    ``trace.overhead_frac``.
    """
    selfs = self_times(spans)
    calls, points, layer_self = Counter(), Counter(), Counter()
    fn_calls, fn_self, fn_total = Counter(), Counter(), Counter()
    for span, own in zip(spans, selfs):
        name, layer, start, end, parent = span[:5]
        if parent < 0 or spans[parent][1] != layer:
            calls[layer] += 1
            points[layer] += span[6]
        layer_self[layer] += own
        fn_calls[name] += 1
        fn_self[name] += own
        fn_total[name] += end - start

    def per_pass(x):
        return x / passes

    def ratio(a, b):
        return a / b if b else 0.0

    c = counters
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = per_pass(calls[layer])
        m[f"{layer}.self_s"] = per_pass(layer_self[layer])
    for layer in POINT_LAYERS:
        m[f"{layer}.points"] = per_pass(points[layer])
    m["geometry.points_per_call"] = ratio(points["geometry"], calls["geometry"])
    m["geometry.map_calls"] = per_pass(c[("geometry", "map")])
    m["geometry.map_calls_per_call"] = ratio(c[("geometry", "map")], calls["geometry"])
    m["geometry.svd_calls"] = per_pass(c[("geometry", "svd")])
    m["integrability.svd_calls"] = per_pass(c[("integrability", "svd")])
    for fn in ("geometry.frame", "geometry.normal_frame", "geometry.extrinsic_curvature",
               "boundary.boundary_data", "dynamics.diagnostics"):
        m[f"{fn}.calls"] = per_pass(fn_calls[fn])
        m[f"{fn}.self_s"] = per_pass(fn_self[fn])
    m["variation.action_evals"] = per_pass(fn_calls["variation.dng_action"]
                                           + fn_calls["variation.edge_action"])
    m["dynamics.steps"] = per_pass(fn_calls["dynamics.step"])
    m["dynamics.step.self_s"] = per_pass(fn_self["dynamics.step"])
    m["dynamics.step_us"] = 1e6 * ratio(fn_total["dynamics.step"], fn_calls["dynamics.step"])
    m.update(extra)
    return {name: m[name] for name in PER_LAYER_UNITS}
