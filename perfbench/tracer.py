"""Span tracing around the public functions of covec's modules.

The tracer replaces every module binding of each wrapped function (the
defining module and every covec module that imported the name) with a
wrapper that records a span: name, start, end, parent span and run id.
Counters are derived from call arguments and return values only, so the
package itself is not modified.  ``uninstall`` puts every original
binding back.

Spans stay in memory; ``write_spans`` saves them at the end of a run.
A span's self time is its duration minus the time covered by its direct
children (calls are synchronous, so children nest inside the parent).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import logging
import sys
import time
from collections import defaultdict

import numpy as np

# Public functions wrapped per module.  Entry points (pipeline.run,
# edit.run_edit, cli.main) are wrapped too so every span has a parent.
WRAPPED = {
    "geometry": ["flatten_bezier", "batch_signed_distance"],
    "raster": ["path_coverage", "coverage_backward", "layer_forward",
               "layer_backward", "render_composite"],
    "optimize": ["adam_step", "loss_struct", "loss_recon", "run_structural"],
    "refine": ["propose_paths", "cleanup_layer", "refine_layer",
               "assign_light_colors"],
    "init_layers": ["kmeans_labels", "trace_boundary", "paths_for_groups"],
    "svg_io": ["emit_svg", "parse_svg", "reference_composite"],
    "edit": ["candidate_paths", "apply_color_edit", "run_edit"],
    "image_io": ["read_image", "write_image", "read_png", "write_png",
                 "write_label_png", "read_label_png", "read_label_map",
                 "read_ppm", "write_ppm"],
    "pipeline": ["run"],
    "cli": ["main"],
}

# Per-layer metrics reported by a traced run, with their units.  Values
# are per traced operation (sums divided by the number of traced ops),
# except cache_mb (largest single call) and the two ratios.
PER_LAYER_UNITS = {
    "geometry.batch_signed_distance.self_s": "s",
    "geometry.batch_signed_distance.point_edge_pairs": "count",
    "geometry.flatten_bezier.calls": "count",
    "geometry.flatten_bezier.self_s": "s",
    "geometry.flatten_bezier.vertices": "count",
    "raster.path_coverage.calls_grad": "count",
    "raster.path_coverage.calls_nograd": "count",
    "raster.path_coverage.self_s": "s",
    "raster.path_coverage.window_fill": "ratio",
    "raster.path_coverage.band_frac": "ratio",
    "raster.layer_forward.calls": "count",
    "raster.layer_forward.self_s": "s",
    "raster.layer_forward.cache_mb": "MB",
    "raster.layer_backward.calls": "count",
    "raster.layer_backward.self_s": "s",
    "raster.coverage_backward.self_s": "s",
    "optimize.loss_struct.self_s": "s",
    "optimize.loss_recon.self_s": "s",
    "optimize.run_structural.self_s": "s",
    "optimize.adam_step.calls": "count",
    "optimize.adam_step.self_s": "s",
    "optimize.adam_step.skipped": "count",
    "refine.propose_paths.proposed": "count",
    "refine.cleanup_layer.self_s": "s",
    "refine.cleanup_layer.removed": "count",
    "refine.cleanup_layer.merged": "count",
    "refine.kept_ratio": "ratio",
    "refine.refine_layer.self_s": "s",
    "refine.assign_light_colors.calls": "count",
    "init_layers.kmeans_labels.self_s": "s",
    "init_layers.trace_boundary.self_s": "s",
    "init_layers.paths_for_groups.self_s": "s",
    "init_layers.paths_init": "count",
    "svg_io.emit_svg.self_s": "s",
    "svg_io.parse_svg.self_s": "s",
    "svg_io.reference_composite.self_s": "s",
    "edit.candidate_paths.self_s": "s",
    "edit.apply_color_edit.self_s": "s",
    "edit.candidates": "count",
    "image_io.self_s": "s",
    "pipeline.paths_final.albedo": "count",
    "pipeline.paths_final.shade": "count",
    "pipeline.paths_final.light": "count",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_s": "s",
}

_BAND_LO, _BAND_HI = 1e-6, 1.0 - 1e-6


def _nbytes(*arrays) -> int:
    return sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))


def _render_nbytes(render) -> int:
    total = _nbytes(render.image, render.alphas, render.unders,
                    render.trans_above, render.effective_colors)
    for pc in render.coverages:
        total += _nbytes(pc.coverage, pc.sigma, pc.unit, pc.edge_index,
                         pc.foot_s, pc.scatter_idx, pc.scatter_w,
                         pc.polyline.vertices)
    return total


class _SkipCounter(logging.Handler):
    """Counts the optimizer's non-finite-gradient skip warnings."""

    def __init__(self, counts):
        super().__init__(level=logging.WARNING)
        self.counts = counts

    def emit(self, record):
        if record.getMessage().startswith("skipping Adam step"):
            self.counts["optimize.adam_step.skipped"] += 1


class Tracer:
    """Records spans and counters for calls into covec while installed."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, start, end, run)
        self.counts: dict[str, float] = defaultdict(float)
        self.cache_peak = 0
        self.run_id = 0
        self._next_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple] = []  # (module, attr, original)
        self._handler = _SkipCounter(self.counts)

    # -- installation -------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        homes = {short: importlib.import_module("covec." + short)
                 for short in WRAPPED}
        covec_modules = [m for n, m in list(sys.modules.items())
                         if m is not None
                         and (n == "covec" or n.startswith("covec."))]
        for short, names in WRAPPED.items():
            for name in names:
                original = getattr(homes[short], name)
                wrapper = self._wrap(f"{short}.{name}", original)
                for mod in covec_modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))
        logging.getLogger("covec.optimize").addHandler(self._handler)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        logging.getLogger("covec.optimize").removeHandler(self._handler)

    @property
    def patched_bindings(self) -> list[str]:
        return [f"{mod.__name__}.{attr}" for mod, attr, _ in self._patched]

    # -- spans ----------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block (used for an operation's root)."""
        sid = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, name, start, time.perf_counter())

    def _open(self) -> int:
        sid = self._next_id
        self._next_id += 1
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, name: str, start: float, end: float) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((sid, parent, name, start, end, self.run_id))

    def _wrap(self, name: str, fn):
        count = getattr(self, "_count_" + name.replace(".", "_"), None)
        sig = inspect.signature(fn) if count is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, name, start, time.perf_counter())
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                count(bound.arguments, result)
            return result

        return wrapper

    # -- counters (arguments and return values only) ---------------------

    def _count_geometry_batch_signed_distance(self, a, result):
        self.counts["geometry.batch_signed_distance.point_edge_pairs"] += (
            np.asarray(a["points"]).shape[0] * a["polyline"].n_vertices)

    def _count_geometry_flatten_bezier(self, a, result):
        self.counts["geometry.flatten_bezier.vertices"] += result.n_vertices

    def _count_raster_path_coverage(self, a, result):
        kind = "calls_grad" if a["with_grad"] else "calls_nograd"
        self.counts["raster.path_coverage." + kind] += 1
        x0, y0, x1, y1 = result.window
        area = max(0, x1 - x0) * max(0, y1 - y0)
        self.counts["pc.window_px"] += area
        self.counts["pc.canvas_px"] += a["width"] * a["height"]
        if area:
            win = result.coverage[y0:y1, x0:x1]
            self.counts["pc.band_px"] += int(np.count_nonzero(
                (win > _BAND_LO) & (win < _BAND_HI)))

    def _count_raster_layer_forward(self, a, result):
        self.cache_peak = max(self.cache_peak, _render_nbytes(result))

    def _count_refine_propose_paths(self, a, result):
        self.counts["refine.propose_paths.proposed"] += len(result)

    def _count_refine_cleanup_layer(self, a, result):
        _paths, removed, merged = result
        self.counts["refine.cleanup_layer.removed"] += removed
        self.counts["refine.cleanup_layer.merged"] += merged

    def _count_init_layers_paths_for_groups(self, a, result):
        groups, _renders = result
        self.counts["init_layers.paths_init"] += sum(len(g) for g in groups)

    def _count_edit_candidate_paths(self, a, result):
        self.counts["edit.candidates"] += len(result)

    def _count_pipeline_run(self, a, result):
        doc = result.document
        for tag in ("albedo", "shade", "light"):
            self.counts["pipeline.paths_final." + tag] += len(doc.layer(tag))

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name over all recorded spans."""
        child = defaultdict(float)
        for _sid, parent, _name, start, end, _run in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for sid, _parent, name, start, end, _run in self.spans:
            out[name] += (end - start) - child[sid]
        return dict(out)

    def per_layer(self, n_ops: int) -> dict[str, float]:
        """Per-layer metrics per traced op (see PER_LAYER_UNITS)."""
        calls = defaultdict(int)
        for _sid, _parent, name, _s, _e, _run in self.spans:
            calls[name] += 1
        selfs = self.self_times()
        m: dict[str, float] = {}
        for key in PER_LAYER_UNITS:
            if key.startswith("trace."):
                continue
            fn, _, metric = key.rpartition(".")
            if metric == "self_s" and fn == "image_io":
                m[key] = sum(v for k, v in selfs.items()
                             if k.startswith("image_io.")) / n_ops
            elif metric == "self_s":
                m[key] = selfs.get(fn, 0.0) / n_ops
            elif metric == "calls":
                m[key] = calls.get(fn, 0) / n_ops
            else:
                m[key] = self.counts.get(key, 0.0) / n_ops
        c = self.counts
        m["raster.path_coverage.window_fill"] = (
            c["pc.window_px"] / c["pc.canvas_px"] if c["pc.canvas_px"] else 0.0)
        m["raster.path_coverage.band_frac"] = (
            c["pc.band_px"] / c["pc.window_px"] if c["pc.window_px"] else 0.0)
        m["raster.layer_forward.cache_mb"] = self.cache_peak / 2.0 ** 20
        proposed = c["refine.propose_paths.proposed"]
        dropped = c["refine.cleanup_layer.removed"] + c["refine.cleanup_layer.merged"]
        m["refine.kept_ratio"] = (proposed - dropped) / proposed if proposed else 0.0
        return m

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, run in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "name": name, "start": start,
                                     "end": end, "run": run}) + "\n")
