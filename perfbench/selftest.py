#!/usr/bin/env python3
"""Fast self-test of the benchmark (about a minute on two cores).

Run from the repository root:

    python3 perfbench/selftest.py

It checks that seed 0 of ``scene64_full`` reproduces
``make_acceptance_scene()`` byte for byte, that the tracer patches every
module binding of a wrapped function and restores all of them, and then
runs every workload at a tiny schedule, untraced and traced, each in its
own process.  Every end-to-end and per-layer metric named in
BENCHMARK.json must be emitted with its unit, every check must pass, and
the summed per-module self times must not exceed the traced time.  The
traced figures must also show the workloads separating the layers as
BENCHMARK.json says (window fill, init time, reference renderer use).
Exits nonzero on the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]


def check_seed0_scene() -> None:
    import numpy as np

    import scenes
    from covec.synthetic import (make_acceptance_scene, make_disk_grid_document,
                                 make_icon_scene, make_recolor_reference)

    ref = make_acceptance_scene()
    ours = scenes.lit_scene(0)
    for key in ("target", "albedo", "labels"):
        a, b = getattr(ref, key), ours[key]
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), key
    assert scenes.icon_scene(0).tobytes() == make_icon_scene(128).tobytes()
    grid = make_disk_grid_document()
    ours_grid = scenes.disk_grid_edit(0)
    for want, got in ((grid, ours_grid["document"]),
                      (make_recolor_reference(grid, [2, 5]), ours_grid["reference"])):
        for p, q in zip(want.albedo, got.albedo):
            assert np.array_equal(p.fill_color, q.fill_color)
            assert np.array_equal(p.control_points, q.control_points)
    assert scenes.lit_scene(1)["target"].tobytes() != ref.target.tobytes()


def check_patching() -> None:
    import covec.cli  # noqa: F401  (loads every module that re-binds names)
    import covec.edit
    import covec.geometry
    import covec.optimize
    import covec.raster
    import covec.refine
    import covec.svg_io
    from tracer import Tracer

    originals = {
        (m.__name__, name): getattr(m, name)
        for m, name in [
            (covec.raster, "batch_signed_distance"), (covec.raster, "flatten_bezier"),
            (covec.svg_io, "flatten_bezier"), (covec.optimize, "layer_forward"),
            (covec.refine, "layer_forward"), (covec.edit, "layer_forward"),
            (covec.refine, "path_coverage"), (covec.edit, "render_composite"),
            (covec.cli, "reference_composite"), (covec.cli, "run"),
        ]
    }
    tr = Tracer()
    tr.install()
    try:
        patched = set(tr.patched_bindings)
        for (mod, name), fn in originals.items():
            assert f"{mod}.{name}" in patched, f"{mod}.{name} not patched"
            assert getattr(sys.modules[mod], name) is not fn
    finally:
        tr.uninstall()
    for (mod, name), fn in originals.items():
        assert getattr(sys.modules[mod], name) is fn, f"{mod}.{name} not restored"


COMMON = {"peak_rss_mb": "MB", "setup_s": "s", "fail_rate": "ratio"}
VECTORIZE = {"vectorize_s": "s", "final_mse": "mse", **COMMON}
# End-to-end figures printed by name (before the JSON line) per workload.
NAMED_FIGURES = {
    "scene64_full": VECTORIZE,
    "icon128_albedo": VECTORIZE,
    "edit_render64": {"edit_s": "s", "render_s": "s", "edit_mse_after": "mse",
                      **COMMON},
}


def run_tiny(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0, proc.stderr
    named = {line.split()[1]: line.split()[3] for line in lines
             if line.startswith("metric ")}
    for name, unit in NAMED_FIGURES[workload].items():
        assert named.get(name) == unit, f"{workload}: metric {name} [{unit}] not printed"
    return result


def check_layer_separation(m: dict) -> None:
    """The workloads stress the layers their BENCHMARK.json entries claim."""
    fill = "raster.path_coverage.window_fill"
    assert m["scene64_full"][fill] > m["icon128_albedo"][fill]
    init = sum(v for k, v in m["scene64_full"].items()
               if k.startswith("init_layers.") and k.endswith("self_s"))
    assert init < 0.01 * m["scene64_full"]["trace.traced_s"], init
    assert m["icon128_albedo"]["init_layers.kmeans_labels.self_s"] > 0
    ref = "svg_io.reference_composite.self_s"
    assert m["edit_render64"][ref] > 0
    assert m["scene64_full"][ref] == m["icon128_albedo"][ref] == 0
    assert m["scene64_full"]["refine.assign_light_colors.calls"] > 0
    assert m["icon128_albedo"]["refine.assign_light_colors.calls"] == 0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_seed0_scene()
    check_patching()
    layers = {}
    for w in spec["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            metrics = run_tiny(name, trace)["metrics"]
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in metrics.items()}
            assert got == want, f"{name} trace {trace}: {got} != {want}"
            if trace:
                layers[name] = {k: v["value"] for k, v in metrics.items()}
                self_sum = sum(v for k, v in layers[name].items()
                               if k.endswith("self_s"))
                traced = layers[name]["trace.traced_s"]
                assert 0 < self_sum <= traced, (name, self_sum, traced)
            print(f"ok {name} trace {trace}")
    check_layer_separation(layers)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
