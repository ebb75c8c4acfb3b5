"""The benchmark's tracer still finds, wraps and restores its covec functions.

perfbench/tracer.py patches every covec module binding of the public
functions it lists in WRAPPED.  A rename or a dropped import in the
package would only break the traced benchmark run; these checks catch it
in the fast suite.
"""

import importlib
import sys
from pathlib import Path

import pytest

import covec.cli  # noqa: F401  (imports every module the tracer patches)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer"), importlib.import_module("selftest")


def _covec_modules():
    return {name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == "covec" or name.startswith("covec."))}


def test_every_wrapped_name_resolves(perfbench):
    tracer, _ = perfbench
    missing = [f"covec.{short}.{name}"
               for short, names in tracer.WRAPPED.items()
               for name in names
               if not callable(getattr(importlib.import_module("covec." + short),
                                       name, None))]
    assert missing == []


def test_tracer_install_patches_and_uninstall_restores(perfbench):
    tracer, selftest = perfbench
    before = {name: dict(vars(mod)) for name, mod in _covec_modules().items()}
    tr = tracer.Tracer()
    tr.install()
    try:
        patched = set(tr.patched_bindings)
        for short, names in tracer.WRAPPED.items():
            home = "covec." + short
            for name in names:
                assert f"{home}.{name}" in patched
                assert getattr(sys.modules[home], name) is not before[home][name]
    finally:
        tr.uninstall()
    for name, mod in _covec_modules().items():
        now = vars(mod)
        changed = [attr for attr, value in before.get(name, {}).items()
                   if now.get(attr) is not value]
        assert changed == [], f"{name}: bindings not restored: {changed}"
    # the benchmark's own check of the cross-module bindings it relies on
    selftest.check_patching()


def test_tracer_counts_nominal_point_edge_pairs(perfbench):
    # the counter binds batch_signed_distance's ``polyline`` and ``points``
    # by name; it counts every supersample of the window against every
    # polyline vertex, however many pairs the function actually tests
    tracer, _ = perfbench
    import covec.raster as raster
    from covec.model import RasterizerConfig

    from conftest import disk_path

    rcfg = RasterizerConfig()
    tr = tracer.Tracer()
    tr.install()
    try:
        pc = raster.path_coverage(disk_path(20, 14, 5), 40, 32, rcfg)
    finally:
        tr.uninstall()
    x0, y0, x1, y1 = pc.window
    samples = (x1 - x0) * (y1 - y0) * rcfg.supersample ** 2
    assert samples > 0
    assert (tr.counts["geometry.batch_signed_distance.point_edge_pairs"]
            == samples * pc.polyline.n_vertices)
    assert tr.counts["raster.path_coverage.calls_nograd"] == 1


def test_tracer_counts_cleanup_removals(perfbench):
    # the counter unpacks cleanup_layer's three return values; the third
    # is always 0, as cleanup only removes
    tracer, _ = perfbench
    import covec.refine as refine
    from covec.model import RasterizerConfig
    from covec.raster import WHITE, layer_forward, path_coverage

    from conftest import disk_path

    rcfg = RasterizerConfig()
    solid = disk_path(10, 10, 5, color=(0.3, 0.3, 0.3), tag="illumination")
    faint = disk_path(10, 10, 4, color=(0.9, 0.1, 0.1), opacity=1e-3,
                      tag="illumination")
    target = layer_forward([solid], WHITE, 20, 20, rcfg).image
    paths = [solid, faint]
    maps = [path_coverage(p, 20, 20, rcfg) for p in paths]
    tr = tracer.Tracer()
    tr.install()
    try:
        kept, _, _ = refine.cleanup_layer(paths, maps, WHITE, WHITE, target)
    finally:
        tr.uninstall()
    assert len(kept) == 1 and kept[0] is solid
    assert tr.counts["refine.cleanup_layer.removed"] == 1
    assert tr.counts["refine.cleanup_layer.merged"] == 0


def test_every_workload_sets_up_on_tiny_inputs(perfbench, tmp_path):
    # start() builds the workload's configs, and RunConfig checks its
    # paths when constructed; perfbench/selftest.py is the only other
    # caller, and it is slow
    workloads = importlib.import_module("workloads")
    for name, workload in workloads.WORKLOADS.items():
        inputs, outputs = tmp_path / name / "in", tmp_path / name / "out"
        inputs.mkdir(parents=True)
        outputs.mkdir()
        workload.generate(0, inputs, tiny=True)
        workload.start(inputs, outputs, tiny=True)
        assert list(outputs.iterdir()) == [], name
