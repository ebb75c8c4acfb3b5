"""Edit-mask extraction, candidate ranking, and shade-aware recoloring."""

import gc
import importlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covec.edit
import covec.raster
from covec.edit import (EditConfig, apply_color_edit, candidate_paths,
                        compute_edit_mask, mse, run_edit)
from covec.model import LayeredDocument, RasterizerConfig
from covec.raster import WHITE, layer_forward, render_composite
from covec.svg_io import emit_svg, parse_svg

from conftest import disk_path, load_script, square_path


def _doc(w, h, albedo, shade=()):
    return LayeredDocument(width=w, height=h, albedo=list(albedo),
                           illumination=[], shade=list(shade), light=[])


def _render_layer(paths, w, h, rcfg):
    return layer_forward(paths, WHITE, w, h, rcfg).image


def _maps(doc, rcfg):
    """The albedo coverage maps candidate_paths takes."""
    return layer_forward(doc.albedo, WHITE, doc.width, doc.height, rcfg).coverages


def test_mse_identical_zero():
    img = np.random.default_rng(0).uniform(0, 1, (5, 7, 3))
    assert mse(img, img) == 0.0


def test_mse_unit_residual():
    assert mse(np.zeros((4, 4, 3)), np.ones((4, 4, 3))) == 1.0


def test_mse_matches_two_loop_oracle(rng):
    a = rng.uniform(0, 1, (6, 5, 3))
    b = rng.uniform(0, 1, (6, 5, 3))
    total = 0.0
    for y in range(6):
        for x in range(5):
            for c in range(3):
                total += (a[y, x, c] - b[y, x, c]) ** 2
    assert mse(a, b) == pytest.approx(total / (6 * 5 * 3), abs=1e-12)


def test_mse_shape_mismatch():
    with pytest.raises(ValueError, match="shapes differ"):
        mse(np.zeros((4, 4, 3)), np.zeros((5, 4, 3)))


def test_edit_mask_identical_images_empty():
    img = np.full((6, 6, 3), 0.4)
    assert not compute_edit_mask(img, img, 0.1).any()


def test_edit_mask_single_pixel():
    img = np.full((6, 6, 3), 0.4)
    ref = img.copy()
    ref[2, 4] += np.array([0.9, 0.0, 0.0])
    mask = compute_edit_mask(img, ref, 0.1)
    assert mask[2, 4]
    assert mask.sum() == 1


def test_edit_mask_matches_pixel_loop(rng):
    a = rng.uniform(0, 1, (8, 9, 3))
    b = rng.uniform(0, 1, (8, 9, 3))
    mask = compute_edit_mask(a, b, 0.3)
    for y in range(8):
        for x in range(9):
            d = sum(abs(a[y, x, c] - b[y, x, c]) for c in range(3)) / 3.0
            assert mask[y, x] == (d > 0.3)


def test_edit_mask_shape_mismatch():
    with pytest.raises(ValueError, match="shapes differ"):
        compute_edit_mask(np.zeros((4, 4, 3)), np.zeros((4, 5, 3)), 0.1)


def _recolor_scene(rcfg):
    """Five disjoint albedo squares; two get recolored in the reference."""
    paths = [square_path(1, 1, 9, 9, color=(0.2, 0.4, 0.8)),
             square_path(11, 1, 17, 7, color=(0.8, 0.3, 0.2)),
             square_path(1, 11, 5, 15, color=(0.3, 0.7, 0.3)),
             square_path(11, 11, 18, 18, color=(0.6, 0.6, 0.2)),
             square_path(7, 17, 10, 19, color=(0.5, 0.2, 0.6))]
    doc = _doc(20, 20, paths)
    original = _render_layer(paths, 20, 20, rcfg)
    reference = original.copy()
    m0 = layer_forward([paths[0]], WHITE, 20, 20,
                       rcfg).coverages[0].coverage > 0.5
    m3 = layer_forward([paths[3]], WHITE, 20, 20,
                       rcfg).coverages[0].coverage > 0.5
    reference[m0] = (0.35, 0.55, 0.65)
    reference[m3] = (0.45, 0.45, 0.35)
    return doc, original, reference


def test_candidates_exactly_overlapping_paths(rcfg):
    doc, original, reference = _recolor_scene(rcfg)
    mask = compute_edit_mask(original, reference, 0.1)
    cands = candidate_paths(_maps(doc, rcfg), original, reference, mask,
                            EditConfig(delta_color=1.0))
    assert [c.path_index for c in cands] == [0, 3] or \
        [c.path_index for c in cands] == [3, 0]
    # ordered by support area, largest first
    assert cands[0].support >= cands[1].support
    by_area = sorted(cands, key=lambda c: -c.support)
    assert [c.path_index for c in cands] == [c.path_index for c in by_area]


def test_candidates_disjoint_path_excluded(rcfg):
    paths = [square_path(1, 1, 6, 6, color=(0.2, 0.4, 0.8))]
    doc = _doc(16, 16, paths)
    original = _render_layer(paths, 16, 16, rcfg)
    mask = np.zeros((16, 16), bool)
    mask[10:14, 10:14] = True       # nowhere near the path
    cands = candidate_paths(_maps(doc, rcfg), original, original, mask, EditConfig())
    assert cands == []


def test_candidates_identical_mask_iou_one(rcfg):
    paths = [square_path(2, 2, 12, 12, color=(0.4, 0.4, 0.4))]
    doc = _doc(16, 16, paths)
    original = _render_layer(paths, 16, 16, rcfg)
    support = layer_forward(paths, WHITE, 16, 16,
                            rcfg).coverages[0].coverage > 0.5
    cands = candidate_paths(_maps(doc, rcfg), original, original, support,
                            EditConfig())
    assert len(cands) == 1
    assert cands[0].iou == pytest.approx(1.0)


def test_candidates_color_filter_drops_large_shift(rcfg):
    doc, original, reference = _recolor_scene(rcfg)
    mask = compute_edit_mask(original, reference, 0.1)
    # path 0's mean moves by ~0.24; a tight delta excludes it
    tight = candidate_paths(_maps(doc, rcfg), original, reference, mask,
                            EditConfig(delta_color=0.05))
    loose = candidate_paths(_maps(doc, rcfg), original, reference, mask,
                            EditConfig(delta_color=1.0))
    assert len(tight) < len(loose)


def test_apply_edit_arithmetic_with_uniform_shade(rcfg):
    albedo = [square_path(2, 2, 14, 14, color=(0.9, 0.9, 0.9))]
    # oversized square: every canvas pixel is >= 20 sigma inside the edge,
    # so the rendered shade is 0.5 to within 1e-9 everywhere
    shade = [square_path(-20, -20, 36, 36, color=(0.5, 0.5, 0.5),
                         tag="shade")]
    doc = _doc(16, 16, albedo, shade)
    original = np.clip(_render_layer(albedo, 16, 16, rcfg)
                       * _render_layer(shade, 16, 16, rcfg), 0, 1)
    reference = original.copy()
    support = layer_forward(albedo, WHITE, 16, 16,
                            rcfg).coverages[0].coverage > 0.5
    reference[support] = (0.3, 0.3, 0.3)
    mask = compute_edit_mask(original, reference, 0.05)
    cands = candidate_paths(_maps(doc, rcfg), original, reference, mask,
                            EditConfig(delta_color=1.0))
    edited, report = apply_color_edit(doc, cands, EditConfig(delta_color=1.0),
                                      _render_layer(shade, 16, 16, rcfg))
    got = edited.albedo[0].fill_color
    assert np.all(np.abs(got - 0.3 / 0.5001) < 1e-6)
    assert report.selected[0]["path_index"] == 0
    # source document untouched
    assert np.allclose(doc.albedo[0].fill_color, 0.9)


def test_apply_edit_identity_shade_passes_reference_through(rcfg):
    albedo = [square_path(2, 2, 14, 14, color=(0.9, 0.1, 0.1))]
    shade = [square_path(0, 0, 16, 16, color=(1.0, 1.0, 1.0), tag="shade")]
    doc = _doc(16, 16, albedo, shade)
    original = _render_layer(albedo, 16, 16, rcfg)
    reference = original.copy()
    support = layer_forward(albedo, WHITE, 16, 16,
                            rcfg).coverages[0].coverage > 0.5
    reference[support] = (0.2, 0.6, 0.4)
    mask = compute_edit_mask(original, reference, 0.05)
    cands = candidate_paths(_maps(doc, rcfg), original, reference, mask,
                            EditConfig(delta_color=1.0))
    edited, _ = apply_color_edit(doc, cands, EditConfig(delta_color=1.0),
                                 _render_layer(shade, 16, 16, rcfg))
    assert np.all(np.abs(edited.albedo[0].fill_color - (0.2, 0.6, 0.4)) < 2e-3)


def test_apply_edit_no_candidates_noop(rcfg):
    paths = [square_path(1, 1, 8, 8, color=(0.4, 0.2, 0.6))]
    doc = _doc(12, 12, paths)
    edited, report = apply_color_edit(doc, [], EditConfig(),
                                      _render_layer([], 12, 12, rcfg))
    assert np.array_equal(edited.albedo[0].fill_color, paths[0].fill_color)
    assert report.selected == []
    assert report.n_candidates == 0
    assert report.shortfall == 1


def test_edit_k_prefix_monotone(rcfg):
    doc, original, reference = _recolor_scene(rcfg)
    mask = compute_edit_mask(original, reference, 0.1)
    cands = candidate_paths(_maps(doc, rcfg), original, reference, mask,
                            EditConfig(delta_color=1.0))
    selected_by_k = []
    for k in (1, 2, 4):
        cfg = EditConfig(delta_color=1.0, top_k=k)
        _, report = apply_color_edit(doc, cands, cfg,
                                     _render_layer([], 20, 20, rcfg))
        selected_by_k.append({s["path_index"] for s in report.selected})
    assert selected_by_k[0] <= selected_by_k[1] <= selected_by_k[2]
    assert len(selected_by_k[0]) == 1
    assert len(selected_by_k[1]) == 2


def test_edit_preserves_shade_and_light_renders(rcfg):
    albedo = [square_path(2, 2, 14, 14, color=(0.9, 0.9, 0.9))]
    shade = [disk_path(8, 8, 5, color=(0.6, 0.6, 0.6), tag="shade")]
    doc = _doc(16, 16, albedo, shade)
    doc.light = [disk_path(4, 4, 2, color=(0.2, 0.2, 0.2), tag="light")]
    original = np.clip(_render_layer(albedo, 16, 16, rcfg)
                       * _render_layer(shade, 16, 16, rcfg), 0, 1)
    reference = original.copy()
    reference[4:12, 4:12] = (0.2, 0.5, 0.7)
    edited, _ = run_edit(doc, original, reference,
                         EditConfig(delta_color=2.0), rcfg)
    before_s = _render_layer(doc.shade, 16, 16, rcfg)
    after_s = _render_layer(edited.shade, 16, 16, rcfg)
    assert np.array_equal(before_s, after_s)
    from covec.raster import layer_forward
    before_l = layer_forward(doc.light, np.zeros(3), 16, 16, rcfg).image
    after_l = layer_forward(edited.light, np.zeros(3), 16, 16, rcfg).image
    assert np.array_equal(before_l, after_l)
    # geometry and opacity of albedo untouched too
    for p_old, p_new in zip(doc.albedo, edited.albedo):
        assert np.array_equal(p_old.control_points, p_new.control_points)
        assert p_old.opacity == p_new.opacity


def test_run_edit_improves_mse(rcfg):
    doc, original, reference = _recolor_scene(rcfg)
    edited, report = run_edit(doc, original, reference,
                              EditConfig(delta_color=1.0, top_k=2), rcfg)
    assert report.mse_after < report.mse_before
    assert report.requested_k == 2
    assert report.n_candidates == 2
    assert report.shortfall == 0


SWEEP = (1, 2, 4, 8, 16)


def _disk_grid_edit(monkeypatch):
    """The benchmark's disk-grid document (nine albedo disks, a shade and a
    light path), and the original and reference images of its edit."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    grid = importlib.import_module("scenes").disk_grid_edit(0)
    rcfg = RasterizerConfig()
    original, reference = (np.clip(render_composite(d, "three_layer", rcfg), 0.0, 1.0)
                           for d in (grid["document"], grid["reference"]))
    return grid["document"], original, reference


def _count_coverage(monkeypatch):
    """The paths path_coverage is called on from now on, in call order."""
    calls = []
    real_coverage = covec.raster.path_coverage

    def counting(path, *args, **kwargs):
        calls.append(path)
        return real_coverage(path, *args, **kwargs)

    monkeypatch.setattr(covec.raster, "path_coverage", counting)
    monkeypatch.setattr(covec.edit, "path_coverage", counting, raising=False)
    return calls


def test_run_edit_rasterizes_each_path_once(monkeypatch):
    """A sweep over K on one document object rasterizes each of its 11
    paths once, on the first call."""
    doc, original, reference = _disk_grid_edit(monkeypatch)
    calls = _count_coverage(monkeypatch)
    for k in SWEEP:
        _, report = run_edit(doc, original, reference, EditConfig(top_k=k))
        assert report.n_candidates == 2
    paths = doc.albedo + doc.shade + doc.light
    assert len(paths) == 11
    assert [id(p) for p in calls] == [id(p) for p in paths]


def _edit_bytes(doc, original, reference, k, rcfg):
    edited, report = run_edit(doc, original, reference, EditConfig(top_k=k), rcfg)
    return emit_svg(edited), report.to_json()


def test_reused_maps_never_change_a_result(monkeypatch):
    """Each sweep gives, for every K, the SVG and report of an edit of a
    fresh copy of its document.  Moving a path in place, another
    RasterizerConfig or an equal-content copy rasterizes all 11 paths
    again, on the sweep's first call only."""
    doc, original, reference = _disk_grid_edit(monkeypatch)
    rcfg, wide = RasterizerConfig(), RasterizerConfig(aa_sigma=0.8)
    moved = doc.copy()
    moved.albedo[2].control_points += 0.75  # disk 2 is a candidate

    def fresh(d, config):
        return [_edit_bytes(d.copy(), original, reference, k, config) for k in SWEEP]

    want = {"doc": fresh(doc, rcfg), "wide": fresh(doc, wide),
            "moved": fresh(moved, rcfg)}
    assert want["moved"][0][1] != want["doc"][0][1]
    calls = _count_coverage(monkeypatch)

    def sweep(d, config, name):
        calls.clear()
        assert [_edit_bytes(d, original, reference, k, config)
                for k in SWEEP] == want[name]
        assert len(calls) == 11

    sweep(doc, rcfg, "doc")
    sweep(doc, wide, "wide")
    sweep(doc, rcfg, "doc")
    doc.albedo[2].control_points += 0.75
    sweep(doc, rcfg, "moved")
    sweep(doc.copy(), rcfg, "moved")


def test_edit_holds_no_maps_of_a_collected_document(rcfg):
    doc, original, reference = _recolor_scene(rcfg)
    run_edit(doc, original, reference, EditConfig(delta_color=1.0), rcfg)
    assert covec.edit._last
    del doc
    gc.collect()
    assert not covec.edit._last


def test_edit_sweep_script(tmp_path):
    """scripts/edit_sweep.py writes a parseable SVG per K, and its MSE to
    the reference does not rise with K."""
    ks = (1, 2, 16)
    argv = ["--outdir", str(tmp_path), "--ks", *map(str, ks)]
    assert load_script("edit_sweep").main(argv) == 0
    svgs = sorted(tmp_path.glob("edited_k*.svg"))
    assert [p.name for p in svgs] == sorted(f"edited_k{k}.svg" for k in ks)
    for svg in svgs:
        parse_svg(svg.read_bytes())
    after = [json.loads((tmp_path / f"report_k{k}.json").read_text())["mse_after"]
             for k in ks]
    assert after == sorted(after, reverse=True)


def test_run_edit_dim_mismatch(rcfg):
    doc = _doc(8, 8, [square_path(1, 1, 6, 6)])
    with pytest.raises(ValueError, match="dimensions"):
        run_edit(doc, np.zeros((9, 8, 3)), np.zeros((9, 8, 3)),
                 EditConfig(), rcfg)


def test_report_json_shape(rcfg):
    doc, original, reference = _recolor_scene(rcfg)
    _, report = run_edit(doc, original, reference,
                         EditConfig(delta_color=1.0, top_k=8), rcfg)
    blob = json.loads(report.to_json())
    assert set(blob) == {"requested_k", "n_candidates", "shortfall",
                         "selected", "mse_before", "mse_after"}
    assert blob["requested_k"] == 8
    assert blob["shortfall"] == 8 - blob["n_candidates"]
    for entry in blob["selected"]:
        assert set(entry) == {"path_index", "iou", "support",
                              "mean_original", "mean_reference",
                              "old_color", "new_color"}
    assert report.to_json().endswith("\n")


def test_edit_config_validation():
    with pytest.raises(ValueError):
        EditConfig(tau_diff=0.0)
    with pytest.raises(ValueError):
        EditConfig(top_k=0)
    with pytest.raises(ValueError):
        EditConfig(gamma_iou=-0.5)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_iou_bounds_and_symmetry(seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0, 1, (10, 10)) < 0.4
    b = rng.uniform(0, 1, (10, 10)) < 0.4
    def iou(x, y):
        union = np.sum(x | y)
        return np.sum(x & y) / union if union else 0.0
    v = iou(a, b)
    assert 0.0 <= v <= 1.0
    assert v == iou(b, a)
    assert iou(a, a) == (1.0 if a.any() else 0.0)
