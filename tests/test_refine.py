"""Error-driven path growth, cleanup, and shade/light separation."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covec.model import RasterizerConfig, VectorPath
import covec.raster
import covec.refine
from covec.raster import WHITE, layer_forward, path_coverage, render_composite
from covec.refine import (CLEANUP_LOSS_EPS, KAPPA, RefineConfig,
                          assign_light_colors, circle_control_points,
                          cleanup_layer, propose_paths, refine_layer,
                          separate_layers)
from covec.model import LayeredDocument

from conftest import disk_path, eval_cubic, random_path, square_path


def _render(paths, w, h, rcfg):
    return layer_forward(paths, WHITE, w, h, rcfg).image


def _maps(paths, w, h, rcfg):
    return [path_coverage(p, w, h, rcfg).coverage for p in paths]


def test_circle_control_points_on_circle():
    ctrl = circle_control_points((5.0, -2.0), 3.0)
    assert ctrl.shape == (12, 2)
    center = np.array([5.0, -2.0])
    # on-curve points (every third row) sit exactly on the circle
    on_curve = ctrl[::3]
    assert np.allclose(np.linalg.norm(on_curve - center, axis=1), 3.0)
    # handle length is kappa * r along the tangents
    assert np.allclose(np.linalg.norm(ctrl[1] - ctrl[0]), KAPPA * 3.0)
    # the curve itself stays within the known 4-arc cubic error bound
    for seg in range(4):
        quad = np.vstack([ctrl[3 * seg:3 * seg + 3],
                          ctrl[(3 * seg + 3) % 12]])
        for t in np.linspace(0.0, 1.0, 33):
            p = eval_cubic(quad, t)
            assert abs(np.linalg.norm(p - center) - 3.0) <= 3.0 * 3e-4


def _blob_err(h, w, y0, x0, side, value=1.0):
    err = np.zeros((h, w))
    err[y0:y0 + side, x0:x0 + side] = value
    return err


def test_propose_square_blob_centroid_and_radius():
    err = _blob_err(64, 64, 20, 12, 20)
    target = np.full((64, 64, 3), 0.3)
    albedo = np.full((64, 64, 3), 0.5)
    paths = propose_paths(err, 1, target, albedo)
    assert len(paths) == 1
    ctrl = paths[0].control_points
    center = ctrl[::3].mean(axis=0)
    assert abs(center[0] - 22.0) <= 1.0 and abs(center[1] - 30.0) <= 1.0
    radius = (ctrl[:, 0].max() - ctrl[:, 0].min()) / 2.0
    want = np.sqrt(400.0 / np.pi)
    assert abs(radius - want) <= 0.1 * want
    assert np.allclose(paths[0].fill_color, 0.6)
    assert paths[0].opacity == 1.0
    assert paths[0].layer_tag == "illumination"


def test_propose_two_blobs_picks_larger_error():
    err = _blob_err(64, 64, 4, 4, 10, value=0.2)
    err[40:50, 40:50] = 0.9
    target = np.full((64, 64, 3), 0.5)
    paths = propose_paths(err, 1, target, target)
    assert len(paths) == 1
    center = paths[0].control_points[::3].mean(axis=0)
    assert abs(center[0] - 45.0) <= 1.0 and abs(center[1] - 45.0) <= 1.0


def test_propose_zero_error_empty():
    target = np.full((32, 32, 3), 0.5)
    assert propose_paths(np.zeros((32, 32)), 3, target, target) == []


def test_propose_skips_undersized_components():
    err = _blob_err(64, 64, 4, 4, 3)        # 9 px, below the 16 px floor
    err[30:35, 30:35] = 1.0                 # 25 px, usable
    target = np.full((64, 64, 3), 0.5)
    paths = propose_paths(err, 5, target, target)
    assert len(paths) == 1
    center = paths[0].control_points[::3].mean(axis=0)
    assert abs(center[0] - 32.5) <= 1.0


def test_propose_radius_clamped_to_quarter_canvas():
    err = _blob_err(40, 200, 10, 20, 20)
    target = np.full((40, 200, 3), 0.5)
    paths = propose_paths(err, 1, target, target)
    radius = (paths[0].control_points[:, 0].max()
              - paths[0].control_points[:, 0].min()) / 2.0
    assert radius == pytest.approx(10.0)    # min(40, 200)/4, below sqrt(400/pi)


def test_propose_illumination_color_can_exceed_one():
    err = _blob_err(64, 64, 20, 20, 20)
    albedo = np.full((64, 64, 3), 0.5)
    target = np.full((64, 64, 3), 0.75)     # ratio 1.5 in the blob
    paths = propose_paths(err, 1, target, albedo)
    assert np.allclose(paths[0].fill_color, 1.5)
    albedo_tagged = propose_paths(err, 1, target, albedo, layer_tag="albedo")
    assert np.allclose(albedo_tagged[0].fill_color, 1.0)  # albedo range caps


def test_propose_requires_positive_n():
    with pytest.raises(ValueError):
        propose_paths(np.zeros((8, 8)), 0, np.zeros((8, 8, 3)),
                      np.zeros((8, 8, 3)))


def _highlight_scene(rcfg):
    """Flat 0.5 albedo; target adds +0.3 inside a disk. 32x32."""
    albedo = [square_path(0, 0, 32, 32, color=(0.5, 0.5, 0.5))]
    a_img = _render(albedo, 32, 32, rcfg)
    ys, xs = np.mgrid[0:32, 0:32]
    # +0.5 keeps the hard mask aligned with pixel centers, matching the
    # support of a path drawn at the same center and radius
    inside = (xs + 0.5 - 20) ** 2 + (ys + 0.5 - 12) ** 2 <= 6 ** 2
    target = a_img.copy()
    target[inside] += 0.3
    return albedo, target


def test_refine_rounds_zero_noop():
    rcfg = RasterizerConfig()
    albedo, target = _highlight_scene(rcfg)
    illum = [square_path(0, 0, 32, 32, color=(0.9, 0.9, 0.9),
                         tag="illumination")]
    refined = refine_layer(illum, _render(albedo, 32, 32, rcfg), target,
                           RefineConfig(rounds_max=0), rcfg,
                           budget_remaining=8)
    out, trace = refined.layer, refined.trace
    assert out == illum and trace == []
    assert np.array_equal(refined.image, _render(illum, 32, 32, rcfg))


def test_refine_zero_budget_noop():
    rcfg = RasterizerConfig()
    albedo, target = _highlight_scene(rcfg)
    refined = refine_layer([], _render(albedo, 32, 32, rcfg), target,
                           RefineConfig(), rcfg, budget_remaining=0)
    out, trace = refined.layer, refined.trace
    assert out == [] and trace == []


def test_refine_stops_when_error_negligible():
    rcfg = RasterizerConfig()
    albedo = [square_path(0, 0, 16, 16, color=(0.5, 0.5, 0.5))]
    target = _render(albedo, 16, 16, rcfg)
    refined = refine_layer([], _render(albedo, 16, 16, rcfg), target,
                           RefineConfig(), rcfg, budget_remaining=8)
    out, trace = refined.layer, refined.trace
    assert out == [] and trace == []


def test_refine_freeze_contract():
    rcfg = RasterizerConfig()
    albedo, target = _highlight_scene(rcfg)
    existing = [disk_path(8, 24, 5, color=(0.7, 0.7, 0.7),
                          opacity=0.8, tag="illumination")]
    snap_pts = existing[0].control_points.copy()
    snap_col = existing[0].fill_color.copy()
    snap_op = existing[0].opacity
    albedo_snap = [(p.control_points.copy(), p.fill_color.copy(), p.opacity)
                   for p in albedo]
    cfg = RefineConfig(rounds_max=2, iters_per_round=10)
    refined = refine_layer(existing, _render(albedo, 32, 32, rcfg), target, cfg,
                           rcfg, budget_remaining=4)
    out = refined.layer
    assert out[0] is existing[0]
    assert np.array_equal(existing[0].control_points, snap_pts)
    assert np.array_equal(existing[0].fill_color, snap_col)
    assert existing[0].opacity == snap_op
    for p, (pts, col, op) in zip(albedo, albedo_snap):
        assert np.array_equal(p.control_points, pts)
        assert np.array_equal(p.fill_color, col)
        assert p.opacity == op


def test_refine_strict_decrease_on_highlight():
    rcfg = RasterizerConfig()
    albedo, target = _highlight_scene(rcfg)
    a_img = _render(albedo, 32, 32, rcfg)
    before = float(np.mean((a_img - target) ** 2))
    cfg = RefineConfig(rounds_max=1, iters_per_round=40)
    refined = refine_layer([], a_img, target, cfg, rcfg,
                           budget_remaining=4)
    out, trace = refined.layer, refined.trace
    assert len(trace) == 1
    assert trace[0].loss < before
    assert trace[0].paths_added >= 1
    assert len(out) >= 1
    assert all(p.layer_tag == "illumination" for p in out)


def _frozen_illumination():
    return [disk_path(8, 24, 5, color=(0.7, 0.7, 0.7), opacity=0.8,
                      tag="illumination"),
            square_path(2, 2, 10, 10, color=(0.9, 0.8, 0.9), tag="illumination")]


def test_refine_rasterizes_frozen_stack_once(monkeypatch):
    rcfg = RasterizerConfig()
    albedo, target = _highlight_scene(rcfg)
    factor = _render(albedo, 32, 32, rcfg)
    frozen = _frozen_illumination()
    calls = {False: Counter(), True: Counter()}
    proposed = []
    real_coverage = covec.raster.path_coverage
    real_propose = covec.refine.propose_paths

    def counting(path, width, height, config, with_grad=False):
        calls[with_grad][id(path)] += 1
        return real_coverage(path, width, height, config, with_grad=with_grad)

    def recording(*args, **kwargs):
        paths = real_propose(*args, **kwargs)
        proposed.extend(paths)
        return paths

    monkeypatch.setattr(covec.raster, "path_coverage", counting)
    monkeypatch.setattr(covec.refine, "path_coverage", counting)
    monkeypatch.setattr(covec.refine, "propose_paths", recording)
    cfg = RefineConfig(rounds_max=3, iters_per_round=4)
    refined = refine_layer(frozen, factor, target, cfg, rcfg,
                           budget_remaining=4)
    trace = refined.trace
    assert len(trace) >= 2 and len(proposed) >= 2
    # each frozen path once for the base render; each new path once after
    # its Adam iterations, whether cleanup keeps it or not
    assert calls[False] == Counter({id(p): 1 for p in frozen + proposed})
    assert calls[True] == Counter({id(p): cfg.iters_per_round for p in proposed})


@pytest.mark.parametrize("mode", ["factor", "white"])
def test_refine_trace_loss_is_fresh_render_mse(mode):
    rcfg = RasterizerConfig()
    albedo, target = _highlight_scene(rcfg)
    if mode == "factor":
        frozen, factor, tag = _frozen_illumination(), _render(albedo, 32, 32, rcfg), \
            "illumination"
    else:   # a standalone layer, as in albedo-only mode
        frozen, factor, tag = albedo, WHITE, "albedo"
    cfg = RefineConfig(rounds_max=3, iters_per_round=4)
    refined = refine_layer(frozen, factor, target, cfg, rcfg,
                           budget_remaining=4, layer_tag=tag)
    out, trace = refined.layer, refined.trace
    assert len(trace) >= 2
    n = len(frozen)
    for row in trace:
        n += row.paths_added - row.paths_removed
        diff = _render(out[:n], 32, 32, rcfg) * factor - target
        assert row.loss == float(np.mean(diff * diff))
    assert n == len(out)
    # the returned image is the final layer's render, bit for bit
    assert np.array_equal(refined.image, _render(out, 32, 32, rcfg))


def test_cleanup_merges_coincident_duplicates():
    rcfg = RasterizerConfig()
    dup = [disk_path(10, 10, 5, color=(0.4, 0.4, 0.4), tag="illumination"),
           disk_path(10, 10, 5, color=(0.4, 0.4, 0.4), tag="illumination")]
    target = _render(dup, 20, 20, rcfg)
    maps = _maps(dup, 20, 20, rcfg)
    out, removed, merged = cleanup_layer(dup, maps, WHITE, WHITE, target)
    assert len(out) == 1 and (removed, merged) == (0, 1)
    assert np.allclose(out[0].fill_color, 0.4)
    assert len(maps) == 1   # trimmed in step with the paths


def test_cleanup_removes_hidden_path():
    rcfg = RasterizerConfig()
    # the soft edge leaks ~expit(-depth/aa_sigma) of whatever is underneath,
    # so the hidden path must sit well inside the cover to contribute nothing
    hidden = disk_path(12, 12, 2, color=(0.9, 0.1, 0.1), tag="illumination")
    cover = disk_path(12, 12, 10, color=(0.3, 0.3, 0.3), tag="illumination")
    paths = [hidden, cover]     # later entries render on top
    target = _render(paths, 24, 24, rcfg)
    out, _, _ = cleanup_layer(paths, _maps(paths, 24, 24, rcfg), WHITE, WHITE,
                              target)
    assert all(p is not hidden for p in out)
    assert any(p is cover for p in out)


def test_cleanup_loss_budget(rng):
    rcfg = RasterizerConfig()
    paths = [random_path(rng, 24, 24, tag="illumination", color_hi=1.0)
             for _ in range(5)]
    target = rng.uniform(0, 1, (24, 24, 3))
    before_img = _render(paths, 24, 24, rcfg)
    before = float(np.mean((before_img - target) ** 2))
    out, _, _ = cleanup_layer(list(paths), _maps(paths, 24, 24, rcfg), WHITE,
                              WHITE, target)
    after_img = _render(out, 24, 24, rcfg)
    after = float(np.mean((after_img - target) ** 2))
    n_changed = len(paths) - len(out)
    assert after <= before + max(1, n_changed) * CLEANUP_LOSS_EPS


def test_separate_in_range_goes_to_shade():
    p = disk_path(5, 5, 3, color=(0.4, 0.4, 0.4), tag="illumination")
    shade, light = separate_layers([p])
    assert len(shade) == 1 and light == []
    assert shade[0].layer_tag == "shade"
    assert np.array_equal(shade[0].fill_color, p.fill_color)
    assert shade[0].opacity == p.opacity


def test_separate_bright_goes_to_light():
    p = disk_path(5, 5, 3, color=(1.2, 0.9, 0.8), tag="illumination")
    shade, light = separate_layers([p])
    assert shade == [] and len(light) == 1
    assert light[0].layer_tag == "light"
    assert light[0].opacity == 1.0
    assert np.array_equal(light[0].control_points, p.control_points)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_separate_partition_property(seed):
    rng = np.random.default_rng(seed)
    paths = []
    for _ in range(int(rng.integers(1, 7))):
        p = random_path(rng, 20, 20, tag="illumination", color_hi=1.6)
        paths.append(p)
    shade, light = separate_layers(paths)
    assert len(shade) + len(light) == len(paths)
    inputs = sorted(tuple(p.control_points.ravel()) for p in paths)
    outputs = sorted(tuple(p.control_points.ravel()) for p in shade + light)
    assert inputs == outputs
    for p in shade:
        assert p.fill_color.max() <= 1.0
    for p in light:
        assert p.opacity == 1.0


def test_assign_light_colors_zero_residual():
    rcfg = RasterizerConfig()
    albedo = [square_path(0, 0, 16, 16, color=(0.5, 0.5, 0.5))]
    target = _render(albedo, 16, 16, rcfg)
    light = [disk_path(8, 8, 4, color=(0.0, 0.0, 0.0), tag="light")]
    out, _, _ = assign_light_colors(light, target, target, [], rcfg)  # target = albedo
    assert len(out) == 1
    assert np.allclose(out[0].fill_color, 0.0, atol=1e-12)
    assert np.all(out[0].fill_color >= 0.0)


def test_assign_light_colors_uniform_boost():
    rcfg = RasterizerConfig()
    albedo, target = _highlight_scene(rcfg)
    light = [disk_path(20, 12, 6, color=(0.0, 0.0, 0.0), tag="light")]
    out, _, _ = assign_light_colors(light, target, _render(albedo, 32, 32, rcfg),
                                    [], rcfg)
    assert len(out) == 1
    assert np.all(np.abs(out[0].fill_color - 0.3) <= 0.02)


def test_assign_light_colors_drops_empty_support():
    rcfg = RasterizerConfig()
    target = np.full((16, 16, 3), 0.5)
    outside = disk_path(100, 100, 3, color=(0.0, 0.0, 0.0), tag="light")
    out, _, maps = assign_light_colors([outside], target, WHITE, [], rcfg)
    assert out == [] and maps == []


def test_three_layer_beats_two_layer():
    rcfg = RasterizerConfig()
    albedo, target = _highlight_scene(rcfg)
    light = [disk_path(20, 12, 6, color=(0.0, 0.0, 0.0), tag="light")]
    light, _, _ = assign_light_colors(light, target, _render(albedo, 32, 32, rcfg),
                                      [], rcfg)
    doc3 = LayeredDocument(width=32, height=32, albedo=albedo,
                           illumination=[], shade=[], light=light)
    doc2 = LayeredDocument(width=32, height=32, albedo=albedo,
                           illumination=[], shade=[], light=[])
    img3 = render_composite(doc3, "three_layer", rcfg)
    img2 = render_composite(doc2, "three_layer", rcfg)
    mse3 = float(np.mean((img3 - target) ** 2))
    mse2 = float(np.mean((img2 - target) ** 2))
    assert mse3 < mse2


def test_refine_budget_limits_additions():
    rcfg = RasterizerConfig()
    albedo, target = _highlight_scene(rcfg)
    # two separated highlights but only one path allowed
    ys, xs = np.mgrid[0:32, 0:32]
    second = (xs - 8) ** 2 + (ys - 24) ** 2 <= 5 ** 2
    target = target.copy()
    target[second] = np.minimum(target[second] + 0.25, 1.0)
    cfg = RefineConfig(rounds_max=3, iters_per_round=5)
    refined = refine_layer([], _render(albedo, 32, 32, rcfg), target, cfg,
                           rcfg, budget_remaining=1)
    out, trace = refined.layer, refined.trace
    assert len(out) <= 1
    assert sum(r.paths_added for r in trace) <= 1


def test_refine_config_validation():
    with pytest.raises(ValueError):
        RefineConfig(rounds_max=-1)
    with pytest.raises(ValueError):
        RefineConfig(iters_per_round=0)
