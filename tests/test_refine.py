"""Error-driven path growth, cleanup, and shade/light separation."""

import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy import ndimage

from covec.model import SHADE_FLOOR, RasterizerConfig, VectorPath, project_color
from covec.optimize import Schedule
import covec.raster
import covec.refine
from covec.raster import (WHITE, layer_forward, path_coverage, render_composite,
                          source_over)
from covec.refine import (CLEANUP_AREA_MIN, CLEANUP_LOSS_EPS, ERROR_PERCENTILE, KAPPA,
                          MIN_COMPONENT_PIXELS, RADIUS_MIN,
                          assign_light_colors, circle_control_points,
                          cleanup_layer, propose_paths, refine_layer,
                          separate_layers)
from covec.model import LayeredDocument

from conftest import disk_path, eval_cubic, random_path, square_path


def _render(paths, w, h, rcfg):
    return layer_forward(paths, WHITE, w, h, rcfg).image


def _maps(paths, w, h, rcfg):
    return [path_coverage(p, w, h, rcfg) for p in paths]


def _composite(paths, maps, w, h):
    return source_over(paths, maps, WHITE, w, h).image


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


def test_propose_ties_go_to_the_bounding_box_origin():
    # two 16 px blobs of equal summed error whose first pixels share row 0:
    # the square's comes first in raster order, but the L reaches further
    # left, so its box origin (0, 2) ranks before the square's (0, 5)
    err = _blob_err(24, 24, 0, 5, 4)
    err[0:6, 12] = 1.0
    err[5, 2:12] = 1.0
    target = np.full((24, 24, 3), 0.5)
    paths = propose_paths(err, 1, target, target)
    center = paths[0].control_points[::3].mean(axis=0)
    assert np.allclose(center, [145 / 16, 73 / 16])


def test_propose_requires_positive_n():
    with pytest.raises(ValueError):
        propose_paths(np.zeros((8, 8)), 0, np.zeros((8, 8, 3)),
                      np.zeros((8, 8, 3)))


def _propose_paths_oracle(err, n, target, albedo_render, layer_tag="illumination"):
    """Canvas-wide proposals: every blob is selected and measured over the
    whole error map, twice."""
    height, width = err.shape
    mask = err > np.percentile(err, ERROR_PERCENTILE)
    if not np.any(mask):
        return []
    lab, count = ndimage.label(mask, structure=ndimage.generate_binary_structure(2, 1))
    candidates = []
    for cid in range(1, count + 1):
        sel = lab == cid
        area = int(sel.sum())
        if area < MIN_COMPONENT_PIXELS:
            continue
        ys, xs = np.nonzero(sel)
        candidates.append((-float(err[sel].sum()), int(ys.min()), int(xs.min()), cid, area))
    candidates.sort()
    ratio = target / np.maximum(albedo_render, SHADE_FLOOR)
    r_max = min(width, height) / 4.0
    paths = []
    for _neg_sum, _y0, _x0, cid, area in candidates[:n]:
        sel = lab == cid
        ys, xs = np.nonzero(sel)
        weights = err[sel]
        wsum = float(weights.sum())
        cx = float((xs + 0.5) @ weights / wsum)
        cy = float((ys + 0.5) @ weights / wsum)
        radius = float(np.clip(np.sqrt(area / np.pi), RADIUS_MIN, r_max))
        color = project_color(ratio[sel].mean(axis=0), layer_tag)
        paths.append(VectorPath(control_points=circle_control_points((cx, cy), radius),
                                fill_color=color, opacity=1.0, layer_tag=layer_tag))
    return paths


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(8, 64), st.integers(8, 64),
       st.integers(1, 3), st.integers(2, 6), st.integers(1, 12),
       st.sampled_from(["illumination", "albedo"]))
def test_propose_paths_matches_canvas_wide_oracle(seed, h, w, levels, block, n, tag):
    # integer errors on about 8 % of the cells of a coarse grid: the
    # percentile threshold is 0, the cells join into blobs of many sizes,
    # and blobs of equal size and value tie on summed error, so the
    # bounding-box origin decides their ranking
    rng = np.random.default_rng(seed)
    shape = (-(-h // block), -(-w // block))
    coarse = np.where(rng.random(shape) < 0.08, rng.integers(1, levels + 1, shape), 0)
    err = np.repeat(np.repeat(coarse, block, axis=0), block, axis=1)[:h, :w].astype(float)
    target = rng.uniform(0.0, 1.0, (h, w, 3))
    albedo = rng.uniform(0.0, 1.0, (h, w, 3))
    got = propose_paths(err, n, target, albedo, layer_tag=tag)
    want = _propose_paths_oracle(err, n, target, albedo, layer_tag=tag)
    assert len(got) == len(want)
    for p, q in zip(got, want):
        assert np.array_equal(p.control_points, q.control_points)
        assert np.array_equal(p.fill_color, q.fill_color)


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
                           Schedule(refine_rounds=0), rcfg,
                           budget_remaining=8)
    out, trace = refined.layer, refined.trace
    assert out == illum and trace == []
    assert np.array_equal(_composite(out, refined.maps, 32, 32),
                          _render(illum, 32, 32, rcfg))


def test_refine_zero_budget_noop():
    rcfg = RasterizerConfig()
    albedo, target = _highlight_scene(rcfg)
    refined = refine_layer([], _render(albedo, 32, 32, rcfg), target,
                           Schedule(), rcfg, budget_remaining=0)
    out, trace = refined.layer, refined.trace
    assert out == [] and trace == []


def test_refine_stops_when_error_negligible():
    rcfg = RasterizerConfig()
    albedo = [square_path(0, 0, 16, 16, color=(0.5, 0.5, 0.5))]
    target = _render(albedo, 16, 16, rcfg)
    refined = refine_layer([], _render(albedo, 16, 16, rcfg), target,
                           Schedule(), rcfg, budget_remaining=8)
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
    cfg = Schedule(refine_rounds=2, refine_iters=10)
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
    cfg = Schedule(refine_rounds=1, refine_iters=40)
    refined = refine_layer([], a_img, target, cfg, rcfg,
                           budget_remaining=4)
    out, trace = refined.layer, refined.trace
    assert len(trace) == 1
    assert trace[0].loss < before
    assert trace[0].paths_added >= 1
    assert len(out) >= 1
    assert all(p.layer_tag == "illumination" for p in out)


def test_refine_config_validation():
    with pytest.raises(ValueError):
        Schedule(refine_rounds=-1)
    with pytest.raises(ValueError):
        Schedule(refine_iters=0)
    assert Schedule(refine_rounds=0, refine_iters=1).refine_rounds == 0


def test_refine_does_not_rerun_a_round_that_would_replay(monkeypatch):
    # a 5 x 5 patch 0.02 off the frozen render: one blob, one proposal,
    # and the whole error is below CLEANUP_LOSS_EPS, so cleanup drops the
    # path and every later round would propose and drop it again
    rcfg = RasterizerConfig()
    frozen = [square_path(0, 0, 32, 32, color=(0.5, 0.5, 0.5), tag="albedo")]
    target = _render(frozen, 32, 32, rcfg)
    target[10:15, 20:25] += 0.02
    assert float(np.mean((target - _render(frozen, 32, 32, rcfg)) ** 2)) \
        < CLEANUP_LOSS_EPS
    real_loss = covec.refine.layer_loss
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real_loss(*args, **kwargs)

    monkeypatch.setattr(covec.refine, "layer_loss", counting)
    cfg = Schedule(refine_rounds=4, refine_iters=6)
    refined = refine_layer(frozen, WHITE, target, cfg, rcfg,
                           budget_remaining=8, layer_tag="albedo")
    trace = refined.trace
    assert [row.epoch for row in trace] == [1, 2, 3, 4]
    assert trace[0].paths_added == trace[0].paths_removed == 1
    assert len(calls) == cfg.refine_iters * 1  # round 1 only
    for before, row in zip(trace, trace[1:]):
        assert dataclasses.replace(row, epoch=before.epoch) == before
    assert refined.layer == frozen and len(refined.maps) == 1


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
    cfg = Schedule(refine_rounds=3, refine_iters=4)
    refined = refine_layer(frozen, factor, target, cfg, rcfg,
                           budget_remaining=4)
    trace = refined.trace
    assert len(trace) >= 2 and len(proposed) >= 2
    # each frozen path once for the base render; each new path once after
    # its Adam iterations, whether cleanup keeps it or not
    assert calls[False] == Counter({id(p): 1 for p in frozen + proposed})
    assert calls[True] == Counter({id(p): cfg.refine_iters for p in proposed})


def test_refine_maps_are_each_paths_coverage(monkeypatch):
    # every returned map is its path's own coverage, also when cleanup
    # removed proposals and trimmed the round's maps
    rcfg = RasterizerConfig()
    albedo, target = _highlight_scene(rcfg)
    real_propose = covec.refine.propose_paths
    real_cleanup = covec.refine.cleanup_layer
    removed = []

    def with_faint_copies(*args, **kwargs):
        return [q for p in real_propose(*args, **kwargs)
                for q in (p, dataclasses.replace(p.copy(), opacity=1e-3))]

    def recording(*args, **kwargs):
        result = real_cleanup(*args, **kwargs)
        removed.append(result[1])
        return result

    monkeypatch.setattr(covec.refine, "propose_paths", with_faint_copies)
    monkeypatch.setattr(covec.refine, "cleanup_layer", recording)
    refined = refine_layer(_frozen_illumination(), _render(albedo, 32, 32, rcfg),
                           target, Schedule(refine_rounds=2, refine_iters=3),
                           rcfg, budget_remaining=4)
    assert sum(removed) >= 1
    assert len(refined.maps) == len(refined.layer)
    for p, m in zip(refined.layer, refined.maps):
        assert np.array_equal(m.coverage, path_coverage(p, 32, 32, rcfg).coverage)


@pytest.mark.parametrize("mode", ["factor", "white"])
def test_refine_trace_loss_is_fresh_render_mse(mode):
    rcfg = RasterizerConfig()
    albedo, target = _highlight_scene(rcfg)
    if mode == "factor":
        frozen, factor, tag = _frozen_illumination(), _render(albedo, 32, 32, rcfg), \
            "illumination"
    else:   # a standalone layer, as in albedo-only mode
        frozen, factor, tag = albedo, WHITE, "albedo"
    cfg = Schedule(refine_rounds=3, refine_iters=4)
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
    # the returned maps composite to the final layer's render, bit for bit
    assert np.array_equal(_composite(out, refined.maps, 32, 32),
                          _render(out, 32, 32, rcfg))


def test_cleanup_keeps_coincident_duplicates():
    # cleanup only removes: two coincident disks that each move the loss
    # both stay, with their maps
    rcfg = RasterizerConfig()
    dup = [disk_path(10, 10, 5, color=(0.4, 0.4, 0.4), opacity=0.5,
                     tag="illumination"),
           disk_path(10, 10, 5, color=(0.4, 0.4, 0.4), opacity=0.5,
                     tag="illumination")]
    target = _render(dup, 20, 20, rcfg)
    maps = _maps(dup, 20, 20, rcfg)
    out, removed, merged = cleanup_layer(dup, maps, WHITE, WHITE, target)
    assert len(out) == 2 and len(maps) == 2
    assert (removed, merged) == (0, 0)


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


def test_cleanup_removes_small_area_path_that_moves_the_loss():
    # the area rule alone: an opaque dot under CLEANUP_AREA_MIN px of soft
    # area whose removal moves the loss by far more than CLEANUP_LOSS_EPS
    rcfg = RasterizerConfig()
    dot = disk_path(5, 5, 0.4, color=(0.1, 0.1, 0.1), tag="illumination")
    big = disk_path(14, 14, 4, color=(0.3, 0.3, 0.3), tag="illumination")
    paths = [dot, big]
    target = _render(paths, 20, 20, rcfg)
    maps = _maps(paths, 20, 20, rcfg)
    assert float(maps[0].block.sum()) < CLEANUP_AREA_MIN
    moved = float(np.mean((_render([big], 20, 20, rcfg) - target) ** 2))
    assert moved > 100 * CLEANUP_LOSS_EPS
    out, removed, _ = cleanup_layer(paths, maps, WHITE, WHITE, target)
    assert removed == 1 and out == [big] and len(maps) == 1


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
    shade, light, _, _ = separate_layers([p], _maps([p], 10, 10, RasterizerConfig()))
    assert len(shade) == 1 and light == []
    assert shade[0].layer_tag == "shade"
    assert np.array_equal(shade[0].fill_color, p.fill_color)
    assert shade[0].opacity == p.opacity


def test_separate_bright_goes_to_light():
    p = disk_path(5, 5, 3, color=(1.2, 0.9, 0.8), tag="illumination")
    shade, light, _, _ = separate_layers([p], _maps([p], 10, 10, RasterizerConfig()))
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
    maps = _maps(paths, 20, 20, RasterizerConfig())
    shade, light, shade_maps, light_maps = separate_layers(paths, maps)
    assert len(shade) + len(light) == len(paths)
    inputs = sorted(tuple(p.control_points.ravel()) for p in paths)
    outputs = sorted(tuple(p.control_points.ravel()) for p in shade + light)
    assert inputs == outputs
    # each output path carries its own input path's map, the same object
    source = {p.control_points.tobytes(): m for p, m in zip(paths, maps)}
    assert len(shade_maps) == len(shade) and len(light_maps) == len(light)
    for p, m in zip(shade + light, shade_maps + light_maps):
        assert m is source[p.control_points.tobytes()]
    for p in shade:
        assert p.fill_color.max() <= 1.0
    for p in light:
        assert p.opacity == 1.0


def test_assign_light_colors_zero_residual():
    rcfg = RasterizerConfig()
    albedo = [square_path(0, 0, 16, 16, color=(0.5, 0.5, 0.5))]
    target = _render(albedo, 16, 16, rcfg)
    light = [disk_path(8, 8, 4, color=(0.0, 0.0, 0.0), tag="light")]
    out, _ = assign_light_colors(light, _maps(light, 16, 16, rcfg), target,
                                 target, [], [])  # target = albedo
    assert len(out) == 1
    assert np.allclose(out[0].fill_color, 0.0, atol=1e-12)
    assert np.all(out[0].fill_color >= 0.0)


def test_assign_light_colors_uniform_boost():
    rcfg = RasterizerConfig()
    albedo, target = _highlight_scene(rcfg)
    light = [disk_path(20, 12, 6, color=(0.0, 0.0, 0.0), tag="light")]
    out, _ = assign_light_colors(light, _maps(light, 32, 32, rcfg), target,
                                 _render(albedo, 32, 32, rcfg), [], [])
    assert len(out) == 1
    assert np.all(np.abs(out[0].fill_color - 0.3) <= 0.02)


def test_assign_light_colors_drops_empty_support():
    rcfg = RasterizerConfig()
    target = np.full((16, 16, 3), 0.5)
    outside = disk_path(100, 100, 3, color=(0.0, 0.0, 0.0), tag="light")
    out, maps = assign_light_colors([outside], _maps([outside], 16, 16, rcfg),
                                    target, WHITE, [], [])
    assert out == [] and maps == []


def test_three_layer_beats_two_layer():
    rcfg = RasterizerConfig()
    albedo, target = _highlight_scene(rcfg)
    light = [disk_path(20, 12, 6, color=(0.0, 0.0, 0.0), tag="light")]
    light, _ = assign_light_colors(light, _maps(light, 32, 32, rcfg), target,
                                   _render(albedo, 32, 32, rcfg), [], [])
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
    cfg = Schedule(refine_rounds=3, refine_iters=5)
    refined = refine_layer([], _render(albedo, 32, 32, rcfg), target, cfg,
                           rcfg, budget_remaining=1)
    out, trace = refined.layer, refined.trace
    assert len(out) <= 1
    assert sum(r.paths_added for r in trace) <= 1


def test_multi_round_refinement_matches_checked_in_digest(
        digest_script, checked_in_digest, tmp_path):
    # the seed-0 rounds and replay lines of scripts/output_digest.txt:
    # several refinement rounds with cleanup, and later rounds that replay
    # the one before, after a trained warm-up with the overlap penalty
    names = [f"{mode}/{schedule}/0" for schedule in ("rounds", "replay")
             for mode in ("full", "albedo_only")]
    want = [line for name in names for line in checked_in_digest
            if line.split()[0] == name]
    assert len(want) == 4
    got = [digest_script.digest(mode, schedule, 0, tmp_path)
           for schedule in ("rounds", "replay") for mode in ("full", "albedo_only")]
    assert got == want
