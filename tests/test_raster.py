"""Soft rasterization forward/backward and layer compositing."""

import dataclasses
import importlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from covec import raster
from covec.geometry import batch_signed_distance, flatten_bezier
from covec.edit import EditConfig, run_edit
from covec.model import (LAYER_TAGS, GradientBuffer, LayeredDocument, RasterizerConfig,
                         VectorPath, WHITE, project_color)
from covec.optimize import loss_recon
from covec.raster import (blend, layer_backward, layer_forward, path_coverage,
                          render_composite, source_over)

from covec.svg_io import emit_svg

from conftest import disk_path, random_path, square_path


def _oracle_coverage(path, width, height, config):
    """Per-sample sigmoid of signed distance, averaged over the grid."""
    poly = flatten_bezier(path, config)
    s = config.supersample
    xs = (np.arange(width * s) + 0.5) / s
    ys = (np.arange(height * s) + 0.5) / s
    gx, gy = np.meshgrid(xs, ys)
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    sd = batch_signed_distance(poly, pts)[0].reshape(height * s, width * s)
    sig = expit(-sd / config.aa_sigma)
    return sig.reshape(height, s, width, s).mean(axis=(1, 3))


def test_coverage_matches_pointwise_oracle(rcfg):
    path = disk_path(8, 8, 5)
    pc = path_coverage(path, 16, 16, rcfg)
    assert np.allclose(pc.coverage, _oracle_coverage(path, 16, 16, rcfg),
                       atol=1e-12)


def test_coverage_interior_near_one(rcfg):
    pc = path_coverage(disk_path(16, 16, 12), 32, 32, rcfg)
    assert pc.coverage[16, 16] > 0.999
    assert pc.coverage[0, 0] < 1e-3
    assert np.all(pc.coverage >= 0) and np.all(pc.coverage <= 1)


def test_coverage_window_truncation_negligible(monkeypatch):
    path = disk_path(10, 10, 4)
    tight = path_coverage(path, 48, 48, RasterizerConfig())
    monkeypatch.setattr(raster, "CUTOFF_SIGMAS", 1e6)
    wide = path_coverage(path, 48, 48, RasterizerConfig())
    assert np.allclose(tight.coverage, wide.coverage, atol=1e-12)


def test_translation_equivariance(rcfg):
    path = disk_path(9.25, 8.5, 4.0)
    shifted = path.copy()
    shifted.control_points = shifted.control_points + np.array([6.0, 5.0])
    a = path_coverage(path, 32, 32, rcfg).coverage
    b = path_coverage(shifted, 32, 32, rcfg).coverage
    assert np.allclose(a[:20, :20], b[5:25, 6:26], atol=1e-6)


def test_supersample_setting_changes_result():
    path = disk_path(8, 8, 5)
    c1 = path_coverage(path, 16, 16, RasterizerConfig(supersample=1)).coverage
    c2 = path_coverage(path, 16, 16, RasterizerConfig(supersample=2)).coverage
    assert not np.allclose(c1, c2)


def test_layer_forward_source_over_formula(rcfg):
    # two big squares covering the whole canvas act like constant alphas
    p1 = square_path(-20, -20, 36, 36, color=(0.8, 0.2, 0.1), opacity=0.5)
    p2 = square_path(-20, -20, 36, 36, color=(0.1, 0.6, 0.9), opacity=0.25)
    img = layer_forward([p1, p2], WHITE, 16, 16, rcfg).image
    under = 0.5 * np.array([0.8, 0.2, 0.1]) + 0.5 * np.ones(3)
    expect = 0.25 * np.array([0.1, 0.6, 0.9]) + 0.75 * under
    assert np.allclose(img[8, 8], expect, atol=1e-6)


def test_layer_rejects_mixed_tags(rcfg):
    with pytest.raises(ValueError, match="mixes"):
        layer_forward([disk_path(4, 4, 2, tag="albedo"),
                       disk_path(8, 8, 2, tag="shade")], WHITE, 16, 16, rcfg)


def test_blend_identities(rng):
    for _ in range(50):
        a = rng.uniform(0, 1.5, (6, 6, 3))
        b = rng.uniform(0, 1.5, (6, 6, 3))
        c = rng.uniform(0, 1.5, (6, 6, 3))
        assert np.allclose(blend("multiply", a, np.ones_like(a)), a, atol=1e-12)
        assert np.allclose(blend("plus_lighter", a, np.zeros_like(a)), a,
                           atol=1e-12)
        assert np.allclose(blend("multiply", a, b), blend("multiply", b, a),
                           atol=1e-12)
        assert np.allclose(blend("plus_lighter", a, b),
                           blend("plus_lighter", b, a), atol=1e-12)
        assert np.allclose(blend("multiply", blend("multiply", a, b), c),
                           blend("multiply", a, blend("multiply", b, c)),
                           atol=1e-12)
        assert np.allclose(
            blend("plus_lighter", blend("plus_lighter", a, b), c),
            blend("plus_lighter", a, blend("plus_lighter", b, c)), atol=1e-12)


def test_blend_unknown_mode():
    with pytest.raises(ValueError):
        blend("screen", np.zeros((2, 2, 3)), np.zeros((2, 2, 3)))


def test_composite_equals_explicit_chain(rcfg, rng):
    doc = LayeredDocument(
        width=20, height=20,
        albedo=[random_path(rng, 20, 20)],
        illumination=[],
        shade=[random_path(rng, 20, 20, tag="shade")],
        light=[random_path(rng, 20, 20, tag="light", color_hi=0.6)])
    out = render_composite(doc, "three_layer", rcfg)
    a = layer_forward(doc.albedo, WHITE, 20, 20, rcfg).image
    s = layer_forward(doc.shade, WHITE, 20, 20, rcfg).image
    l = layer_forward(doc.light, np.zeros(3), 20, 20, rcfg).image
    assert np.array_equal(out, blend("plus_lighter", blend("multiply", a, s), l))

    doc2 = LayeredDocument(width=20, height=20, albedo=doc.albedo,
                           illumination=doc.shade and
                           [p.copy() for p in doc.shade])
    for p in doc2.illumination:
        p.layer_tag = "illumination"
    out2 = render_composite(doc2, "two_layer", rcfg)
    i = layer_forward(doc2.illumination, WHITE, 20, 20, rcfg).image
    assert np.array_equal(out2, blend("multiply", a, i))


def test_composite_unknown_mode_errors(rcfg):
    doc = LayeredDocument(width=8, height=8, albedo=[])
    with pytest.raises(ValueError, match="unknown composite mode"):
        render_composite(doc, "overlay", rcfg)


def test_omitted_layers_match_empty_lists(rcfg):
    albedo = [disk_path(6, 6, 4, color=(0.8, 0.3, 0.1)),
              square_path(2, 3, 9, 10, color=(0.1, 0.5, 0.9), opacity=0.6)]
    omitted = LayeredDocument(12, 12, albedo=albedo)
    explicit = LayeredDocument(12, 12, albedo=albedo, illumination=[],
                               shade=[], light=[])
    for mode in ("two_layer", "three_layer"):
        assert np.array_equal(render_composite(omitted, mode, rcfg),
                              render_composite(explicit, mode, rcfg))
    assert emit_svg(omitted) == emit_svg(explicit)


def test_empty_document_renders_identities(rcfg):
    doc = LayeredDocument(width=5, height=5, albedo=[], illumination=[],
                          shade=[], light=[])
    assert np.array_equal(render_composite(doc, "three_layer", rcfg),
                          np.ones((5, 5, 3)))
    assert np.array_equal(render_composite(doc, "two_layer", rcfg),
                          np.ones((5, 5, 3)))


def _random_doc(rng, size, factor_tag):
    n = {"albedo": 3, factor_tag: 2, "light": 2 if factor_tag == "shade" else 0}
    return LayeredDocument(size, size, **{
        tag: [random_path(rng, size, size, tag=tag,
                          color_hi=0.6 if tag == "light" else 0.95)
              for _ in range(k)]
        for tag, k in n.items()})


def _maps(doc, config):
    return {tag: [path_coverage(p, doc.width, doc.height, config)
                  for p in doc.layer(tag)]
            for tag in LAYER_TAGS}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("mode,factor_tag", [("two_layer", "illumination"),
                                             ("three_layer", "shade")])
def test_composite_from_maps_matches_rasterized(mode, factor_tag, seed, rcfg):
    doc = _random_doc(np.random.default_rng(seed), 20, factor_tag)
    assert np.array_equal(render_composite(doc, mode, rcfg, _maps(doc, rcfg)),
                          render_composite(doc, mode, rcfg))


def test_composite_rejects_short_map_list(rcfg, rng):
    doc = _random_doc(rng, 20, "shade")
    maps = _maps(doc, rcfg)
    maps["albedo"] = maps["albedo"][:1]
    with pytest.raises(ValueError, match="coverage maps for 3 paths"):
        render_composite(doc, "three_layer", rcfg, maps)
    with pytest.raises(ValueError, match="coverage maps for 0 paths"):
        source_over([], maps["albedo"], WHITE, 20, 20)


def test_composite_from_maps_rejects_mixed_tags(rcfg, rng):
    doc = _random_doc(rng, 20, "shade")
    doc.shade.append(random_path(rng, 20, 20, tag="light"))
    with pytest.raises(ValueError, match="mixes"):
        render_composite(doc, "three_layer", rcfg, _maps(doc, rcfg))


def test_color_gradient_closed_form(rcfg):
    # single opaque path: d(sum img)/d(color_c) = sum of alpha
    path = disk_path(8, 8, 5, color=(0.3, 0.6, 0.2))
    render = layer_forward([path], WHITE, 16, 16, rcfg, with_grad=True)
    grads = layer_backward([path], render, np.ones((16, 16, 3)), rcfg)
    total_alpha = render.alphas[0].sum()
    assert np.allclose(grads[0].d_fill_color, total_alpha, atol=1e-9)


def test_clamped_color_channel_gets_zero_gradient(rcfg):
    path = disk_path(8, 8, 5, color=(1.4, 0.5, -0.2), tag="illumination")
    render = layer_forward([path], WHITE, 16, 16, rcfg, with_grad=True)
    grads = layer_backward([path], render, np.ones((16, 16, 3)), rcfg)
    # channel 0 passes (illumination colors may exceed 1), channel 2 clamped
    assert grads[0].d_fill_color[0] > 0
    assert grads[0].d_fill_color[1] > 0
    assert grads[0].d_fill_color[2] == 0.0


def test_layer_backward_empty():
    render = layer_forward([], WHITE, 4, 4, RasterizerConfig())
    assert layer_backward([], render, np.ones((4, 4, 3)),
                          RasterizerConfig()) == []


def test_layer_backward_requires_grad_caches(rcfg):
    path = disk_path(4, 4, 2)
    render = layer_forward([path], WHITE, 8, 8, rcfg)
    with pytest.raises(ValueError, match="with_grad"):
        layer_backward([path], render, np.ones((8, 8, 3)), rcfg)


def _fd_loss(doc, target, config):
    img = render_composite(doc, "two_layer", config)
    return float(np.mean((img - target) ** 2))


def test_two_layer_gradients_vs_finite_difference(fixed_rcfg, rng):
    doc = LayeredDocument(
        width=18, height=18,
        albedo=[random_path(rng, 18, 18)],
        illumination=[random_path(rng, 18, 18, tag="illumination",
                                  color_hi=1.3)])
    target = rng.uniform(0, 1, (18, 18, 3))
    _, grads_a, grads_i = loss_recon(doc.albedo, doc.illumination, target, fixed_rcfg)
    grads = {"albedo": grads_a, "illumination": grads_i}
    for tag in ("albedo", "illumination"):
        path = doc.layer(tag)[0]
        g = grads[tag][0]
        for r, c in [(0, 0), (5, 1), (9, 0)]:
            eps = 1e-3
            base = path.control_points[r, c]
            path.control_points[r, c] = base + eps
            up_l = _fd_loss(doc, target, fixed_rcfg)
            path.control_points[r, c] = base - eps
            dn_l = _fd_loss(doc, target, fixed_rcfg)
            path.control_points[r, c] = base
            fd = (up_l - dn_l) / (2 * eps)
            an = float(g.d_control_points[r, c])
            assert abs(fd - an) < max(1e-4, 1e-2 * abs(fd))
        eps = 1e-4
        base = path.opacity
        path.opacity = base + eps
        up_l = _fd_loss(doc, target, fixed_rcfg)
        path.opacity = base - eps
        dn_l = _fd_loss(doc, target, fixed_rcfg)
        path.opacity = base
        fd = (up_l - dn_l) / (2 * eps)
        assert abs(fd - g.d_opacity) < max(1e-6, 1e-2 * abs(fd))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_coverage_bounded_and_finite(seed):
    rng = np.random.default_rng(seed)
    path = random_path(rng, 24, 24)
    cov = path_coverage(path, 24, 24, RasterizerConfig()).coverage
    assert np.all(np.isfinite(cov))
    assert cov.min() >= 0.0 and cov.max() <= 1.0


@pytest.mark.parametrize("center", [(-40, 10), (70, 10), (12, -40), (12, 70),
                                    (-40, -40)],
                         ids=["left", "right", "top", "bottom", "corner"])
@pytest.mark.filterwarnings("error")
def test_off_canvas_path_has_empty_window_and_zero_gradients(center, rcfg):
    w, h = 24, 20
    path = disk_path(center[0], center[1], 4.0, color=(0.2, 0.4, 0.6), opacity=0.7)
    pc = path_coverage(path, w, h, rcfg, with_grad=True)
    x0, y0, x1, y1 = pc.window
    assert x0 == x1 or y0 == y1
    assert np.array_equal(pc.coverage, np.zeros((h, w)))
    assert pc.sigma.shape == pc.foot_s.shape == pc.edge_index.shape == (0,)
    assert pc.inside.shape == (0,)
    assert pc.unit.shape == (0, 2)
    assert pc.edge_index.dtype == np.int32
    render = layer_forward([path], WHITE, w, h, rcfg, with_grad=True)
    assert np.array_equal(render.image, np.ones((h, w, 3)))
    g = layer_backward([path], render, np.ones((h, w, 3)), rcfg)[0]
    assert not np.any(g.d_control_points)
    assert g.d_control_points.shape == path.control_points.shape
    assert not np.any(g.d_fill_color) and g.d_opacity == 0.0


def _lattice_path():
    """Straight cubic segments between lattice corners, one of them
    degenerate, so the outline repeats a vertex (a zero-length edge)."""
    corners = [(3, 3), (11, 3), (11, 3), (11, 9), (7, 13), (3, 9)]
    ctrl = []
    for i, a in enumerate(corners):
        a, b = np.array(a, float), np.array(corners[(i + 1) % len(corners)], float)
        ctrl += [a, a + (b - a) / 3.0, a + 2.0 * (b - a) / 3.0]
    return VectorPath(control_points=np.array(ctrl), fill_color=np.full(3, 0.5),
                      opacity=0.8, layer_tag="albedo")


# (path, canvas width and height, config) for the rebuilt unit gradient
UNIT_CASES = {
    "disk": (disk_path(9.3, 8.1, 4.6), 20, 18, RasterizerConfig(aa_sigma=0.25)),
    "lattice": (_lattice_path(), 16, 16, RasterizerConfig()),
    # corners on sample centres: samples on the outline have sd 0 (or -0)
    "on-outline": (square_path(4.5, 4.5, 12.5, 10.5), 16, 14,
                   RasterizerConfig(supersample=1)),
    "empty": (disk_path(-40, 10, 4.0), 24, 20, RasterizerConfig()),
    # the sigmoid is within 1e-5 of 0.5 everywhere ...
    "wide-sigmoid": (disk_path(8.2, 7.7, 4.0), 16, 16, RasterizerConfig(aa_sigma=1e6)),
    # ... or exactly 0.5, and cannot carry the sign
    "flat-sigmoid": (disk_path(8.2, 7.7, 4.0), 16, 16, RasterizerConfig(aa_sigma=1e18)),
}


def _window_samples(pc, s):
    """The row-major supersample grid path_coverage builds for the window."""
    x0, y0, x1, y1 = pc.window
    gx, gy = np.meshgrid(x0 + (np.arange((x1 - x0) * s) + 0.5) / s,
                         y0 + (np.arange((y1 - y0) * s) + 0.5) / s)
    return np.stack([gx.ravel(), gy.ravel()], axis=1)


def _unit_oracle_backward(pc, d_block, config):
    """coverage_backward as an (m, 2) formula on batch_signed_distance's
    own nearest edge, foot parameter and unit, as the package computed it
    when it cached the unit."""
    _, edge, foot_s, unit = batch_signed_distance(
        pc.polyline, _window_samples(pc, config.supersample))
    d_ctrl = np.zeros((int(pc.scatter_idx.max()) + 1, 2))
    s = config.supersample
    d_sample = np.repeat(np.repeat(d_block, s, axis=0), s, axis=1).ravel() / (s * s)
    d_sd = d_sample * (-pc.sigma * (1.0 - pc.sigma) / config.aa_sigma)
    ga = d_sd[:, None] * (-unit) * (1.0 - foot_s)[:, None]
    gb = d_sd[:, None] * (-unit) * foot_s[:, None]
    n_vert = pc.polyline.n_vertices
    vert_grad = np.zeros((n_vert, 2))
    for axis in range(2):
        vert_grad[:, axis] += np.bincount(edge, weights=ga[:, axis], minlength=n_vert)
        vert_grad[:, axis] += np.bincount((edge + 1) % n_vert, weights=gb[:, axis],
                                          minlength=n_vert)
    contrib = pc.scatter_w[:, :, None] * vert_grad[:, None, :]
    np.add.at(d_ctrl, pc.scatter_idx.ravel(), contrib.reshape(-1, 2))
    return d_ctrl


@pytest.mark.parametrize("case", list(UNIT_CASES))
@pytest.mark.filterwarnings("error")
def test_unit_view_is_batch_signed_distance_unit(case):
    path, w, h, config = UNIT_CASES[case]
    pc = path_coverage(path, w, h, config, with_grad=True)
    sd, edge, foot_s, unit = batch_signed_distance(
        pc.polyline, _window_samples(pc, config.supersample))
    assert pc.unit.shape == unit.shape == (sd.size, 2)
    assert pc.unit.tobytes() == unit.tobytes()
    assert not pc.unit.flags.writeable
    assert np.array_equal(pc.edge_index, edge) and pc.foot_s.tobytes() == foot_s.tobytes()
    assert np.array_equal(pc.inside, sd < 0)
    if case == "on-outline":
        assert np.count_nonzero(sd == 0.0) > 0
    if case == "lattice":
        v = pc.polyline.vertices
        assert np.any(np.all(v == np.roll(v, -1, axis=0), axis=1))
    if case == "wide-sigmoid":
        assert np.all(np.abs(pc.sigma - 0.5) < 1e-5) and pc.inside.any()
    if case == "flat-sigmoid":
        assert np.all(pc.sigma == 0.5) and pc.inside.any()
    assert path_coverage(path, w, h, config).unit is None


@pytest.mark.parametrize("case", list(UNIT_CASES))
@pytest.mark.filterwarnings("error")
def test_coverage_backward_matches_unit_oracle(case, rng):
    path, w, h, config = UNIT_CASES[case]
    pc = path_coverage(path, w, h, config, with_grad=True)
    d_block = rng.normal(size=pc.block.shape)
    got = raster.coverage_backward(pc, d_block, config)
    assert got.tobytes() == _unit_oracle_backward(pc, d_block, config).tobytes()


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.25, 1.0]), st.sampled_from([1, 2, 3]))
def test_coverage_backward_matches_unit_oracle_on_random_paths(seed, aa_sigma, s):
    rng = np.random.default_rng(seed)
    config = RasterizerConfig(aa_sigma=aa_sigma, supersample=s)
    pc = path_coverage(random_path(rng, 20, 18), 20, 18, config, with_grad=True)
    d_block = rng.normal(size=pc.block.shape)
    got = raster.coverage_backward(pc, d_block, config)
    assert got.tobytes() == _unit_oracle_backward(pc, d_block, config).tobytes()


def test_grad_caches_hold_at_most_21_bytes_per_supersample():
    pc = path_coverage(disk_path(20, 14, 5), 40, 32, RasterizerConfig(aa_sigma=0.25),
                       with_grad=True)
    m = pc.sigma.size
    assert m == pc.block.size * 4
    per_sample = {f.name: getattr(pc, f.name).nbytes for f in dataclasses.fields(pc)
                  if isinstance(getattr(pc, f.name), np.ndarray)
                  and getattr(pc, f.name).shape[0] == m}
    assert set(per_sample) >= {"sigma", "foot_s", "edge_index"}
    assert sum(per_sample.values()) <= 21 * m, per_sample


def test_layer_forward_returns_coverages():
    # aa_sigma 0.25 pads windows by 7.5 px: neither fills the 40 x 32 canvas
    rcfg = RasterizerConfig(aa_sigma=0.25)
    paths = [disk_path(12, 10, 4), disk_path(18, 14, 5, opacity=0.7)]
    render = layer_forward(paths, WHITE, 40, 32, rcfg, with_grad=True)
    assert render.image.shape == (32, 40, 3)
    assert len(render.coverages) == 2
    for pc in render.coverages:
        x0, y0, x1, y1 = pc.window
        assert pc.coverage.shape == (32, 40)
        assert 0 < x1 - x0 < 40 and 0 < y1 - y0 < 32
    # compositing the cached coverage maps reproduces the layer bit for bit,
    # and records the same window arrays, path by path
    again = source_over(paths, render.coverages, WHITE, 40, 32, record=True)
    assert again.image.tobytes() == render.image.tobytes()
    for name in ("alphas", "unders", "trans_above"):
        ours, theirs = getattr(again, name), getattr(render, name)
        assert len(ours) == len(theirs) == 2
        for pc, a, b in zip(render.coverages, ours, theirs):
            assert a.shape[:2] == pc.block.shape
            assert a.tobytes() == b.tobytes()


def _full_canvas_backward(paths, coverages, background, d_image, config):
    """layer_backward's formulas on whole-canvas alpha, under and
    transmittance stacks; the opacity sum runs over the path's window."""
    h, w = d_image.shape[:2]
    alphas = np.stack([pc.coverage * p.opacity for p, pc in zip(paths, coverages)])
    colors = np.stack([project_color(p.fill_color, p.layer_tag) for p in paths])
    unders = np.zeros((len(paths), h, w, 3))
    under = np.broadcast_to(background, (h, w, 3)).copy()
    for j, alpha in enumerate(alphas):
        unders[j] = under
        under = alpha[:, :, None] * colors[j] + (1.0 - alpha[:, :, None]) * under
    trans = np.zeros_like(alphas)
    running = np.ones((h, w))
    for j in range(len(paths) - 1, -1, -1):
        trans[j] = running
        running = running * (1.0 - alphas[j])
    grads = []
    for j, (path, pc) in enumerate(zip(paths, coverages)):
        weighted = d_image * (alphas[j] * trans[j])[:, :, None]
        d_color_eff = weighted.sum(axis=(0, 1))
        diff = colors[j][None, None, :] - unders[j]
        d_alpha = np.einsum("hwc,hwc->hw", d_image, diff) * trans[j]
        d_opacity = float(np.sum((d_alpha * pc.coverage)[pc.region]))
        d_ctrl = raster.coverage_backward(pc, d_alpha[pc.region] * path.opacity, config)
        d_color = np.where(colors[j] == path.fill_color, d_color_eff, 0.0)
        grads.append(GradientBuffer(d_ctrl, d_color, d_opacity))
    return grads


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("tag", ["albedo", "illumination"])
def test_window_backward_matches_full_canvas_oracle(tag, seed):
    # partial windows (a 7.5 px pad on a 48 x 40 canvas): overlapping
    # disks, one clipped by the canvas edge, one off the canvas; opacity
    # below 1 and colors outside the layer's range, so the clamp zeroes
    # some channels and, on illumination, passes one above 1
    rng = np.random.default_rng(seed)
    rcfg = RasterizerConfig(aa_sigma=0.25)
    w, h = 48, 40
    centers = [(16, 16), (22, 18), (19, 24), (-2, 20), (70, 12)]
    paths = [disk_path(cx + rng.uniform(-1, 1), cy + rng.uniform(-1, 1),
                       rng.uniform(4, 7), color=rng.uniform(-0.3, 1.4, 3),
                       opacity=float(rng.uniform(0.3, 0.95)), tag=tag)
             for cx, cy in centers]
    paths[0].fill_color = np.array([1.3, 0.4, -0.2])
    render = layer_forward(paths, WHITE, w, h, rcfg, with_grad=True)
    windows = [pc.window for pc in render.coverages]
    assert all(x1 - x0 < w and y1 - y0 < h for x0, y0, x1, y1 in windows)
    assert windows[3][0] == 0 and windows[3][2] > 0  # clipped on the left
    assert windows[4][0] == windows[4][2]  # off the canvas: empty
    d_image = rng.normal(0.0, 1e-3, (h, w, 3))
    got = layer_backward(paths, render, d_image, rcfg)
    want = _full_canvas_backward(paths, render.coverages, WHITE, d_image, rcfg)
    assert want[0].d_fill_color[2] == 0.0
    assert (want[0].d_fill_color[0] == 0.0) == (tag == "albedo")
    for g, o in zip(got, want):
        for f in dataclasses.fields(GradientBuffer):
            a, b = np.asarray(getattr(g, f.name)), np.asarray(getattr(o, f.name))
            assert a.dtype == b.dtype and a.shape == b.shape, f.name
            assert a.tobytes() == b.tobytes(), f.name


@pytest.mark.parametrize("center", [(20, 14), (-40, 10), (70, 10), (-2, 30), (45, -1)],
                         ids=["inside", "off-left", "off-right", "left-edge", "top-edge"])
@pytest.mark.parametrize("with_grad", [False, True])
def test_block_spans_the_window_and_places_on_a_zero_canvas(center, with_grad):
    w, h = 48, 36
    rcfg = RasterizerConfig(aa_sigma=0.25)  # a pad of 7.5 px: partial windows
    pc = path_coverage(disk_path(center[0], center[1], 4.0), w, h, rcfg,
                       with_grad=with_grad)
    x0, y0, x1, y1 = pc.window
    assert pc.block.shape == (y1 - y0, x1 - x0)
    assert pc.canvas == (h, w)
    placed = np.zeros((h, w))
    placed[y0:y1, x0:x1] = pc.block
    assert np.array_equal(pc.coverage, placed)
    assert not pc.coverage.flags.writeable


def _full_canvas_composite(doc, mode, config):
    """Source-over of whole-canvas coverage maps, layer by layer, blended."""
    images = []
    for tag in raster.COMPOSITE_MODES[mode]:
        under = np.broadcast_to(raster.layer_background(tag),
                                (doc.height, doc.width, 3)).copy()
        for p in doc.layer(tag):
            alpha = path_coverage(p, doc.width, doc.height, config).coverage * p.opacity
            color = project_color(p.fill_color, p.layer_tag)
            under = alpha[:, :, None] * color + (1.0 - alpha[:, :, None]) * under
        images.append(under)
    image = images[0] * images[1]
    return image + images[2] if len(images) == 3 else image


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["two_layer", "three_layer"]),
       st.sampled_from([0.25, 0.5, 1.0]))
def test_window_composite_matches_full_canvas_oracle(seed, mode, aa_sigma):
    # one path straddles each canvas edge, so windows are clipped on every
    # side; the others fall anywhere, partly or wholly off the canvas
    rng = np.random.default_rng(seed)
    w, h = int(rng.integers(24, 64)), int(rng.integers(24, 64))
    tags = raster.COMPOSITE_MODES[mode]
    layers = {tag: [] for tag in tags}
    edges = [(0.0, None), (float(w), None), (None, 0.0), (None, float(h))]
    for k in range(4 + int(rng.integers(0, 5))):
        cx, cy = edges[k] if k < 4 else (None, None)
        cx = rng.uniform(-8, w + 8) if cx is None else cx + rng.uniform(-3, 3)
        cy = rng.uniform(-8, h + 8) if cy is None else cy + rng.uniform(-3, 3)
        tag = tags[int(rng.integers(0, len(tags)))]
        layers[tag].append(disk_path(cx, cy, rng.uniform(1.5, 8.0),
                                     color=rng.uniform(0.0, 1.4, 3),
                                     opacity=float(rng.uniform(0.1, 1.0)), tag=tag))
    doc = LayeredDocument(w, h, **layers)
    config = RasterizerConfig(aa_sigma=aa_sigma)
    assert render_composite(doc, mode, config).tobytes() == \
        _full_canvas_composite(doc, mode, config).tobytes()


# tracemalloc peak of render_composite of the K = 16 edit document scaled 4x:
# the window blocks' measured 9.4 MiB plus 20 %; whole-canvas coverage maps
# need 18.4 MiB.
RENDER_X4_PEAK_MIB = 11.3


def test_render_composite_of_scaled_edit_document_stays_small(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    g = importlib.import_module("scenes").disk_grid_edit(0)
    rcfg = RasterizerConfig()
    original, reference = (np.clip(render_composite(d, "three_layer", rcfg), 0.0, 1.0)
                           for d in (g["document"], g["reference"]))
    edited, _ = run_edit(g["document"], original, reference, EditConfig(top_k=16))
    big = edited.copy()
    big.width, big.height = 4 * edited.width, 4 * edited.height
    for p in big.all_paths():
        p.control_points = 4 * p.control_points
    tracemalloc.start()
    try:
        render_composite(big, "three_layer", rcfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 2**20 < RENDER_X4_PEAK_MIB


def test_composites_match_checked_in_digest(digest_script, checked_in_digest, tmp_path):
    # the production/ and composite/ lines of scripts/output_digest.txt,
    # recomputed from the K = 16 edit of each disk_grid_edit document
    want = [line for line in checked_in_digest
            if line.startswith(("production/", "composite/"))]
    assert len(want) == 6
    got = []
    for seed in range(2):
        doc, original, reference = digest_script.edit_inputs(seed, tmp_path)
        edited, _ = run_edit(doc, original, reference, EditConfig(top_k=16))
        got += digest_script.composite_digests(edited, seed)
    assert got == want
