"""Soft rasterization forward/backward and layer compositing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from covec.geometry import batch_signed_distance, flatten_bezier
from covec.model import LayeredDocument, RasterizerConfig, VectorPath, WHITE
from covec.raster import (blend, composite_backward, composite_forward,
                          layer_backward, layer_forward, path_coverage,
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


def test_coverage_window_truncation_negligible():
    path = disk_path(10, 10, 4)
    tight = path_coverage(path, 48, 48, RasterizerConfig(cutoff_sigmas=30.0))
    wide = path_coverage(path, 48, 48, RasterizerConfig(cutoff_sigmas=1e6))
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
    img = composite_forward(doc, "two_layer", config).image
    return float(np.mean((img - target) ** 2))


def test_two_layer_gradients_vs_finite_difference(fixed_rcfg, rng):
    doc = LayeredDocument(
        width=18, height=18,
        albedo=[random_path(rng, 18, 18)],
        illumination=[random_path(rng, 18, 18, tag="illumination",
                                  color_hi=1.3)])
    target = rng.uniform(0, 1, (18, 18, 3))
    result = composite_forward(doc, "two_layer", fixed_rcfg, with_grad=True)
    up = 2.0 * (result.image - target) / result.image.size
    grads = composite_backward(doc, result, up, fixed_rcfg)
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
    assert pc.unit.shape == (0, 2)
    assert pc.edge_index.dtype == np.int64
    render = layer_forward([path], WHITE, w, h, rcfg, with_grad=True)
    assert np.array_equal(render.image, np.ones((h, w, 3)))
    g = layer_backward([path], render, np.ones((h, w, 3)), rcfg)[0]
    assert not np.any(g.d_control_points)
    assert g.d_control_points.shape == path.control_points.shape
    assert not np.any(g.d_fill_color) and g.d_opacity == 0.0


def test_layer_forward_returns_coverages(rcfg):
    paths = [disk_path(6, 6, 3), disk_path(10, 10, 3, opacity=0.7)]
    render = layer_forward(paths, WHITE, 16, 16, rcfg, with_grad=True)
    assert render.image.shape == (16, 16, 3)
    assert len(render.coverages) == 2
    assert render.coverages[0].coverage.shape == (16, 16)
    # compositing the cached coverage maps reproduces the layer bit for bit
    covs = [pc.coverage for pc in render.coverages]
    again = source_over(paths, covs, WHITE, 16, 16, record=True)
    assert np.array_equal(again.image, render.image)
    assert np.array_equal(again.unders, render.unders)
    assert np.array_equal(again.trans_above, render.trans_above)
