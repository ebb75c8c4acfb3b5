"""Canonical SVG serialization, strict parsing, and the oracle renderer."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from covec.geometry import flatten_bezier
from covec.model import LayeredDocument, RasterizerConfig, VectorPath
from covec.raster import render_composite
from covec.svg_io import SvgParseError, emit_svg, parse_svg

import oracle_render
from conftest import disk_path, random_path, square_path
from oracle_render import oracle_composite

EMPTY_3X2 = b"""<?xml version="1.0" encoding="UTF-8"?>
<svg xmlns="http://www.w3.org/2000/svg" width="3" height="2" viewBox="0 0 3 2">
  <g style="isolation:isolate">
    <g id="albedo">
      <rect width="3" height="2" fill="rgb(255,255,255)"/>
    </g>
    <g id="shade" style="mix-blend-mode:multiply">
    </g>
    <g id="light" style="mix-blend-mode:plus-lighter">
    </g>
  </g>
</svg>
"""


def _doc(w=16, h=16, albedo=(), shade=(), light=()):
    return LayeredDocument(width=w, height=h, albedo=list(albedo),
                           illumination=[], shade=list(shade),
                           light=list(light))


def _random_doc(seed, w=18, h=14):
    rng = np.random.default_rng(seed)
    albedo = [random_path(rng, w, h) for _ in range(int(rng.integers(1, 4)))]
    shade = [random_path(rng, w, h, tag="shade")
             for _ in range(int(rng.integers(0, 3)))]
    light = []
    for _ in range(int(rng.integers(0, 3))):
        p = random_path(rng, w, h, tag="light")
        p.fill_color = rng.uniform(0.0, 0.6, 3)
        p.opacity = 1.0
        light.append(p)
    return _doc(w, h, albedo, shade, light)


def test_empty_document_exact_bytes():
    assert emit_svg(_doc(3, 2)) == EMPTY_3X2


def test_empty_document_reference_white():
    ref = oracle_composite(_doc(4, 4))
    assert np.array_equal(np.clip(ref, 0.0, 1.0), np.ones((4, 4, 3)))


def test_groups_present_when_empty():
    data = emit_svg(_doc(8, 8, albedo=[square_path(1, 1, 6, 6)]))
    text = data.decode()
    assert '<g id="albedo">' in text
    assert '<g id="shade" style="mix-blend-mode:multiply">' in text
    assert '<g id="light" style="mix-blend-mode:plus-lighter">' in text
    assert text.index('id="albedo"') < text.index('id="shade"') \
        < text.index('id="light"')


def test_color_and_opacity_formatting():
    p = square_path(0, 0, 4, 4, color=(0.5, 0.0, 1.0), opacity=0.25)
    text = emit_svg(_doc(4, 4, albedo=[p])).decode()
    assert 'fill="rgb(128,0,255)"' in text
    assert 'fill-opacity="0.2500"' in text
    assert 'fill-rule="nonzero"' in text


def test_coordinates_three_decimals():
    p = square_path(0.12345, 1.9876, 3.5, 3.5)
    text = emit_svg(_doc(4, 4, albedo=[p])).decode()
    assert "M 0.123 1.988 C" in text


@pytest.mark.parametrize("seed", range(6))
def test_emit_parse_emit_byte_identical(seed):
    doc = _random_doc(seed)
    first = emit_svg(doc)
    parsed = parse_svg(first)
    assert emit_svg(parsed) == first


def test_parse_recovers_structure_and_values():
    doc = _random_doc(12)
    parsed = parse_svg(emit_svg(doc))
    assert (parsed.width, parsed.height) == (doc.width, doc.height)
    assert len(parsed.albedo) == len(doc.albedo)
    assert len(parsed.shade) == len(doc.shade)
    assert len(parsed.light) == len(doc.light)
    assert parsed.illumination == []
    for a, b in zip(doc.albedo + doc.shade + doc.light,
                    parsed.albedo + parsed.shade + parsed.light):
        assert b.control_points.shape == a.control_points.shape
        assert np.max(np.abs(b.control_points - a.control_points)) <= 5e-4
        assert np.max(np.abs(b.fill_color - a.fill_color)) <= 1.0 / 255.0
        assert abs(b.opacity - a.opacity) <= 5e-5
        assert b.layer_tag == a.layer_tag


@pytest.mark.parametrize("seed", [3, 7, 21])
def test_roundtrip_render_quantization_bound(seed):
    rcfg = RasterizerConfig()
    doc = _random_doc(seed)
    parsed = parse_svg(emit_svg(doc))
    img_a = render_composite(doc, "three_layer", rcfg)
    img_b = render_composite(parsed, "three_layer", rcfg)
    assert np.max(np.abs(img_a - img_b)) <= 2.0 / 255.0 + 1e-3


@pytest.mark.parametrize("seed", [0, 5])
def test_reference_matches_production_renderer(seed):
    rcfg = RasterizerConfig()
    doc = _random_doc(seed)
    ref = oracle_composite(doc, rcfg)
    prod = render_composite(doc, "three_layer", rcfg)
    assert np.max(np.abs(ref - prod)) <= 1e-6


def test_reference_scale_doubles_canvas():
    doc = _doc(6, 5, albedo=[disk_path(3, 2.5, 2, color=(0.8, 0.2, 0.2))])
    ref1 = oracle_composite(doc)
    ref2 = oracle_composite(doc, scale=2)
    assert ref1.shape == (5, 6, 3)
    assert ref2.shape == (10, 12, 3)
    # the scaled render resolves the same geometry at finer sampling
    down = ref2.reshape(5, 2, 6, 2, 3).mean(axis=(1, 3))
    assert np.max(np.abs(down - ref1)) < 0.2


def _full_canvas_coverage(path, width, height, config):
    """``oracle_render._ref_coverage`` written as plain full-canvas expressions.

    Every edge evaluates its distance and its crossing test over the
    whole supersample canvas.  The renderer works in bands of pixel rows,
    restricts crossings to the rows each edge spans and builds the
    distance terms from 1-D offsets; it must reproduce these bits exactly.
    """
    v = flatten_bezier(path, config).vertices
    n = v.shape[0]
    s = config.supersample
    xs = (np.arange(width * s) + 0.5) / s
    ys = (np.arange(height * s) + 0.5) / s
    gx = np.broadcast_to(xs[None, :], (height * s, width * s))
    gy = np.broadcast_to(ys[:, None], (height * s, width * s))
    min_d2 = np.full(gx.shape, np.inf)
    winding = np.zeros(gx.shape, dtype=np.int64)
    for e in range(n):
        ax, ay = v[e]
        bx, by = v[(e + 1) % n]
        ex, ey = bx - ax, by - ay
        denom = ex * ex + ey * ey
        if denom < 1e-24:
            d2 = (gx - ax) ** 2 + (gy - ay) ** 2
        else:
            t = np.clip(((gx - ax) * ex + (gy - ay) * ey) / denom, 0.0, 1.0)
            d2 = (gx - (ax + t * ex)) ** 2 + (gy - (ay + t * ey)) ** 2
        np.minimum(min_d2, d2, out=min_d2)
        cross = ex * (gy - ay) - ey * (gx - ax)
        winding += ((ay <= gy) & (by > gy) & (cross > 0)).astype(np.int64)
        winding -= ((by <= gy) & (ay > gy) & (cross < 0)).astype(np.int64)
    sd = np.sqrt(min_d2)
    sd[winding != 0] *= -1.0
    sigma = oracle_render._ref_sigmoid(-sd / config.aa_sigma)
    return sigma.reshape(height, s, width, s).mean(axis=(1, 3))


def _polygon_path(pts):
    """Closed loop of straight cubics (a, a, b, b): the flattened
    vertices are the corners themselves, bit for bit."""
    ctrl = []
    for i, a in enumerate(pts):
        ctrl += [a, a, pts[(i + 1) % len(pts)]]
    return VectorPath(control_points=np.asarray(ctrl, dtype=np.float64),
                      fill_color=np.full(3, 0.5), opacity=1.0,
                      layer_tag="albedo")


@st.composite
def _coverage_cases(draw):
    """A random closed loop on a w x h canvas (w != h) at supersample 1-3.

    Vertices may sit exactly on a sample-row centre (k + 0.5) / s, repeat
    the previous vertex's y (a horizontal edge) or the whole previous
    vertex (a zero-length edge); segments are straight or curved.
    """
    s = draw(st.integers(1, 3))
    w = draw(st.integers(2, 8))
    h = draw(st.integers(2, 8).filter(lambda v: v != w))
    fx = st.floats(-1.5, w + 1.5)
    fy = st.floats(-1.5, h + 1.5)
    row = st.integers(-1, h * s).map(lambda k: (k + 0.5) / s)
    pts = [(draw(fx), draw(st.one_of(fy, row)))]
    for _ in range(draw(st.integers(2, 7))):
        kind = draw(st.sampled_from(("free", "row", "horizontal", "repeat")))
        x, y = draw(fx), draw(row if kind == "row" else fy)
        if kind == "horizontal":
            y = pts[-1][1]
        elif kind == "repeat":
            x, y = pts[-1]
        pts.append((x, y))
    path = _polygon_path(pts)
    if draw(st.booleans()):  # bend every segment through random handles
        ctrl = path.control_points
        for i in range(len(pts)):
            ctrl[3 * i + 1] = draw(fx), draw(fy)
            ctrl[3 * i + 2] = draw(fx), draw(fy)
    assume(np.ptp(path.control_points, axis=0).max() > 0.0)
    cfg = RasterizerConfig(supersample=s,
                           aa_sigma=draw(st.sampled_from((0.5, 1.0, 2.0))))
    return path, w, h, cfg


@settings(max_examples=200, deadline=None)
@given(_coverage_cases())
def test_reference_coverage_matches_full_canvas_oracle(case):
    path, w, h, cfg = case
    assert np.array_equal(oracle_render._ref_coverage(path, w, h, cfg),
                          _full_canvas_coverage(path, w, h, cfg))


def _bands_of(rows, cfg):
    """Patch the oracle to bands of ``rows`` pixel rows."""
    return mock.patch.object(oracle_render, "_REF_BAND_ROWS", rows * cfg.supersample)


# Bands of 1-3 pixel rows put band seams inside these small canvases.
@pytest.mark.parametrize("rows", [1, 2, 3])
@settings(max_examples=200, deadline=None)
@given(_coverage_cases())
def test_reference_coverage_band_seams_match_full_canvas_oracle(rows, case):
    path, w, h, cfg = case
    with _bands_of(rows, cfg):
        assert np.array_equal(oracle_render._ref_coverage(path, w, h, cfg),
                              _full_canvas_coverage(path, w, h, cfg))


# Loops with corners exactly on sample-row centres.  Along a horizontal
# edge on such a row, a crossing rule closed at the other end of each
# edge's row span flips the sign of the rounding-sized distance, which
# changes the last bits of the coverage; the last loop repeats a corner.
ROW_CENTRE_LOOPS = [
    (1, [(0.3, 1.5), (4.9, 1.5), (2.2, 3.9)]),
    (2, [(0.3, 0.75), (5.7, 0.75), (5.7, 2.75), (0.3, 2.75)]),
    (2, [(0.3, 0.2), (0.3, 0.75), (4.1, 0.75), (4.1, 4.6), (0.6, 4.6)]),
    (3, [(0.3, 0.5), (0.3, 0.5), (6.2, 2.5), (1.1, 4.2)]),  # zero-length edge
]


@pytest.mark.parametrize("s,pts", ROW_CENTRE_LOOPS)
def test_reference_coverage_row_centre_vertices(s, pts):
    path = _polygon_path(pts)
    cfg = RasterizerConfig(supersample=s)
    assert np.array_equal(oracle_render._ref_coverage(path, 7, 5, cfg),
                          _full_canvas_coverage(path, 7, 5, cfg))


@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize("s,pts", ROW_CENTRE_LOOPS)
def test_reference_coverage_row_centre_vertices_band_seams(s, pts, rows):
    path = _polygon_path(pts)
    cfg = RasterizerConfig(supersample=s)
    with _bands_of(rows, cfg):
        assert np.array_equal(oracle_render._ref_coverage(path, 7, 5, cfg),
                              _full_canvas_coverage(path, 7, 5, cfg))


def test_light_only_document_saturates_white():
    light = [disk_path(8, 8, 4, color=(0.4, 0.4, 0.4), tag="light")]
    ref = oracle_composite(_doc(16, 16, light=light))
    assert ref.min() >= 1.0
    assert np.array_equal(np.clip(ref, 0.0, 1.0), np.ones((16, 16, 3)))


def test_emit_rejects_unseparated_document():
    doc = _doc(8, 8)
    doc.illumination = [disk_path(4, 4, 2, tag="illumination")]
    with pytest.raises(ValueError, match="unseparated"):
        emit_svg(doc)


def test_emit_writes_to_file(tmp_path):
    out = tmp_path / "o.svg"
    data = emit_svg(_doc(4, 4), out)
    assert out.read_bytes() == data == EMPTY_3X2.replace(b'width="3"', b'width="4"') \
        .replace(b'height="2"', b'height="4"') \
        .replace(b'viewBox="0 0 3 2"', b'viewBox="0 0 4 4"') \
        .replace(b'<rect width="3" height="2"', b'<rect width="4" height="4"')


def _mutate(pattern, replacement):
    data = emit_svg(_doc(8, 8, albedo=[square_path(1, 1, 6, 6)]))
    assert pattern in data, pattern
    return data.replace(pattern, replacement)


def test_parse_rejects_wrong_namespace():
    bad = _mutate(b'xmlns="http://www.w3.org/2000/svg"',
                  b'xmlns="http://example.com/not-svg"')
    with pytest.raises(SvgParseError, match="namespace"):
        parse_svg(bad)


def test_parse_rejects_missing_viewbox():
    bad = _mutate(b' viewBox="0 0 8 8"', b'')
    with pytest.raises(SvgParseError, match="viewBox"):
        parse_svg(bad)


def test_parse_rejects_unknown_element():
    bad = _mutate(b'<g id="shade" style="mix-blend-mode:multiply">',
                  b'<g id="shade" style="mix-blend-mode:multiply">\n'
                  b'      <circle r="3"/>')
    with pytest.raises(SvgParseError, match="circle"):
        parse_svg(bad)


def test_parse_rejects_line_commands():
    bad = _mutate(b'C', b'L')
    with pytest.raises(SvgParseError, match="path 0"):
        parse_svg(bad)


def test_parse_rejects_non_finite_coordinate():
    # 1e999 matches the number syntax but overflows to inf
    bad = _mutate(b"C 2.667 1.000", b"C 1e999 1.000")
    with pytest.raises(SvgParseError, match="non-finite"):
        parse_svg(bad)


def test_parse_rejects_open_path():
    doc = _doc(8, 8, albedo=[square_path(1, 1, 6, 6)])
    data = emit_svg(doc)
    assert b"M 1.000 1.000 C" in data
    bad = data.replace(b"M 1.000 1.000 C", b"M 1.200 1.000 C", 1)
    with pytest.raises(SvgParseError, match="clos"):
        parse_svg(bad)


def test_parse_closure_tolerance_accepted():
    doc = _doc(8, 8, albedo=[square_path(1, 1, 6, 6)])
    data = emit_svg(doc)
    nudged = data.replace(b"M 1.000 1.000 C", b"M 1.001 1.000 C", 1)
    parsed = parse_svg(nudged)
    assert len(parsed.albedo) == 1
    assert parsed.albedo[0].control_points.shape == (12, 2)


def test_parse_rejects_hex_fill():
    bad = _mutate(b'fill="rgb(128,128,128)"', b'fill="#808080"')
    with pytest.raises(SvgParseError, match="fill"):
        parse_svg(bad)


def test_parse_rejects_out_of_range_opacity():
    bad = _mutate(b'fill-opacity="1.0000"', b'fill-opacity="1.5000"')
    with pytest.raises(SvgParseError, match="opacity"):
        parse_svg(bad)


def test_parse_rejects_evenodd_rule():
    bad = _mutate(b'fill-rule="nonzero"', b'fill-rule="evenodd"')
    with pytest.raises(SvgParseError, match="fill-rule"):
        parse_svg(bad)


def test_parse_rejects_unexpected_attribute():
    bad = _mutate(b'fill-rule="nonzero"',
                  b'fill-rule="nonzero" stroke="black"')
    with pytest.raises(SvgParseError, match="stroke"):
        parse_svg(bad)


def test_parse_rejects_missing_group():
    bad = _mutate(b'    <g id="light" style="mix-blend-mode:plus-lighter">\n'
                  b'    </g>\n', b'')
    with pytest.raises(SvgParseError, match="group"):
        parse_svg(bad)


def test_parse_rejects_missing_background_rect():
    bad = _mutate(b'      <rect width="8" height="8" fill="rgb(255,255,255)"/>\n',
                  b'')
    with pytest.raises(SvgParseError, match="rect"):
        parse_svg(bad)


def test_parse_rejects_non_svg_bytes():
    with pytest.raises(SvgParseError):
        parse_svg(b"this is not xml at all")
