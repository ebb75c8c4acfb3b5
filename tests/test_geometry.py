"""Bezier flattening, signed distance and closed-curve simplification."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covec import geometry
from covec.geometry import (_MAX_SPLIT_DEPTH, FLATTEN_TOLERANCE, Polyline, batch_signed_distance, bernstein3,
                            flatten_bezier, polygon_area, simplify_closed, vertex_control_scatter,
                            _farthest_pair)
from covec.model import RasterizerConfig, VectorPath
from covec.raster import path_coverage

from conftest import (disk_path, eval_cubic, polygon_control_points, square_control_points,
                      square_path, window_samples)
from oracle_geometry import (_all_pairs_signed_distance, point_segment_distance,
                             polyline_lengths, signed_distance, winding_number)


def _flatness_one(quad: np.ndarray) -> float:
    a, b = quad[0], quad[3]
    chord = b - a
    norm = np.hypot(chord[0], chord[1])
    if norm < 1e-12:
        d = quad[1:3] - a
        return float(np.max(np.hypot(d[:, 0], d[:, 1])))
    cross = np.abs(chord[0] * (quad[1:3, 1] - a[1]) - chord[1] * (quad[1:3, 0] - a[0]))
    return float(np.max(cross / norm))


def _split_one(quad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p01 = 0.5 * (quad[0] + quad[1])
    p12 = 0.5 * (quad[1] + quad[2])
    p23 = 0.5 * (quad[2] + quad[3])
    p012 = 0.5 * (p01 + p12)
    p123 = 0.5 * (p12 + p23)
    mid = 0.5 * (p012 + p123)
    return np.stack([quad[0], p01, p012, mid]), np.stack([mid, p123, p23, quad[3]])


def _recursive_params(quad, t0, t1, tolerance, out_t, depth=0):
    """Depth-first subdivision of one segment, one call per piece: the
    reference the level-by-level flattening must match bit for bit."""
    if depth >= _MAX_SPLIT_DEPTH or _flatness_one(quad) <= tolerance:
        out_t.append(t0)
        return
    left, right = _split_one(quad)
    tm = 0.5 * (t0 + t1)
    _recursive_params(left, t0, tm, tolerance, out_t, depth + 1)
    _recursive_params(right, tm, t1, tolerance, out_t, depth + 1)


@given(st.floats(0.0, 1.0))
def test_bernstein_partition_of_unity(t):
    w = bernstein3(np.asarray(t))
    assert abs(float(w.sum()) - 1.0) < 1e-12
    assert np.all(w >= 0)


def test_eval_cubic_endpoints():
    quad = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 2.0], [4.0, 0.0]])
    assert np.allclose(eval_cubic(quad, np.asarray(0.0)), quad[0])
    assert np.allclose(eval_cubic(quad, np.asarray(1.0)), quad[3])


def test_adaptive_flatten_stays_near_curve():
    rng = np.random.default_rng(2)
    for _ in range(10):
        path = disk_path(16, 16, 9)
        path.control_points = path.control_points + rng.normal(0, 1.5, (12, 2))
        poly = flatten_bezier(path, RasterizerConfig())
        # every densely sampled curve point must sit near the polyline
        for seg in range(path.n_segments):
            quad = path.segment(seg)
            pts = eval_cubic(quad, np.linspace(0, 1, 50))
            sd = np.abs(_all_pairs_signed_distance(poly, pts)[0])
            assert sd.max() <= FLATTEN_TOLERANCE + 1e-6


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.001, 0.1, 1.0, 5.0]))
def test_adaptive_flatten_matches_recursive_subdivision(seed, tolerance):
    rng = np.random.default_rng(seed)
    n_seg = int(rng.integers(1, 8))
    ctrl = (rng.normal(0.0, float(rng.choice([0.01, 1.0, 30.0])), (3 * n_seg, 2))
            + rng.uniform(0, 64, 2))
    if rng.random() < 0.3:  # degenerate chords and collapsed handles
        ctrl[rng.integers(0, 3 * n_seg, 2)] = ctrl[0]
        if np.ptp(ctrl, axis=0).max() == 0.0:  # not all of them
            ctrl[-1] += 1.0
    path = VectorPath(control_points=ctrl, fill_color=np.zeros(3), opacity=1.0,
                      layer_tag="albedo")
    with mock.patch.object(geometry, "FLATTEN_TOLERANCE", tolerance):
        poly = flatten_bezier(path, RasterizerConfig())
    seg_idx, ts = [], []
    for i in range(n_seg):
        local = []
        _recursive_params(path.segment(i), 0.0, 1.0, tolerance, local)
        seg_idx += [i] * len(local)
        ts += local
    if len(ts) >= 3:
        assert poly.seg_index.tolist() == seg_idx
        assert poly.t.tobytes() == np.asarray(ts).tobytes()
    for i in range(n_seg):
        sel = poly.seg_index == i
        assert np.array_equal(poly.vertices[sel],
                              bernstein3(poly.t[sel]) @ path.segment(i))


def test_flatten_fixed_count_vertices():
    path = disk_path(8, 8, 4)
    config = RasterizerConfig(flatten_mode="fixed")
    poly = flatten_bezier(path, config)
    assert poly.vertices.shape == (4 * 16, 2)


def test_flatten_degenerate_path_errors():
    path = VectorPath(control_points=np.full((6, 2), 3.0),
                      fill_color=np.zeros(3), opacity=1.0, layer_tag="albedo")
    with pytest.raises(ValueError):
        flatten_bezier(path, RasterizerConfig())


def test_flatten_small_path_keeps_three_vertices(monkeypatch):
    path = disk_path(5, 5, 0.01)
    monkeypatch.setattr(geometry, "FLATTEN_TOLERANCE", 10.0)
    poly = flatten_bezier(path, RasterizerConfig())
    assert poly.vertices.shape[0] >= 3


def test_vertex_control_scatter_reconstructs_vertices():
    path = disk_path(10, 10, 6)
    poly = flatten_bezier(path, RasterizerConfig())
    idx, w = vertex_control_scatter(path, poly)
    rebuilt = np.einsum("vk,vkd->vd", w, path.control_points[idx])
    assert np.allclose(rebuilt, poly.vertices, atol=1e-12)


def test_winding_square():
    poly = Polyline(vertices=np.array([[0.0, 0.0], [4.0, 0.0],
                                       [4.0, 4.0], [0.0, 4.0]]))
    assert winding_number(poly, np.array([2.0, 2.0])) != 0
    assert winding_number(poly, np.array([5.0, 2.0])) == 0
    assert winding_number(poly, np.array([-1.0, -1.0])) == 0


def test_signed_distance_square_oracle():
    poly = Polyline(vertices=np.array([[0.0, 0.0], [4.0, 0.0],
                                       [4.0, 4.0], [0.0, 4.0]]))
    d, near = signed_distance(poly, np.array([2.0, 1.0]))
    assert d == pytest.approx(-1.0)
    assert near.edge_index == 0
    assert np.allclose(near.foot, [2.0, 0.0])
    d, _ = signed_distance(poly, np.array([6.0, 2.0]))
    assert d == pytest.approx(2.0)
    d, _ = signed_distance(poly, np.array([5.0, 5.0]))
    assert d == pytest.approx(np.sqrt(2.0))


def _grid(xs, ys) -> np.ndarray:
    """The (n, 2) row-major grid of the x and y axes, x varying fastest."""
    gx, gy = np.meshgrid(xs, ys)
    return np.stack([gx.ravel(), gy.ravel()], axis=1)


def _window(x0, y0, width, height, ss) -> np.ndarray:
    """The supersample grid of a window, as raster.path_coverage builds it."""
    return _grid(x0 + (np.arange(width * ss) + 0.5) / ss,
                 y0 + (np.arange(height * ss) + 0.5) / ss)


def test_batch_signed_distance_matches_scalar(rng):
    # a 9-gon against a grid of unevenly spaced axes around it
    verts = rng.uniform(0, 20, (9, 2))
    poly = Polyline(vertices=verts)
    pts = _grid(np.sort(rng.uniform(-5, 25, 8)), np.sort(rng.uniform(-5, 25, 5)))
    sd, edge, _, inside = batch_signed_distance(poly, pts)
    for i, p in enumerate(pts):
        d_ref, near = signed_distance(poly, p)
        assert sd[i] == pytest.approx(d_ref, abs=1e-12)
        assert edge[i] == near.edge_index
        assert inside[i] == (winding_number(poly, p) != 0)


def _assert_matches_all_pairs(poly: Polyline, pts: np.ndarray, chunk: int = 8192):
    want = _all_pairs_signed_distance(poly, pts, chunk)[:4]  # all but the unit
    for with_grad in (True, False):
        got = batch_signed_distance(poly, pts, with_grad)
        for name, g, w in zip(("sd", "edge_index", "foot_s", "inside"), got, want):
            if not with_grad and name != "sd":
                assert g is None, name
                continue
            assert g.dtype == w.dtype and g.shape == w.shape, name
            assert g.tobytes() == w.tobytes(), name  # also tells -0.0 from 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_batch_signed_distance_matches_all_pairs_on_bezier_loops(seed, ss):
    # random (often self-intersecting) closed Bezier loops, flattened as the
    # rasterizer does, against the supersample grid of a window of 1-39 px
    # a side, mostly not a multiple of the tile, whose origin lies up to 12
    # px away from the canvas origin, on either side
    rng = np.random.default_rng(seed)
    size = int(rng.integers(4, 40))
    n_seg = int(rng.integers(2, 7))
    ctrl = rng.uniform(-0.2 * size, 1.2 * size, (3 * n_seg, 2))
    path = VectorPath(control_points=ctrl, fill_color=np.zeros(3), opacity=1.0,
                      layer_tag="albedo")
    tolerance = float(rng.choice([0.02, 0.1, 1.0]))
    with mock.patch.object(geometry, "FLATTEN_TOLERANCE", tolerance):
        poly = flatten_bezier(path, RasterizerConfig())
    x0, y0 = rng.integers(-12, 13, 2)
    width, height = rng.integers(1, 40, 2)
    _assert_matches_all_pairs(poly, _window(x0, y0, width, height, ss))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_batch_signed_distance_matches_all_pairs_on_lattice_polygons(seed):
    # integer vertices, some repeated (zero-length edges), against a
    # half-integer lattice over a random part of the plane, extended to
    # hold every vertex and edge midpoint: many samples are equidistant
    # from two or more edges (argmin ties); the axes may also take up to
    # 30 values within half a pixel (a tile then holds more samples than
    # at supersample 6) and a few far away
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 16))
    verts = rng.integers(0, 12, (n, 2)).astype(np.float64)
    repeat = rng.random(n) < 0.2
    verts = np.repeat(verts, np.where(repeat, 2, 1), axis=0)
    if np.ptp(verts, axis=0).max() == 0.0:
        verts[0] += 1.0
    poly = Polyline(vertices=verts)
    ends = np.concatenate([verts, 0.5 * (verts + np.roll(verts, -1, axis=0))])
    axes = []
    for k in range(2):
        lo, hi = rng.integers(-4, 6), rng.integers(0, 18)
        cluster = rng.uniform(0, 12) + rng.uniform(0, 0.5, int(rng.integers(0, 30)))
        far = rng.uniform(-200, 200, int(rng.integers(0, 4)))
        axes.append(np.unique(np.concatenate([np.arange(lo, hi, 0.5), ends[:, k],
                                              cluster, far])))
    _assert_matches_all_pairs(poly, _grid(*axes))


@pytest.mark.parametrize("n_edges", [16, 2048])
def test_batch_signed_distance_matches_all_pairs_on_centred_circle(n_edges):
    # a regular polygon centred on the rasterizer's supersample-2 grid of a
    # 64 x 64 canvas (16 tiles a side) and of a 62.5 px one (not a multiple
    # of the 4 px tile): the tiles around the centre keep every edge, those
    # on the outline only a few; with 2048 edges the (edge, tile) tables of
    # one row of tiles outnumber the samples, so each band is one tile row
    angle = 2.0 * np.pi * np.arange(n_edges) / n_edges
    poly = Polyline(vertices=31.0 + 24.0 * np.stack([np.cos(angle), np.sin(angle)], axis=1))
    for n in (128, 125):
        _assert_matches_all_pairs(poly, _window(0, 0, n / 2, n / 2, 2), chunk=256)


def test_batch_signed_distance_matches_all_pairs_on_zigzag():
    # 401 edges that almost all span every row of a 40 px supersample-2
    # window: 32 000 (edge, row) pairs against 6 400 samples, so the
    # winding count goes through several blocks of edges
    x = np.linspace(0.0, 40.0, 400)
    zigzag = np.stack([x, np.where(np.arange(400) % 2, 39.7, 0.3)], axis=1)
    poly = Polyline(vertices=np.concatenate([zigzag, [[40.0, 45.0], [0.0, 45.0]]]))
    _assert_matches_all_pairs(poly, _window(0, 0, 40, 40, 2), chunk=256)


def test_batch_signed_distance_ties_and_empty():
    square = Polyline(vertices=np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 0.0],
                                         [4.0, 4.0], [0.0, 4.0]]))
    pts = _grid([1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 2.0, 3.0])
    _assert_matches_all_pairs(square, pts)
    sd, edge, s, inside = batch_signed_distance(square, pts)
    at = {(x, y): i for i, (x, y) in enumerate(pts.tolist())}
    # edge 1 has zero length; the centre ties all four sides, (1, 1) the
    # bottom (0) and the left (4), (3, 3) the right (2) and the top (3):
    # the lowest edge index wins
    assert [edge[at[p]] for p in ((2, 2), (1, 1), (3, 3))] == [0, 0, 2]
    assert edge.dtype == np.int32 and inside.dtype == bool
    # (2, 0) lies on the bottom edge and its ray crosses the right one:
    # winding 1, so -0.0, the one place where inside is not sd < 0
    assert sd[at[2, 2]] == -2.0 and sd[at[4, 0]] == 0.0 and not inside[at[4, 0]]
    assert sd[at[2, 0]] == 0.0 and np.signbit(sd[at[2, 0]]) and inside[at[2, 0]]
    # an empty window, with no rows or no columns
    for empty in (_window(3, 5, 0, 4, 2), _window(3, 5, 4, 0, 2)):
        out = batch_signed_distance(square, empty)
        assert [o.shape for o in out] == [(0,), (0,), (0,), (0,)]
        assert [o.dtype for o in out] == [np.float64, np.int32, np.float64, bool]
        _assert_matches_all_pairs(square, empty)


def test_batch_signed_distance_rejects_points_off_a_grid(rng):
    square = Polyline(vertices=np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 4.0], [0.0, 4.0]]))
    grid = _window(-1, 2, 5, 3, 2)
    moved = grid.copy()
    moved[7, 0] += 0.25
    for pts in (rng.permutation(grid), grid[::-1], moved, grid[:-1],
                _grid([0.5, 1.5], [1.0, 1.0]), _grid([1.5, 0.5], [1.0, 2.0]),
                rng.uniform(0, 4, (9, 2))):
        for with_grad in (True, False):
            with pytest.raises(ValueError, match="row-major grid"):
                batch_signed_distance(square, pts, with_grad)


def test_signed_distance_gradient_is_unit_vector(rng):
    # the package's unit gradient, PathCoverage.unit, at 25 of the window's
    # supersamples of a random (often self-intersecting) 7-gon, against
    # central differences of the scalar signed distance
    path = VectorPath(control_points=polygon_control_points(rng.uniform(0, 20, (7, 2))),
                      fill_color=np.zeros(3), opacity=1.0, layer_tag="albedo")
    config = RasterizerConfig()
    pc = path_coverage(path, 20, 20, config, with_grad=True)
    poly = pc.polyline
    assert poly.n_vertices == 7
    pts = window_samples(pc, config.supersample)
    unit = pc.unit
    eps = 1e-6
    for i in rng.choice(len(pts), 25, replace=False):
        p = pts[i]
        if abs(signed_distance(poly, p)[0]) < 1e-3:
            continue
        gx = (signed_distance(poly, p + [eps, 0])[0]
              - signed_distance(poly, p - [eps, 0])[0]) / (2 * eps)
        gy = (signed_distance(poly, p + [0, eps])[0]
              - signed_distance(poly, p - [0, eps])[0]) / (2 * eps)
        assert np.allclose(unit[i], [gx, gy], atol=1e-4)


def test_point_segment_distance_cases():
    a = np.array([0.0, 0.0])
    b = np.array([4.0, 0.0])
    d, s = point_segment_distance(np.array([2.0, 3.0]), a, b)
    assert d == pytest.approx(3.0) and s == pytest.approx(0.5)
    d, s = point_segment_distance(np.array([-3.0, 4.0]), a, b)
    assert d == pytest.approx(5.0) and s == 0.0
    d, s = point_segment_distance(np.array([7.0, 4.0]), a, b)
    assert d == pytest.approx(5.0) and s == 1.0


def test_polyline_lengths():
    v = np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 4.0]])
    lengths = polyline_lengths(v)
    assert np.allclose(lengths, [3.0, 4.0, 5.0])


def test_polygon_area_square_sign():
    ccw = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])
    assert abs(polygon_area(ccw)) == pytest.approx(4.0)
    assert polygon_area(ccw) == -polygon_area(ccw[::-1])


def test_farthest_pair_matches_bruteforce(rng):
    for _ in range(10):
        pts = rng.uniform(0, 50, (rng.integers(4, 40), 2))
        i, j = _farthest_pair(pts)
        best = (-1.0, None)
        n = len(pts)
        for a in range(n):
            for b in range(a + 1, n):
                d = float(np.sum((pts[a] - pts[b]) ** 2))
                if d > best[0]:
                    best = (d, (a, b))
        assert (i, j) == best[1]


def test_simplify_square_with_collinear_points():
    sq = np.array([[0, 0], [2, 0], [4, 0], [4, 2], [4, 4],
                   [2, 4], [0, 4], [0, 2]], dtype=np.float64)
    out = simplify_closed(sq, 0.5)
    assert out.shape == (4, 2)
    assert {tuple(p) for p in out} == {(0, 0), (4, 0), (4, 4), (0, 4)}


def test_simplify_zero_epsilon_identity(rng):
    pts = rng.uniform(0, 30, (12, 2))
    assert np.array_equal(simplify_closed(pts, 0.0), pts)


def _dense_loop_points(vertices, per_edge=50):
    pts = []
    n = len(vertices)
    for i in range(n):
        a, b = vertices[i], vertices[(i + 1) % n]
        ts = np.linspace(0, 1, per_edge, endpoint=False)[:, None]
        pts.append(a + ts * (b - a))
    return np.vstack(pts)


def test_simplify_hausdorff_bound(rng):
    for _ in range(10):
        n = int(rng.integers(8, 60))
        ang = np.sort(rng.uniform(0, 2 * np.pi, n))
        rad = rng.uniform(5, 15, n)
        pts = np.stack([20 + rad * np.cos(ang), 20 + rad * np.sin(ang)], axis=1)
        eps = float(rng.uniform(0.3, 3.0))
        simp = simplify_closed(pts, eps)
        poly = Polyline(vertices=simp)
        dense = _dense_loop_points(pts)
        dists = np.abs(_all_pairs_signed_distance(poly, dense)[0])
        assert dists.max() <= eps + 1e-9


def test_simplify_degenerate_keeps_area():
    # unit square collapses at coarse tolerance; the retry keeps it alive
    sq = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    out = simplify_closed(sq, 2.0)
    assert out.shape[0] >= 3
    assert polygon_area(out) != 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_simplify_always_valid_polygon(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 30))
    ang = np.sort(rng.uniform(0, 2 * np.pi, n))
    rad = rng.uniform(2, 10, n)
    pts = np.stack([15 + rad * np.cos(ang), 15 + rad * np.sin(ang)], axis=1)
    out = simplify_closed(pts, float(rng.uniform(0.1, 5.0)))
    assert out.shape[0] >= 3
    assert polygon_area(out) != 0.0


def test_square_helper_flattens_to_square():
    path = square_path(2, 2, 10, 10)
    poly = flatten_bezier(path, RasterizerConfig())
    sd = np.abs(_all_pairs_signed_distance(
        poly, np.array([[2.0, 2.0], [10.0, 10.0], [6.0, 2.0]]))[0])
    assert sd.max() < FLATTEN_TOLERANCE + 1e-6


@pytest.fixture(scope="module")
def digest_sd_cases(digest_script):
    """The 24 (polyline, points) cases behind output_digest.py's sd/ lines."""
    cases = [digest_script._bezier_case(seed, ss) for ss in range(1, 7) for seed in range(3)]
    return cases + [digest_script._lattice_case(seed) for seed in range(6)]


def test_signed_distance_matches_checked_in_digest(digest_script, checked_in_digest):
    # the sd/ lines of scripts/output_digest.txt, recomputed: a one-ulp
    # change to any output of any case changes its line
    want = [line for line in checked_in_digest if line.startswith("sd/")]
    assert len(want) == 24
    assert digest_script.sd_digests() == want


def test_signed_distance_memory_on_a_128_canvas():
    # one with-grad call over the supersample-2 grid of a 128 x 128 canvas
    # (65 536 points) and a 64-edge circle: the outputs alone are 1.3 MiB
    # (21 bytes a point) and the grid search peaks at 2.59 MiB; a search
    # that also built an (m, 2) unit gradient and int64 edge indices peaked
    # at 6.39 MiB, which the 5 MiB bound rejects
    poly = flatten_bezier(disk_path(64, 64, 40), RasterizerConfig())
    assert poly.n_vertices == 64
    coords = (np.arange(256) + 0.5) / 2
    gy, gx = np.meshgrid(coords, coords, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    tracemalloc.start()
    try:
        batch_signed_distance(poly, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.0 * 2**20, peak / 2**20


def test_signed_distance_without_grad_is_the_same_sd(digest_sd_cases):
    assert len(digest_sd_cases) == 24
    for poly, pts in digest_sd_cases:
        full = batch_signed_distance(poly, pts)
        lean = batch_signed_distance(poly, pts, with_grad=False)
        assert lean[1:] == (None, None, None)
        assert lean[0].dtype == full[0].dtype
        assert lean[0].tobytes() == full[0].tobytes()  # also tells -0.0 from 0.0
