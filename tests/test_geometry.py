"""Bezier flattening, signed distance and closed-curve simplification."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covec import geometry
from covec.geometry import (_MAX_SPLIT_DEPTH, _SD_CHUNK, SD_GROUP_POINTS, Polyline,
                            batch_signed_distance, bernstein3, flatten_bezier, polygon_area,
                            simplify_closed, vertex_control_scatter, _farthest_pair)
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
        config = RasterizerConfig(flatten_tolerance=0.1)
        poly = flatten_bezier(path, config)
        # every densely sampled curve point must sit near the polyline
        for seg in range(path.n_segments):
            quad = path.segment(seg)
            pts = eval_cubic(quad, np.linspace(0, 1, 50))
            sd = np.abs(batch_signed_distance(poly, pts)[0])
            assert sd.max() <= config.flatten_tolerance + 1e-6


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
    poly = flatten_bezier(path, RasterizerConfig(flatten_tolerance=tolerance))
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


def test_flatten_small_path_keeps_three_vertices():
    path = disk_path(5, 5, 0.01)
    poly = flatten_bezier(path, RasterizerConfig(flatten_tolerance=10.0))
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


def test_batch_signed_distance_matches_scalar(rng):
    verts = rng.uniform(0, 20, (9, 2))
    poly = Polyline(vertices=verts)
    pts = rng.uniform(-5, 25, (40, 2))
    sd, edge, _, inside = batch_signed_distance(poly, pts)
    for i, p in enumerate(pts):
        d_ref, near = signed_distance(poly, p)
        assert sd[i] == pytest.approx(d_ref, abs=1e-12)
        assert edge[i] == near.edge_index
        assert inside[i] == (winding_number(poly, p) != 0)


def _assert_matches_all_pairs(poly: Polyline, pts: np.ndarray, group: int = SD_GROUP_POINTS,
                              chunk: int = _SD_CHUNK):
    with mock.patch.multiple(geometry, SD_GROUP_POINTS=group, _SD_CHUNK=chunk):
        got = batch_signed_distance(poly, pts)
    want = _all_pairs_signed_distance(poly, pts)[:4]  # all but the unit
    for name, g, w in zip(("sd", "edge_index", "foot_s", "inside"), got, want):
        assert g.dtype == w.dtype and g.shape == w.shape, name
        assert g.tobytes() == w.tobytes(), name  # also tells -0.0 from 0.0


# Chunk sizes for the all-pairs tests: one point, the default, and more
# points than any tile holds (at supersample 6 a 4 px tile holds 576).
# Group sizes (in points) include one chunk per group and groups that
# split an edge's kept chunks.
SD_CHUNKS = [1, 64, 1024]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.sampled_from([1, 300, SD_GROUP_POINTS]),
       st.sampled_from(SD_CHUNKS))
def test_batch_signed_distance_matches_all_pairs_on_bezier_loops(seed, ss, group, chunk):
    # random (often self-intersecting) closed Bezier loops, flattened as the
    # rasterizer does, against a supersample grid spanning the whole canvas;
    # canvas sizes 4-39 px are mostly not a multiple of the tile, and at
    # supersample 3 and above a tile holds more points than a 64-point chunk
    rng = np.random.default_rng(seed)
    size = int(rng.integers(4, 40))
    n_seg = int(rng.integers(2, 7))
    ctrl = rng.uniform(-0.2 * size, 1.2 * size, (3 * n_seg, 2))
    path = VectorPath(control_points=ctrl, fill_color=np.zeros(3), opacity=1.0,
                      layer_tag="albedo")
    poly = flatten_bezier(path, RasterizerConfig(flatten_tolerance=float(rng.choice([0.02, 0.1, 1.0]))))
    coords = (np.arange(size * ss) + 0.5) / ss
    gy, gx = np.meshgrid(coords, coords, indexing="ij")
    _assert_matches_all_pairs(poly, np.stack([gx.ravel(), gy.ravel()], axis=1), group, chunk)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 64, SD_GROUP_POINTS]),
       st.sampled_from(SD_CHUNKS))
def test_batch_signed_distance_matches_all_pairs_on_lattice_polygons(seed, group, chunk):
    # integer vertices, some repeated (zero-length edges); queries on the
    # vertices, on edge midpoints, on a half-integer lattice (many points
    # equidistant from two or more edges, so argmin ties), in dense clusters
    # (up to 200 points in half a pixel, more than a 64-point chunk) and
    # scattered far away
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 16))
    verts = rng.integers(0, 12, (n, 2)).astype(np.float64)
    repeat = rng.random(n) < 0.2
    verts = np.repeat(verts, np.where(repeat, 2, 1), axis=0)
    if np.ptp(verts, axis=0).max() == 0.0:
        verts[0] += 1.0
    poly = Polyline(vertices=verts)
    mids = 0.5 * (verts + np.roll(verts, -1, axis=0))
    half = np.arange(-2.0, 14.5, 0.5)
    gy, gx = np.meshgrid(half, half, indexing="ij")
    cluster = rng.uniform(0, 12, 2) + rng.uniform(0, 0.5, (int(rng.integers(0, 200)), 2))
    far = rng.uniform(-200, 200, (int(rng.integers(0, 20)), 2))
    pts = np.concatenate([verts, mids, np.stack([gx.ravel(), gy.ravel()], axis=1),
                          cluster, far])
    _assert_matches_all_pairs(poly, rng.permutation(pts), group, chunk)


@pytest.mark.parametrize("group", [16, 2048])
def test_batch_signed_distance_matches_all_pairs_on_centred_circle(group):
    # the rasterizer's supersample-2 grid on a 64 x 64 canvas (16 tiles a
    # side) and on a 62.5 px one (not a multiple of the 4 px tile), and a
    # circle of 32 edges: the chunk around its centre keeps all 32 edges,
    # chunks near the outline only a few
    poly = flatten_bezier(disk_path(31, 31, 6), RasterizerConfig())
    assert poly.n_vertices == 32
    for n in (128, 125):
        coords = (np.arange(n) + 0.5) / 2
        gy, gx = np.meshgrid(coords, coords, indexing="ij")
        for chunk in SD_CHUNKS:
            _assert_matches_all_pairs(poly, np.stack([gx.ravel(), gy.ravel()], axis=1),
                                      group, chunk)


def test_batch_signed_distance_ties_and_empty():
    square = Polyline(vertices=np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 0.0],
                                         [4.0, 4.0], [0.0, 4.0]]))
    pts = np.array([[2.0, 2.0], [1.0, 1.0], [3.0, 3.0], [4.0, 0.0], [2.0, 0.0]])
    _assert_matches_all_pairs(square, pts)
    sd, edge, s, inside = batch_signed_distance(square, pts)
    # edge 1 has zero length; the centre ties all four sides, (1, 1) the
    # bottom (0) and the left (4), (3, 3) the right (2) and the top (3):
    # the lowest edge index wins
    assert edge.tolist()[:3] == [0, 0, 2]
    assert edge.dtype == np.int32 and inside.dtype == bool
    # (2, 0) lies on the bottom edge and its ray crosses the right one:
    # winding 1, so -0.0, the one place where inside is not sd < 0
    assert sd[0] == -2.0 and sd[3] == 0.0 and not inside[3]
    assert sd[4] == 0.0 and np.signbit(sd[4]) and inside[4]
    out = batch_signed_distance(square, np.zeros((0, 2)))
    assert [o.shape for o in out] == [(0,), (0,), (0,), (0,)]
    _assert_matches_all_pairs(square, np.zeros((0, 2)))


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
        dists = np.abs(batch_signed_distance(poly, dense)[0])
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
    sd = np.abs(batch_signed_distance(
        poly, np.array([[2.0, 2.0], [10.0, 10.0], [6.0, 2.0]]))[0])
    assert sd.max() < RasterizerConfig().flatten_tolerance + 1e-6


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
    # (21 bytes a point) and the call peaks at 4.85 MiB; the search that
    # also built an (m, 2) unit gradient and int64 edge indices peaked at
    # 6.39 MiB, which the 5 MiB bound rejects
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
