"""Bezier flattening, signed distance, and polyline simplification.

The rasterizer never evaluates curve-point distance directly: every closed
Bezier loop is first flattened to a polyline whose vertices remember which
segment and parameter value produced them, so gradients can flow back from
polyline vertices to control points through fixed Bernstein weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import RasterizerConfig, VectorPath


@dataclass
class Polyline:
    """Closed polygonal loop; edge i joins vertex i to vertex (i+1) % n.

    ``seg_index`` and ``t`` record, per vertex, the Bezier segment and
    parameter that generated it.  Traced mask contours carry no such
    provenance and leave both fields None.
    """

    vertices: np.ndarray
    seg_index: np.ndarray | None = None
    t: np.ndarray | None = None

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise ValueError("vertices must have shape (n, 2)")
        if self.vertices.shape[0] < 3:
            raise ValueError("a closed polyline needs at least 3 vertices")

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]


def bernstein3(t) -> np.ndarray:
    """Cubic Bernstein basis values; shape (..., 4) for input shape (...)."""
    t = np.asarray(t, dtype=np.float64)
    u = 1.0 - t
    return np.stack([u * u * u, 3.0 * u * u * t, 3.0 * u * t * t, t * t * t], axis=-1)


def _flatness(quad: np.ndarray) -> float:
    """Max distance from interior control points to the endpoint chord."""
    a, b = quad[0], quad[3]
    chord = b - a
    norm = np.hypot(chord[0], chord[1])
    if norm < 1e-12:
        # Degenerate chord: fall back to distance from the endpoint itself.
        d = quad[1:3] - a
        return float(np.max(np.hypot(d[:, 0], d[:, 1])))
    cross = np.abs(chord[0] * (quad[1:3, 1] - a[1]) - chord[1] * (quad[1:3, 0] - a[0]))
    return float(np.max(cross / norm))


def _split_cubic(quad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """de Casteljau split at t = 0.5."""
    p01 = 0.5 * (quad[0] + quad[1])
    p12 = 0.5 * (quad[1] + quad[2])
    p23 = 0.5 * (quad[2] + quad[3])
    p012 = 0.5 * (p01 + p12)
    p123 = 0.5 * (p12 + p23)
    mid = 0.5 * (p012 + p123)
    left = np.stack([quad[0], p01, p012, mid])
    right = np.stack([mid, p123, p23, quad[3]])
    return left, right


_MAX_SPLIT_DEPTH = 24

# Uniform parameter values per segment in the "fixed" flatten mode.
FLATTEN_FIXED_COUNT = 16


def _flatten_segment_adaptive(quad: np.ndarray, t0: float, t1: float,
                              tolerance: float, out_t: list[float],
                              depth: int = 0) -> None:
    """Append interior parameter values (excluding t1) of a flat-enough split."""
    if depth >= _MAX_SPLIT_DEPTH or _flatness(quad) <= tolerance:
        out_t.append(t0)
        return
    left, right = _split_cubic(quad)
    tm = 0.5 * (t0 + t1)
    _flatten_segment_adaptive(left, t0, tm, tolerance, out_t, depth + 1)
    _flatten_segment_adaptive(right, tm, t1, tolerance, out_t, depth + 1)


def flatten_bezier(path: VectorPath, config: RasterizerConfig) -> Polyline:
    """Flatten a closed Bezier loop into a closed polyline with provenance.

    Every emitted vertex lies exactly on the curve.  In adaptive mode each
    segment is subdivided until the convex-hull flatness test passes, so
    chords deviate from the true curve by at most ``flatten_tolerance``.
    Fixed mode emits ``FLATTEN_FIXED_COUNT`` uniformly spaced parameters
    per segment regardless of shape.  Loops that would flatten to fewer
    than 3 vertices are resampled at 3 per segment; a path whose control
    points all coincide is rejected (it collapses to a single vertex).
    """
    if np.ptp(path.control_points, axis=0).max() == 0.0:
        raise ValueError("degenerate path: all control points coincide "
                         "(flattens to a single vertex)")
    seg_idx: list[int] = []
    ts: list[float] = []
    for i in range(path.n_segments):
        quad = path.segment(i)
        if config.flatten_mode == "fixed":
            local = [j / FLATTEN_FIXED_COUNT for j in range(FLATTEN_FIXED_COUNT)]
        else:
            local = []
            _flatten_segment_adaptive(quad, 0.0, 1.0, config.flatten_tolerance, local)
        seg_idx.extend([i] * len(local))
        ts.extend(local)
    if len(ts) < 3:
        seg_idx = [i for i in range(path.n_segments) for _ in range(3)]
        ts = [j / 3.0 for _ in range(path.n_segments) for j in range(3)]
    seg_idx_arr = np.asarray(seg_idx, dtype=np.int64)
    t_arr = np.asarray(ts, dtype=np.float64)
    verts = np.empty((len(ts), 2))
    for i in range(path.n_segments):
        sel = seg_idx_arr == i
        if np.any(sel):
            verts[sel] = bernstein3(t_arr[sel]) @ path.segment(i)
    return Polyline(vertices=verts, seg_index=seg_idx_arr, t=t_arr)


def vertex_control_scatter(path: VectorPath, polyline: Polyline) -> tuple[np.ndarray, np.ndarray]:
    """Map polyline vertices to control-point indices and Bernstein weights.

    Returns (indices, weights), both shaped (n_vertices, 4): vertex v is
    the weighted sum of control points ``indices[v]`` with ``weights[v]``.
    Used to push vertex gradients back onto the control polygon.
    """
    if polyline.seg_index is None or polyline.t is None:
        raise ValueError("polyline carries no Bezier provenance")
    n_ctrl = path.control_points.shape[0]
    idx = (3 * polyline.seg_index[:, None] + np.arange(4)[None, :]) % n_ctrl
    w = bernstein3(polyline.t)
    return idx, w


def batch_signed_distance(polyline: Polyline, points: np.ndarray,
                          chunk: int = 8192) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized signed distance for many query points.

    Returns (sd, edge_index, foot_s, unit) where ``unit`` is the outward
    derivative d(sd)/d(point), i.e. sign * (p - foot) / |p - foot|, or zero
    when the query point sits exactly on the boundary.
    """
    pts = np.asarray(points, dtype=np.float64)
    v = polyline.vertices
    a = v
    b = np.roll(v, -1, axis=0)
    ab = b - a
    ab_sq = np.einsum("ij,ij->i", ab, ab)
    ab_sq_safe = np.where(ab_sq < 1e-24, 1.0, ab_sq)

    n_pts = pts.shape[0]
    sd = np.empty(n_pts)
    edge_idx = np.empty(n_pts, dtype=np.int64)
    foot_s = np.empty(n_pts)
    unit = np.zeros((n_pts, 2))

    for lo in range(0, n_pts, chunk):
        hi = min(lo + chunk, n_pts)
        p = pts[lo:hi]
        # (m, e) foot parameters clamped to the segment
        rel = p[:, None, :] - a[None, :, :]
        s = np.einsum("mej,ej->me", rel, ab) / ab_sq_safe[None, :]
        np.clip(s, 0.0, 1.0, out=s)
        foot = a[None, :, :] + s[..., None] * ab[None, :, :]
        diff = p[:, None, :] - foot
        dist_sq = np.einsum("mej,mej->me", diff, diff)
        e_best = np.argmin(dist_sq, axis=1)
        m_idx = np.arange(hi - lo)
        d_best = np.sqrt(dist_sq[m_idx, e_best])
        s_best = s[m_idx, e_best]
        diff_best = diff[m_idx, e_best]

        # winding via crossing counts, vectorized over the chunk
        py = p[:, 1][:, None]
        px = p[:, 0][:, None]
        up = (a[None, :, 1] <= py) & (b[None, :, 1] > py)
        down = (b[None, :, 1] <= py) & (a[None, :, 1] > py)
        cross = ((b[None, :, 0] - a[None, :, 0]) * (py - a[None, :, 1])
                 - (b[None, :, 1] - a[None, :, 1]) * (px - a[None, :, 0]))
        wind = np.sum(up & (cross > 0), axis=1) - np.sum(down & (cross < 0), axis=1)
        sign = np.where(wind != 0, -1.0, 1.0)

        sd[lo:hi] = sign * d_best
        edge_idx[lo:hi] = e_best
        foot_s[lo:hi] = s_best
        nonzero = d_best > 1e-12
        unit[lo:hi][nonzero] = (sign[nonzero, None] * diff_best[nonzero]
                                / d_best[nonzero, None])
    return sd, edge_idx, foot_s, unit


def _perpendicular_distances(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance from each point to the infinite chord ab (segment if degenerate)."""
    ab = b - a
    norm = np.hypot(ab[0], ab[1])
    if norm < 1e-12:
        d = points - a
        return np.hypot(d[:, 0], d[:, 1])
    cross = np.abs(ab[0] * (points[:, 1] - a[1]) - ab[1] * (points[:, 0] - a[0]))
    return cross / norm


def _dp_open(points: np.ndarray, epsilon: float) -> np.ndarray:
    """Douglas-Peucker on an open chain; returns kept vertex indices."""
    n = points.shape[0]
    keep = np.zeros(n, dtype=bool)
    keep[0] = keep[-1] = True
    stack = [(0, n - 1)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo < 2:
            continue
        interior = points[lo + 1:hi]
        d = _perpendicular_distances(interior, points[lo], points[hi])
        k = int(np.argmax(d))
        if d[k] > epsilon:
            mid = lo + 1 + k
            keep[mid] = True
            stack.append((lo, mid))
            stack.append((mid, hi))
    return np.flatnonzero(keep)


def _farthest_pair(points: np.ndarray) -> tuple[int, int]:
    """Indices (i, j), i < j, of the two mutually farthest vertices.

    Ties resolve to the lexicographically smallest (i, j).  Distances are
    computed blockwise to bound memory on long contours.
    """
    n = points.shape[0]
    best = -1.0
    bi, bj = 0, 1
    block = 256
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        diff = points[lo:hi, None, :] - points[None, :, :]
        dist = np.einsum("mnj,mnj->mn", diff, diff)
        for r in range(hi - lo):
            i = lo + r
            row = dist[r, i + 1:]
            if row.size == 0:
                continue
            k = int(np.argmax(row))
            if row[k] > best + 1e-15:
                best = row[k]
                bi, bj = i, i + 1 + k
    return bi, bj


def polygon_area(points: np.ndarray) -> float:
    """Signed shoelace area of a closed polygon (positive if y-down clockwise)."""
    x, y = points[:, 0], points[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _simplify_closed_once(pts: np.ndarray, epsilon: float) -> np.ndarray:
    i, j = _farthest_pair(pts)
    # Two arcs, both traversed forward: i..j and j..i (wrapping).
    arc1 = pts[i:j + 1]
    arc2 = np.concatenate([pts[j:], pts[:i + 1]], axis=0)
    k1 = _dp_open(arc1, epsilon)
    k2 = _dp_open(arc2, epsilon)
    part1 = arc1[k1[:-1]]  # drop arc endpoints duplicated by the other arc
    part2 = arc2[k2[:-1]]
    return np.concatenate([part1, part2], axis=0)


def simplify_closed(points: np.ndarray, epsilon: float) -> np.ndarray:
    """Douglas-Peucker for a closed loop.

    The loop is split at its two mutually farthest vertices, each arc is
    simplified independently with the split points pinned, and the arcs
    are rejoined.  epsilon <= 0 returns the input unchanged.  Every
    discarded vertex lies within epsilon of the output.  If a tolerance
    would collapse the loop to zero area (small shapes under a coarse
    epsilon), it is halved until the result is a proper polygon, so a
    unit square survives any epsilon as all four corners.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must have shape (n, 2)")
    n = pts.shape[0]
    if epsilon <= 0 or n <= 3:
        return pts.copy()
    eps = float(epsilon)
    for _ in range(64):
        out = _simplify_closed_once(pts, eps)
        if out.shape[0] >= 3 and polygon_area(out) != 0.0:
            return out
        eps *= 0.5
    return pts.copy()
