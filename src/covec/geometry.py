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


def _flatness(quads: np.ndarray) -> np.ndarray:
    """Per (4, 2) quad: max distance from the two interior control points
    to the endpoint chord, or to the first endpoint if the chord is
    degenerate."""
    a = quads[:, 0]
    chord = quads[:, 3] - a
    norm = np.hypot(chord[:, 0], chord[:, 1])
    rel = quads[:, 1:3] - a[:, None]
    degenerate = norm < 1e-12
    cross = np.abs(chord[:, None, 0] * rel[..., 1] - chord[:, None, 1] * rel[..., 0])
    dist = np.where(degenerate[:, None], np.hypot(rel[..., 0], rel[..., 1]),
                    cross / np.where(degenerate, 1.0, norm)[:, None])
    return dist.max(axis=1)


def _split_cubic(quads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """de Casteljau split of every (4, 2) quad at t = 0.5."""
    q0, q1, q2, q3 = quads[:, 0], quads[:, 1], quads[:, 2], quads[:, 3]
    p01 = 0.5 * (q0 + q1)
    p12 = 0.5 * (q1 + q2)
    p23 = 0.5 * (q2 + q3)
    p012 = 0.5 * (p01 + p12)
    p123 = 0.5 * (p12 + p23)
    mid = 0.5 * (p012 + p123)
    left = np.stack([q0, p01, p012, mid], axis=1)
    right = np.stack([mid, p123, p23, q3], axis=1)
    return left, right


_MAX_SPLIT_DEPTH = 24

# Uniform parameter values per segment in the "fixed" flatten mode.
FLATTEN_FIXED_COUNT = 16


def _adaptive_params(quads: np.ndarray, tolerance: float) -> tuple[np.ndarray, np.ndarray]:
    """Adaptive subdivision of every segment, one depth level at a time.

    A piece is kept once it passes the flatness test or reaches
    _MAX_SPLIT_DEPTH; otherwise it splits at its parameter midpoint.
    Returns (segment, t0) of the kept pieces, ordered by segment and then
    by t0, i.e. the start parameter of every chord in order along the loop.
    """
    seg = np.arange(quads.shape[0])
    t0 = np.zeros(seg.size)
    t1 = np.ones(seg.size)
    kept_seg, kept_t = [], []
    for depth in range(_MAX_SPLIT_DEPTH + 1):
        if depth == _MAX_SPLIT_DEPTH:
            done = np.ones(seg.size, dtype=bool)
        else:
            done = _flatness(quads) <= tolerance
        kept_seg.append(seg[done])
        kept_t.append(t0[done])
        split = ~done
        if not split.any():
            break
        quads, seg, t0, t1 = quads[split], seg[split], t0[split], t1[split]
        tm = 0.5 * (t0 + t1)
        quads = np.concatenate(_split_cubic(quads))
        seg = np.concatenate([seg, seg])
        t0, t1 = np.concatenate([t0, tm]), np.concatenate([tm, t1])
    seg = np.concatenate(kept_seg)
    t = np.concatenate(kept_t)
    order = np.lexsort((t, seg))
    return seg[order], t[order]


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
    n_seg = path.n_segments
    quads = np.stack([path.segment(i) for i in range(n_seg)])
    if config.flatten_mode == "fixed":
        seg_idx = np.repeat(np.arange(n_seg), FLATTEN_FIXED_COUNT)
        t = np.tile(np.arange(FLATTEN_FIXED_COUNT) / FLATTEN_FIXED_COUNT, n_seg)
    else:
        seg_idx, t = _adaptive_params(quads, config.flatten_tolerance)
    if t.size < 3:
        seg_idx = np.repeat(np.arange(n_seg), 3)
        t = np.tile(np.arange(3) / 3.0, n_seg)
    verts = np.empty((t.size, 2))
    for i in range(n_seg):
        sel = seg_idx == i
        verts[sel] = bernstein3(t[sel]) @ quads[i]
    return Polyline(vertices=verts, seg_index=seg_idx, t=t)


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


# Side of the square cells that batch_signed_distance sorts the query
# points by, in the points' units (pixels for the rasterizer's
# supersamples): at supersample 2 a full cell holds one chunk of points.
SD_TILE = 4.0

# Points per group of chunks in batch_signed_distance; the group's
# running minimum, its winner pass and its (edge, chunk) cull tables
# scale with it.
SD_GROUP_POINTS = 12288

# Consecutive cell-sorted points per chunk in batch_signed_distance, the
# unit a kept edge is tested on: one full cell at supersample 2.
_SD_CHUNK = 64

# Slack on the edge-culling test, relative to the bound plus the squared
# coordinate scale: rounding moves a computed squared distance by about
# 1e-16 of that scale, so no edge that can win the argmin is dropped.
_CULL_SLACK = 1e-9


def _foot(px, py, ax, ay, abx, aby, ab_sq):
    """Clamped foot parameter s of p on edge a + s * ab, and p minus the foot.

    The operations are those of ``((p - a) . ab) / |ab|^2`` clipped to
    [0, 1] and of ``p - (a + s * ab)``, in that order; most run in place,
    so a call holds few temporaries.
    """
    s = (px - ax) * abx
    s += (py - ay) * aby
    s /= ab_sq
    np.clip(s, 0.0, 1.0, out=s)
    dx, dy = s * abx, s * aby
    dx += ax
    dy += ay
    return s, np.subtract(px, dx, out=dx), np.subtract(py, dy, out=dy)


def batch_signed_distance(polyline: Polyline, points: np.ndarray, with_grad: bool = True
                          ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None,
                                     np.ndarray | None]:
    """Vectorized signed distance for many query points.

    Returns (sd, edge_index, foot_s, unit) where ``unit`` is the outward
    derivative d(sd)/d(point), i.e. sign * (p - foot) / |p - foot|, or zero
    when the query point sits exactly on the boundary.  The nearest edge
    is the lowest-indexed edge at the minimum squared distance, and the
    sign comes from the nonzero winding number, counted in one pass over
    the edges as in scanline polygon fill.  The points must be finite.

    The points are sorted by square cell of side SD_TILE and cut into
    chunks of _SD_CHUNK consecutive sorted points, the last padded with
    copies of its last point, and each chunk is tested only against the
    edges that can be nearest to one of its points.  With B the bounding
    box of the chunk, edge e's lower bound is the squared gap between B
    and e's bounding box; the chunk's upper bound is the minimum over
    edges of the squared distance from B's farthest corner to the edge's
    first vertex.  Every point of B is within the upper bound of some
    edge, so an edge whose lower bound exceeds it (by more than
    _CULL_SLACK, which absorbs rounding) is never nearest nor tied for
    nearest; the edge that sets the upper bound is always kept.  Then
    each kept edge, in ascending order, is tested against all its kept
    chunks as one dense block, and every point keeps a running minimum
    of the squared distance that only a strictly smaller value replaces,
    so ties go to the lowest edge index.  Last, the foot parameter and
    offset are computed once per point for its nearest edge.  Every
    point meets every edge tied at its minimum, through the same foot
    and distance arithmetic as a test against every edge, so all four
    outputs are bit for bit those of the all-pairs computation.  Chunks
    are processed in groups (see SD_GROUP_POINTS), which bounds the
    temporaries.  Without ``with_grad`` only ``sd`` is computed, to the
    same bits, and the result is ``(sd, None, None, None)``.
    """
    pts = np.asarray(points, dtype=np.float64)
    v = polyline.vertices
    b = np.roll(v, -1, axis=0)
    ab = b - v
    ab_sq = np.einsum("ij,ij->i", ab, ab)
    ab_sq_safe = np.where(ab_sq < 1e-24, 1.0, ab_sq)
    ax, ay = np.ascontiguousarray(v.T)
    abx, aby = np.ascontiguousarray(ab.T)
    x_lo = np.minimum(ax, b[:, 0])[:, None]
    x_hi = np.maximum(ax, b[:, 0])[:, None]
    y_lo = np.minimum(ay, b[:, 1])[:, None]
    y_hi = np.maximum(ay, b[:, 1])[:, None]

    n_pts = pts.shape[0]
    sd = np.empty(n_pts)
    edge_idx = foot_s = unit = None
    if with_grad:
        edge_idx = np.empty(n_pts, dtype=np.int64)
        foot_s = np.empty(n_pts)
        unit = np.zeros((n_pts, 2))
    if n_pts == 0:
        return sd, edge_idx, foot_s, unit
    x, y = pts[:, 0], pts[:, 1]

    # winding number, one pass over the edges: with the points sorted by y,
    # edge e crosses the rays of the run with y in [y_lo[e], y_hi[e]); an up
    # edge adds where the cross product is positive, a down edge subtracts
    by_y = np.argsort(y, kind="stable")
    first, last = np.searchsorted(y[by_y], (y_lo.ravel(), y_hi.ravel()))
    wind = np.zeros(n_pts, dtype=np.int64)
    for e in np.flatnonzero(first < last):
        i = by_y[first[e]:last[e]]
        cross = abx[e] * (y[i] - ay[e]) - aby[e] * (x[i] - ax[e])
        if aby[e] > 0:
            wind[i] += cross > 0
        else:
            wind[i] -= cross < 0
    inside = wind != 0
    del by_y, wind  # only the mask outlives the pass

    # sort the points by cell and cut them into (chunk, _SD_CHUNK) blocks
    cx = np.floor((x - x.min()) / SD_TILE).astype(np.int64)
    cy = np.floor((y - y.min()) / SD_TILE).astype(np.int64)
    order = np.argsort(cy * (cx.max() + 1) + cx, kind="stable")
    del cx, cy
    n_chunks = -(-n_pts // _SD_CHUNK)
    padded = np.r_[order, np.full(n_chunks * _SD_CHUNK - n_pts, order[-1])]
    xs = x[padded].reshape(n_chunks, _SD_CHUNK)
    ys = y[padded].reshape(n_chunks, _SD_CHUNK)
    del padded
    box_x0, box_x1 = xs.min(axis=1), xs.max(axis=1)
    box_y0, box_y1 = ys.min(axis=1), ys.max(axis=1)
    scale_sq = max(np.abs(pts).max(), np.abs(v).max()) ** 2
    edges = np.stack([ax, ay, abx, aby, ab_sq_safe], axis=1).tolist()  # cheaper than np.float64

    step = max(1, SD_GROUP_POINTS // _SD_CHUNK)  # chunks per group
    for c0 in range(0, n_chunks, step):
        c1 = min(c0 + step, n_chunks)
        x0, x1, y0, y1 = box_x0[c0:c1], box_x1[c0:c1], box_y0[c0:c1], box_y1[c0:c1]

        # (edge, chunk) bounds on the squared point-edge distance
        gx = np.maximum(np.maximum(x_lo - x1, x0 - x_hi), 0.0)
        gy = np.maximum(np.maximum(y_lo - y1, y0 - y_hi), 0.0)
        fx = np.maximum(np.abs(ax[:, None] - x0), np.abs(ax[:, None] - x1))
        fy = np.maximum(np.abs(ay[:, None] - y0), np.abs(ay[:, None] - y1))
        upper = (fx * fx + fy * fy).min(axis=0)
        keep = gx * gx + gy * gy <= upper + _CULL_SLACK * (upper + scale_sq)

        # each kept edge, ascending, against its kept chunks as one block;
        # a running minimum that only a strictly smaller distance replaces
        px, py = xs[c0:c1], ys[c0:c1]
        best = np.full(px.shape, np.inf)
        near = np.zeros(px.shape, dtype=np.int64)
        for e in np.flatnonzero(keep.any(axis=1)):
            rows = np.flatnonzero(keep[e])
            _, dx, dy = _foot(px[rows], py[rows], *edges[e])
            dist_sq = dx * dx + dy * dy
            if not with_grad:
                best[rows] = np.minimum(best[rows], dist_sq)
                continue
            cur, cur_e = best[rows], near[rows]
            closer = dist_sq < cur
            np.copyto(cur, dist_sq, where=closer)
            cur_e[closer] = e
            best[rows], near[rows] = cur, cur_e

        out = order[c0 * _SD_CHUNK:c1 * _SD_CHUNK]  # the padding is dropped
        d = np.sqrt(best.ravel()[:out.size])
        sign = np.where(inside[out], -1.0, 1.0)
        sd[out] = sign * d
        if not with_grad:
            continue
        e = near.ravel()[:out.size]
        s, dx, dy = _foot(px.ravel()[:out.size], py.ravel()[:out.size],
                          ax[e], ay[e], abx[e], aby[e], ab_sq_safe[e])
        edge_idx[out] = e
        foot_s[out] = s
        signed = sign[:, None] * np.stack([dx, dy], axis=1)
        unit[out] = np.divide(signed, d[:, None], out=np.zeros_like(signed),
                              where=d[:, None] > 1e-12)
        del s, dx, dy, d, signed, sign  # freed before the next group's sweep
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
