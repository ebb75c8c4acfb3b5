"""Bezier flattening, signed distance, and polyline simplification.

The rasterizer never evaluates curve-point distance directly: every closed
Bezier loop is first flattened to a polyline whose vertices remember which
segment and parameter value produced them, so gradients can flow back from
polyline vertices to control points through fixed Bernstein weights.

``batch_signed_distance`` takes the query points as the row-major grid
the rasterizer samples a window on.  It needs no sort and no gather: the
winding number comes from a per-row scanline count, the edge culling
from tile bounds that separate into a row and a column term, and the
distance from each kept edge sweeping the rectangle of its kept tiles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import RasterizerConfig, VectorPath


@dataclass
class Polyline:
    """Closed polygonal loop; edge i joins vertex i to vertex (i+1) % n.

    ``seg_index`` and ``t`` record, per vertex, the Bezier segment and
    parameter that generated it.  Polygons built directly from vertices
    (by tests, or by the lattice cases of ``scripts/output_digest.py``)
    have no such provenance and leave both fields None.
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

# Largest chord-to-curve deviation, in px, of the "adaptive" flatten mode.
FLATTEN_TOLERANCE = 0.1
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
    chords deviate from the true curve by at most ``FLATTEN_TOLERANCE``.
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
        seg_idx, t = _adaptive_params(quads, FLATTEN_TOLERANCE)
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


# Side, in the points' units (pixels for the rasterizer's supersamples),
# of the square tiles batch_signed_distance culls edges by: 4 * s samples
# at supersample s.
SD_TILE = 4.0

# Slack on the edge-culling test, relative to the bound plus the squared
# coordinate scale: rounding moves a computed squared distance by about
# 1e-16 of that scale, so no edge that can win the argmin is dropped.
_CULL_SLACK = 1e-9


def _foot_param(px, py, ax, ay, abx, aby, ab_sq):
    """Clamped foot parameter s of p on edge a + s * ab: the operations of
    ``((p - a) . ab) / |ab|^2`` clipped to [0, 1], in that order.  A row
    of px and a column of py give the parameters of their grid."""
    s = (px - ax) * abx
    s = s + (py - ay) * aby
    s /= ab_sq
    return np.clip(s, 0.0, 1.0, out=s)


def _axes_of_grid(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The x and y axes of a row-major grid of points, or ValueError."""
    n = pts.shape[0]
    new_row = np.flatnonzero(pts[:, 1] != pts[0, 1])
    nx = int(new_row[0]) if new_row.size else n
    xs, ys = pts[:nx, 0], pts[::nx, 1]
    if (n % nx or np.any(xs[1:] <= xs[:-1]) or np.any(ys[1:] <= ys[:-1])
            or not (pts[:, 0].reshape(-1, nx) == xs).all()
            or not (pts[:, 1].reshape(-1, nx) == ys[:, None]).all()):
        raise ValueError("points must be a row-major grid: the product of "
                         "increasing x and y axes, x varying fastest")
    return xs, ys


def _tiles(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and end indices of the runs of an increasing axis that fall
    in one SD_TILE cell, counted from its first value."""
    cell = np.floor((axis - axis[0]) / SD_TILE)
    starts = np.r_[0, np.flatnonzero(cell[1:] != cell[:-1]) + 1]
    return starts, np.r_[starts[1:], axis.size]


def _scanline_inside(xs, ys, ax, ay, abx, aby, y_lo, y_hi) -> np.ndarray:
    """Nonzero-winding mask of the grid xs x ys, shape (ny, nx).

    Edge e crosses the rays of the rows with y in [y_lo[e], y_hi[e]); an
    up edge counts the samples of such a row where the cross product
    ``abx * (y - ay) - aby * (x - ax)`` is positive, a down edge those
    where it is negative.  That expression is monotone in x even as
    rounded, so the counted samples are a prefix of the row, whose length
    a bisection over all (edge, row) pairs finds; a difference array
    summed along the rows turns the prefixes into winding numbers.  The
    edges go in blocks of about as many pairs as the grid has samples.
    """
    ny, nx = ys.size, xs.size
    r_lo, r_hi = np.searchsorted(ys, y_lo), np.searchsorted(ys, y_hi)
    ends = np.cumsum(r_hi - r_lo)
    wind = np.zeros((ny, nx + 1), dtype=np.int32)
    cuts = np.searchsorted(ends, np.arange(ny * nx, ends[-1], ny * nx), side="right")
    for block in np.split(np.arange(ends.size), cuts):
        count = r_hi[block] - r_lo[block]
        e = np.repeat(block, count)
        r = np.arange(e.size) - np.repeat(np.cumsum(count) - count - r_lo[block], count)
        cy = abx[e] * (ys[r] - ay[e])
        flip = np.where(aby[e] > 0, 1.0, -1.0)  # down edges count cross < 0
        k = np.zeros(e.size, dtype=np.intp)  # the prefix length
        step = 1 << (nx.bit_length() - 1)
        while step:
            c = np.minimum(k + step, nx)
            cross = cy - aby[e] * (xs[c - 1] - ax[e])
            k += step * ((k + step <= nx) & (flip * cross > 0))
            step >>= 1
        sign = flip.astype(np.int32)
        np.add.at(wind, (r, 0), sign)
        np.add.at(wind, (r, k), -sign)
    np.cumsum(wind, axis=1, out=wind)
    return wind[:, :nx] != 0


def batch_signed_distance(polyline: Polyline, points: np.ndarray, with_grad: bool = True
                          ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None,
                                     np.ndarray | None]:
    """Signed distance of every point of a row-major grid to a polyline.

    ``points`` is an (n, 2) grid, x varying fastest: the product of a
    strictly increasing x axis (its first row) and y axis (its first
    column), as raster.path_coverage builds over a window's supersamples.
    Any other point set raises ValueError.  Returns (sd, edge_index,
    foot_s, inside), each of shape (n,): the signed distance, the nearest
    edge (int32), the clamped foot parameter on it and the nonzero-winding
    mask, the record per point that the rasterizer's backward pass keeps
    (raster._sample_unit turns it into the unit gradient).  The nearest
    edge is the lowest-indexed edge at the minimum squared distance, and
    the sign comes from the nonzero winding number, counted per row as
    in scanline polygon fill (see _scanline_inside); ``inside`` differs
    from ``sd < 0`` only where sd is -0.0, on the outline.  The points
    must be finite.

    The grid is cut into square tiles of side SD_TILE, and each edge is
    tested only where it can be nearest.  With B a tile's box, edge e's
    lower bound is the squared gap between B and e's bounding box; the
    tile's upper bound is the minimum over edges of the squared distance
    from B's farthest corner to the edge's first vertex.  Every point of
    B is within the upper bound of some edge, so an edge whose lower
    bound exceeds it (by more than _CULL_SLACK, which absorbs rounding)
    is never nearest nor tied for nearest there; the edge that sets the
    upper bound is always kept.  Both bounds separate into a term per
    tile column and one per tile row; the (edge, tile) tables are built
    in bands of tile rows, each holding at most about as many entries as
    the grid has points.  Then each kept edge, in ascending order, sweeps
    the rectangle spanning its kept tiles, and every point keeps a
    running minimum of the squared distance that only a strictly smaller
    value replaces, so ties go to the lowest edge index; the rectangle's
    other tiles change nothing, since there the edge is never nearest
    nor tied.  Last, the foot parameter is computed once per point for
    its nearest edge.  Every point meets every edge tied at its minimum,
    through the same foot and distance arithmetic as a test against
    every edge, so all four outputs are bit for bit those of the
    all-pairs computation.  Without ``with_grad`` only ``sd`` is
    computed, to the same bits, and the result is ``(sd, None, None,
    None)``.
    """
    pts = np.asarray(points, dtype=np.float64)
    n_pts = pts.shape[0]
    if n_pts == 0:
        empty = np.empty(0)
        if not with_grad:
            return empty, None, None, None
        return empty, np.empty(0, dtype=np.int32), np.empty(0), np.empty(0, dtype=bool)
    xs, ys = _axes_of_grid(pts)
    ny, nx = ys.size, xs.size
    v = polyline.vertices
    b = np.roll(v, -1, axis=0)
    ab = b - v
    ab_sq = np.einsum("ij,ij->i", ab, ab)
    ab_sq_safe = np.where(ab_sq < 1e-24, 1.0, ab_sq)
    ax, ay = np.ascontiguousarray(v.T)
    abx, aby = np.ascontiguousarray(ab.T)
    x_lo, x_hi = np.minimum(ax, b[:, 0]), np.maximum(ax, b[:, 0])
    y_lo, y_hi = np.minimum(ay, b[:, 1]), np.maximum(ay, b[:, 1])
    inside = _scanline_inside(xs, ys, ax, ay, abx, aby, y_lo, y_hi)

    # (edge, tile column) and (edge, tile row) terms of both bounds
    col0, col1 = _tiles(xs)
    row0, row1 = _tiles(ys)
    x0, x1, y0, y1 = xs[col0], xs[col1 - 1], ys[row0], ys[row1 - 1]
    gx = np.square(np.maximum(np.maximum(x_lo[:, None] - x1, x0 - x_hi[:, None]), 0.0))
    gy = np.square(np.maximum(np.maximum(y_lo[:, None] - y1, y0 - y_hi[:, None]), 0.0))
    fx = np.square(np.maximum(np.abs(ax[:, None] - x0), np.abs(ax[:, None] - x1)))
    fy = np.square(np.maximum(np.abs(ay[:, None] - y0), np.abs(ay[:, None] - y1)))
    scale_sq = max(np.abs(xs).max(), np.abs(ys).max(), np.abs(v).max()) ** 2
    n_edges, n_cols, n_rows = v.shape[0], col0.size, row0.size
    band = max(1, n_pts // (n_edges * n_cols))  # tile rows per band
    kept_rows = np.empty((n_edges, n_rows), dtype=bool)
    kept_cols = np.zeros((n_edges, n_cols), dtype=bool)
    for t0 in range(0, n_rows, band):
        t = slice(t0, t0 + band)
        upper = (fx[:, None, :] + fy[:, t, None]).min(axis=0)
        keep = gx[:, None, :] + gy[:, t, None] <= upper + _CULL_SLACK * (upper + scale_sq)
        kept_rows[:, t] = keep.any(axis=2)
        kept_cols |= keep.any(axis=1)
    del keep

    # each kept edge, ascending, sweeps the rectangle of its kept tiles;
    # a running minimum that only a strictly smaller distance replaces
    sd = np.full(n_pts, np.inf)
    best = sd.reshape(ny, nx)
    if with_grad:
        edge_idx = np.zeros(n_pts, dtype=np.int32)
        near = edge_idx.reshape(ny, nx)
    swept = np.flatnonzero(kept_rows.any(axis=1))
    r0 = row0[kept_rows[swept].argmax(axis=1)]
    r1 = row1[n_rows - 1 - kept_rows[swept, ::-1].argmax(axis=1)]
    c0 = col0[kept_cols[swept].argmax(axis=1)]
    c1 = col1[n_cols - 1 - kept_cols[swept, ::-1].argmax(axis=1)]
    edges = np.stack([ax, ay, abx, aby, ab_sq_safe], axis=1)[swept].tolist()  # Python floats
    ys_col = ys[:, None]
    for e, r0e, r1e, c0e, c1e, (axe, aye, abxe, abye, sqe) in zip(
            swept.tolist(), r0.tolist(), r1.tolist(), c0.tolist(), c1.tolist(), edges):
        px, py = xs[c0e:c1e], ys_col[r0e:r1e]
        s = _foot_param(px, py, axe, aye, abxe, abye, sqe)
        dx = s * abxe  # p - (a + s * ab), squared, per axis
        dx += axe
        np.subtract(px, dx, out=dx)
        dx *= dx
        s *= abye
        s += aye
        np.subtract(py, s, out=s)
        s *= s
        dx += s
        cur = best[r0e:r1e, c0e:c1e]
        if not with_grad:
            np.minimum(cur, dx, out=cur)
            continue
        closer = dx < cur
        np.copyto(cur, dx, where=closer)
        np.copyto(near[r0e:r1e, c0e:c1e], e, where=closer)
    np.sqrt(sd, out=sd)
    np.negative(sd, out=sd, where=inside.ravel())
    if not with_grad:
        return sd, None, None, None

    # the winner pass, in the bands of the culling: _foot_param's
    # operations on each point's nearest edge, mostly in place
    foot_s = np.empty(n_pts)
    foot = foot_s.reshape(ny, nx)
    for t0 in range(0, n_rows, band):
        rows = slice(row0[t0], row1[min(t0 + band, n_rows) - 1])
        e, s = near[rows], foot[rows]
        np.subtract(xs, ax[e], out=s)
        s *= abx[e]
        t = ay[e]
        np.subtract(ys_col[rows], t, out=t)
        t *= aby[e]
        s += t
        s /= ab_sq_safe[e]
        np.clip(s, 0.0, 1.0, out=s)
    return sd, edge_idx, foot_s, inside.ravel()


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
