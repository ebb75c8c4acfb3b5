"""Scalar and all-pairs signed distance: the test oracles of the distance search.

``signed_distance`` and ``winding_number`` work one query point and one
edge at a time.  ``_all_pairs_signed_distance`` tests every point against
every edge and returns what ``geometry.batch_signed_distance`` must
return bit for bit, plus each point's unit gradient d(sd)/d(point),
the reference for ``raster.PathCoverage.unit`` and ``coverage_backward``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from covec.geometry import Polyline


def polyline_lengths(vertices: np.ndarray) -> np.ndarray:
    """Edge lengths of a closed polyline, edge i = v[i] -> v[(i+1) % n]."""
    diff = np.roll(vertices, -1, axis=0) - vertices
    return np.hypot(diff[:, 0], diff[:, 1])


def point_segment_distance(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Distance from point p to segment ab and the foot parameter s in [0, 1]."""
    ab = b - a
    denom = float(ab @ ab)
    if denom < 1e-24:
        s = 0.0
    else:
        s = float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
    q = a + s * ab
    return float(np.hypot(*(p - q))), s


def winding_number(polyline: Polyline, point: np.ndarray) -> int:
    """Crossing-count winding number of a closed polyline around a point."""
    v = polyline.vertices
    a = v
    b = np.roll(v, -1, axis=0)
    px, py = float(point[0]), float(point[1])
    up = (a[:, 1] <= py) & (b[:, 1] > py)
    down = (b[:, 1] <= py) & (a[:, 1] > py)
    cross = (b[:, 0] - a[:, 0]) * (py - a[:, 1]) - (b[:, 1] - a[:, 1]) * (px - a[:, 0])
    return int(np.sum(up & (cross > 0)) - np.sum(down & (cross < 0)))


class NearestEdge(NamedTuple):
    """Closest boundary edge to a query point."""

    edge_index: int
    foot: np.ndarray  # closest point on the edge
    s: float  # foot parameter along the edge, 0 at its first vertex


def signed_distance(polyline: Polyline, point: np.ndarray) -> tuple[float, NearestEdge]:
    """Signed distance from a point to a closed polyline.

    Negative inside (nonzero winding), positive outside.  The nearest
    edge, its foot point, and the foot parameter come along; distance
    ties resolve to the lowest edge index.
    """
    p = np.asarray(point, dtype=np.float64)
    v = polyline.vertices
    n = v.shape[0]
    best_d = np.inf
    best_edge = 0
    best_s = 0.0
    for e in range(n):
        d, s = point_segment_distance(p, v[e], v[(e + 1) % n])
        if d < best_d - 1e-15:
            best_d, best_edge, best_s = d, e, s
    sign = -1.0 if winding_number(polyline, p) != 0 else 1.0
    a = v[best_edge]
    b = v[(best_edge + 1) % n]
    foot = a + best_s * (b - a)
    return sign * best_d, NearestEdge(edge_index=best_edge, foot=foot, s=best_s)


def _all_pairs_signed_distance(polyline: Polyline, points: np.ndarray,
                               chunk: int = 8192
                               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                                          np.ndarray]:
    """batch_signed_distance by testing every point against every edge.

    Returns (sd, edge_index, foot_s, inside, unit).  The edge-culled
    production search must return the first four arrays bit for bit,
    the edge index as int32 and ``inside`` as the nonzero-winding mask.
    ``unit`` is the outward derivative d(sd)/d(point), i.e.
    sign * (p - foot) / |p - foot|, or zero where |p - foot| <= 1e-12.
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
    edge_idx = np.empty(n_pts, dtype=np.int32)
    foot_s = np.empty(n_pts)
    inside = np.empty(n_pts, dtype=bool)
    unit = np.zeros((n_pts, 2))

    for lo in range(0, n_pts, chunk):
        hi = min(lo + chunk, n_pts)
        p = pts[lo:hi]
        # (m, e) foot parameters clamped to the segment
        rel = p[:, None, :] - a[None, :, :]
        # the plain dot product: einsum's zero accumulator would turn a
        # -0.0 foot parameter into +0.0
        s = (rel[..., 0] * ab[:, 0] + rel[..., 1] * ab[:, 1]) / ab_sq_safe
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
        inside[lo:hi] = wind != 0
        nonzero = d_best > 1e-12
        unit[lo:hi][nonzero] = (sign[nonzero, None] * diff_best[nonzero]
                                / d_best[nonzero, None])
    return sd, edge_idx, foot_s, inside, unit
