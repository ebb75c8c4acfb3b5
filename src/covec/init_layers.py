"""Layer initialization: label images to grouped Bezier paths plus reference renders.

The pipeline seeds optimization from a segmentation held as a label
image, in which each positive id names a region and 0 names none.  It
comes from a label-map file when provided, otherwise from a seeded
k-means segmentation whose small connected components are merged into
their neighbors on the components' adjacency graph.  Albedo paths trace
region outlines and take the mean albedo color under the region;
illumination paths trace the dark (sub-threshold) part of each region
and take the mean image/albedo attenuation ratio.  The dark parts form a
label image too, each part keeping its region's id.  A group of paths is
one label image, so its members never overlap.  Every step after
segmentation handles a region inside its bounding box from
``ndimage.find_objects``, so init costs pixels rather than regions x
canvas.  A group's paths stack by the area inside their outlines,
largest first: a region enclosed by a ring stacks above the ring, even
when it has more pixels than the ring.  A dark part whose largest piece
is below the area floor gets no path.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from .geometry import polygon_area, simplify_closed
from .model import SHADE_FLOOR, VectorPath


# The fallback albedo divides by luma blurred with sigma max(W, H) / this.
ALBEDO_BLUR_DIVISOR = 16.0

# The fallback segmentation clusters colors into KMEANS_CLUSTERS groups and
# merges connected components below MIN_REGION_FRAC of the canvas.
KMEANS_CLUSTERS = 8
MIN_REGION_FRAC = 0.001

# Most cubic segments a traced mask outline is fitted with.
MAX_SEGMENTS = 8


class InitError(ValueError):
    """Raised when no usable initialization can be built for an input."""


def luma(image: np.ndarray) -> np.ndarray:
    """Rec. 601 luma of an (H, W, 3) image."""
    return (0.299 * image[:, :, 0] + 0.587 * image[:, :, 1]
            + 0.114 * image[:, :, 2])


def fallback_albedo(image: np.ndarray) -> np.ndarray:
    """Shading-normalized albedo estimate when none is supplied.

    Divides the image by a heavily blurred luma field (floored to avoid
    blowups in dark areas) so smooth illumination cancels while surface
    color survives.  Result is clamped to [0, 1].
    """
    h, w = image.shape[:2]
    radius = max(w, h) / ALBEDO_BLUR_DIVISOR
    field = ndimage.gaussian_filter(luma(image), sigma=radius, mode="nearest")
    denom = np.maximum(field, SHADE_FLOOR)
    return np.clip(image / denom[:, :, None], 0.0, 1.0)


# ---------------------------------------------------------------------------
# segmentation fallback


def kmeans_labels(data: np.ndarray, k: int, seed: int, iters: int = 50) -> np.ndarray:
    """Seeded k-means over row vectors; returns a label per row.

    Plain Lloyd iterations with k-means++ seeding off a dedicated
    Generator, argmin ties to the lowest cluster index, and empty
    clusters keeping their previous centroid, so results are bit-stable
    across runs for a given seed.
    """
    data = np.asarray(data, dtype=np.float64)
    n = data.shape[0]
    rng = np.random.default_rng(seed)
    centroids = np.empty((k, data.shape[1]))
    centroids[0] = data[rng.integers(n)]
    d2 = np.full(n, np.inf)
    for j in range(1, k):
        diff = data - centroids[j - 1]
        d2 = np.minimum(d2, np.einsum("ij,ij->i", diff, diff))
        total = d2.sum()
        if total <= 0.0:
            centroids[j] = data[rng.integers(n)]
        else:
            centroids[j] = data[rng.choice(n, p=d2 / total)]
    labels = np.full(n, -1, dtype=np.int64)
    for _step in range(iters):
        dist = ((data[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(dist, axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            sel = labels == c
            if np.any(sel):
                centroids[c] = data[sel].mean(axis=0)
    return labels


_CROSS = ndimage.generate_binary_structure(2, 1)  # 4-connectivity


def _connected_components(labels: np.ndarray) -> np.ndarray:
    """Split a label image into 4-connected components, ids from 1."""
    comp = np.zeros(labels.shape, dtype=np.int64)
    next_id = 1
    for value in np.unique(labels):
        lab, count = ndimage.label(labels == value, structure=_CROSS)
        sel = lab > 0
        comp[sel] = lab[sel] + (next_id - 1)
        next_id += count
    return comp


def _merge_small_components(comp: np.ndarray, min_area: int) -> np.ndarray:
    """Absorb tiny components into their largest 4-adjacent neighbor.

    Component ids are positive.  Each sweep visits the components below
    ``min_area`` at its start, smallest first (ties to the lower id), and
    merges each one not yet absorbed into the neighbor with the largest
    current area (ties to the lower id); sweeps repeat until none is small
    or one component is left (the grid is connected, so each sweep merges
    one at least).  The merges run on the adjacency graph of the
    horizontal and vertical label pairs, an absorbed component handing
    its neighbors to its absorber; the label image is relabelled once.
    """
    areas = np.bincount(comp.ravel())
    n = areas.size
    a = np.concatenate([comp[:, :-1].ravel(), comp[:-1].ravel()])
    b = np.concatenate([comp[:, 1:].ravel(), comp[1:].ravel()])
    a, b = a[a != b], b[a != b]
    keys = np.unique(np.concatenate([a * n + b, b * n + a]))
    nbrs = [set() for _ in range(n)]
    for u, v in zip((keys // n).tolist(), (keys % n).tolist()):
        nbrs[u].add(v)
    into = np.arange(n)
    while True:
        ids = np.flatnonzero(areas)
        small = ids[areas[ids] < min_area]
        if small.size == 0 or ids.size == 1:
            break
        for cid in small[np.argsort(areas[small], kind="stable")].tolist():
            if areas[cid] == 0 or not nbrs[cid]:
                continue  # absorbed this sweep, or the last one left
            target = -max((areas[m], -m) for m in nbrs[cid])[1]
            for m in nbrs[cid]:
                nbrs[m].discard(cid)
                nbrs[m].add(target)
            nbrs[target] |= nbrs[cid]
            nbrs[target].discard(target)
            areas[target] += areas[cid]
            areas[cid] = 0
            into[cid] = target
    while not np.array_equal(into[into], into):
        into = into[into]
    return into[comp]


def min_region_area(h: int, w: int) -> int:
    """Init's area floor: MIN_REGION_FRAC of the canvas, at least 1 px."""
    return max(1, int(np.ceil(MIN_REGION_FRAC * h * w)))


def fallback_segment(image: np.ndarray, seed: int) -> np.ndarray:
    """Color-cluster segmentation used when no label map is supplied.

    k-means (KMEANS_CLUSTERS clusters) in RGB, split clusters into
    4-connected components, then merge components below MIN_REGION_FRAC
    of the canvas into their largest neighbor on the graph of which
    components touch.  Returns the label image of the surviving
    components; the ids of absorbed ones are left unused.
    """
    h, w = image.shape[:2]
    labels = kmeans_labels(image.reshape(-1, 3), KMEANS_CLUSTERS, seed)
    comp = _connected_components(labels.reshape(h, w))
    return _merge_small_components(comp, min_region_area(h, w))


def regions_from_labels(label_map: np.ndarray) -> np.ndarray:
    """Label image of a label map: its values become ids 1..K in ascending order."""
    if label_map.size == 0:
        raise InitError("label map contains no labels")
    return np.unique(label_map, return_inverse=True)[1].reshape(label_map.shape) + 1


def _regions(labels: np.ndarray):
    """Yield ``(id, box, bitmap)`` per region of a label image, in id order:
    its bounding box as a pair of slices and its pixels inside the box."""
    for rid, box in enumerate(ndimage.find_objects(labels), start=1):
        if box is not None:
            yield rid, box, labels[box] == rid


# ---------------------------------------------------------------------------
# region thresholding


def region_binarize(image: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Dark part of each region, thresholded at the region's mean luma.

    A pixel belongs to a region's dark part when its luma is <= the mean
    luma of the region, so a perfectly uniform region yields itself.  The
    part is dropped when its largest 4-connected piece, the one
    ``trace_boundary`` would outline, is below ``min_region_area`` (the
    floor ``fallback_segment`` merges below): anti-aliasing dust gets no
    path.  Returns a label image in which each kept part carries its
    region's id and 0 marks the rest.  A part is a nonempty subset of its
    region: the darkest pixel's luma is the base, and the threshold is
    never below it.
    """
    lum = luma(image)
    floor = min_region_area(*lum.shape)
    dark = np.zeros_like(labels)
    for rid, box, region in _regions(labels):
        vals = lum[box][region]
        # shift by the min before averaging so a constant region thresholds
        # at exactly its own value instead of one rounding step below it
        base = float(vals.min())
        part = region & (lum[box] <= base + float((vals - base).mean()))
        pieces = ndimage.label(part, structure=_CROSS)[0]
        if np.bincount(pieces.ravel())[1:].max() >= floor:
            dark[box][part] = rid
    return dark


# ---------------------------------------------------------------------------
# contour tracing

# direction vectors: right, down, left, up (y grows downward)
_DIRS = np.array([(1, 0), (0, 1), (-1, 0), (0, -1)])
# per direction, the (x, y) offsets from the edge's start vertex to the
# pixel on its right, which must be filled, and the one on its left, which
# must be empty
_EDGE_PIXELS = (((0, 0), (0, -1)), ((-1, 0), (0, 0)),
                ((-1, -1), (-1, 0)), ((0, -1), (-1, -1)))


def trace_boundary(mask: np.ndarray) -> np.ndarray:
    """Outer boundary of the largest 4-connected component of a mask.

    Walks directed grid edges keeping the region on the right, preferring
    right turns so saddle corners stay on the current component.  Returns
    corner vertices only (collinear lattice points collapsed), in pixel
    corner coordinates where pixel (x, y) spans [x, x+1] x [y, y+1].
    Interior holes are ignored.
    """
    mask = np.asarray(mask, dtype=bool)
    if not np.any(mask):
        raise ValueError("cannot trace an empty mask")
    lab, count = ndimage.label(mask, structure=_CROSS)
    if count > 1:
        areas = np.bincount(lab.ravel())
        areas[0] = 0
        filled = lab == int(np.argmax(areas))
    else:
        filled = mask
    ys, xs = np.nonzero(filled)
    padded = np.pad(filled, 1)  # pixel (x, y) is padded[y + 1, x + 1]
    start_i = np.lexsort((xs, ys))[0]
    sx, sy = int(xs[start_i]), int(ys[start_i])
    # topmost-leftmost pixel: its top edge runs right
    vx, vy, d = sx, sy, 0
    start_state = (vx, vy, d)
    corners = [(vx, vy)]
    while True:
        vx += int(_DIRS[d][0])
        vy += int(_DIRS[d][1])
        # right turn first, then straight, then left turn
        for turn in (1, 0, 3):
            nd = (d + turn) % 4
            (fx, fy), (ex, ey) = _EDGE_PIXELS[nd]
            if (padded[vy + fy + 1, vx + fx + 1]
                    and not padded[vy + ey + 1, vx + ex + 1]):
                break
        else:
            raise RuntimeError("boundary walk reached a dead end")
        if (vx, vy, nd) == start_state:
            break
        if nd != d:
            corners.append((vx, vy))
        d = nd
        if len(corners) > 4 * filled.size + 4:
            raise RuntimeError("boundary walk failed to terminate")
    return np.asarray(corners, dtype=np.float64)


# ---------------------------------------------------------------------------
# Bezier fitting


def fit_bezier_contour(points: np.ndarray, max_segments: int) -> np.ndarray:
    """Closed cubic control polygon approximating a closed polyline.

    Segment endpoints are polyline vertices sampled at roughly equal arc
    length (capped at one segment per vertex); interior control points
    sit at 1/3 and 2/3 of each chord, so every segment starts straight
    and a polygon with few vertices reproduces exactly.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if n < 3:
        raise ValueError("contour needs at least 3 vertices")
    if max_segments < 2:
        raise ValueError("max_segments must be >= 2")
    k = min(max_segments, n)
    edges = np.roll(pts, -1, axis=0) - pts
    seg_len = np.hypot(edges[:, 0], edges[:, 1])
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])  # cum[j] = length to vertex j
    total = cum[-1]
    if total <= 0:
        raise ValueError("contour has zero length")
    endpoints = [0]
    for i in range(1, k):
        target = total * i / k
        nearest = int(np.argmin(np.abs(cum[:n] - target)))
        lo = endpoints[-1] + 1
        hi = n - (k - i)
        endpoints.append(int(np.clip(nearest, lo, hi)))
    ctrl = np.empty((3 * k, 2))
    for i in range(k):
        a = pts[endpoints[i]]
        b = pts[endpoints[(i + 1) % k]]
        ctrl[3 * i] = a
        ctrl[3 * i + 1] = a + (b - a) / 3.0
        ctrl[3 * i + 2] = a + 2.0 * (b - a) / 3.0
    return ctrl


# ---------------------------------------------------------------------------
# layer assembly


def attenuation_ratio(image: np.ndarray, albedo_map: np.ndarray) -> np.ndarray:
    """Per-pixel multiplicative shading estimate image / albedo, in [0, 1]."""
    denom = np.maximum(albedo_map, SHADE_FLOOR)
    return np.clip(image / denom, 0.0, 1.0)


def paths_for_groups(groups: list[np.ndarray], color_image: np.ndarray,
                     layer_tag: str, dp_epsilon: float
                     ) -> tuple[list[list[VectorPath]], list[np.ndarray]]:
    """Build one VectorPath per region plus a flat-color reference render per group.

    Each group is a label image on ``color_image``'s canvas, so its
    regions never overlap.  Every region gets a path, so callers pass
    none that adds nothing: ``region_binarize`` drops dust, and albedo-only
    ``vectorize`` drops a dark part equal to its region (full mode keeps
    it: it holds a shade).  Each region is traced, averaged and painted
    inside its bounding box.  Its path traces the outline of
    its largest 4-connected piece, simplified within ``dp_epsilon`` and
    fitted with at most MAX_SEGMENTS cubics; its fill is the mean of
    ``color_image`` over the region.  A group's paths stack by the area
    inside the traced outline, holes filled, largest first and ties in id
    order, so a region stacks above a ring that encloses it.  The
    reference render paints each group's regions onto white.
    """
    path_groups: list[list[VectorPath]] = []
    renders: list[np.ndarray] = []
    for labels in groups:
        stack = []
        render = np.ones(color_image.shape)
        for _rid, box, region in _regions(labels):
            color = np.clip(color_image[box][region].mean(axis=0), 0.0, 1.0)
            raw = trace_boundary(region) + (box[1].start, box[0].start)
            ctrl = fit_bezier_contour(simplify_closed(raw, dp_epsilon), MAX_SEGMENTS)
            stack.append((-abs(polygon_area(raw)),
                          VectorPath(control_points=ctrl, fill_color=color,
                                     opacity=1.0, layer_tag=layer_tag)))
            render[box][region] = color
        stack.sort(key=lambda item: item[0])
        path_groups.append([path for _area, path in stack])
        renders.append(render)
    return path_groups, renders
