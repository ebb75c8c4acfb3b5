"""Independent reference renderer: the test oracle of the production rasterizer.

``oracle_composite`` re-implements the albedo * shade + light chain from
scratch (per-edge distance loops, crossing counts, explicit source-over)
and shares only the Bezier flattening with ``covec.raster``.  Test 03's
dual-renderer parity, the ``covec render`` PNG check and
``scripts/output_digest.py``'s ``reference/`` lines compare against it.
"""

from __future__ import annotations

import numpy as np

from covec.geometry import flatten_bezier
from covec.model import LayeredDocument, RasterizerConfig, VectorPath, project_color

# Sample rows per band of the oracle, rounded down to whole pixel rows (at
# least one), so its per-edge buffers stay small: 64 x 512 samples
# (256 KiB each) for the benchmark's 256 px render.
_REF_BAND_ROWS = 64


def _ref_sigmoid(x: np.ndarray) -> np.ndarray:
    # evaluate the logistic with explicit clipping instead of scipy
    z = np.clip(x, -700.0, 700.0)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _ref_coverage(path: VectorPath, width: int, height: int,
                  config: RasterizerConfig) -> np.ndarray:
    """Coverage via per-edge running minimum and crossing counts.

    Deliberately structured unlike the production rasterizer: no support
    window, no nearest-edge bookkeeping, one pass over edges with a
    running distance minimum and a winding accumulator.  The canvas is
    evaluated in bands of about ``_REF_BAND_ROWS`` sample rows, a whole
    number of pixel rows each, so a band's buffers stay small and each
    pixel averages samples of one band.
    """
    v = flatten_bezier(path, config).vertices
    s = config.supersample
    xs = (np.arange(width * s) + 0.5) / s
    ys = (np.arange(height * s) + 0.5) / s
    band = max(1, _REF_BAND_ROWS // s) * s
    cov = np.empty((height, width))
    for r in range(0, ys.size, band):
        cov[r // s:(r + band) // s] = _ref_band(v, xs, ys[r:r + band], config)
    return cov


def _ref_band(v: np.ndarray, xs: np.ndarray, ys: np.ndarray,
              config: RasterizerConfig) -> np.ndarray:
    """Coverage of the pixel rows whose sample rows sit at heights ``ys``.

    A sample row at height y can only be crossed by an edge with
    ``min(ay, by) <= y < max(ay, by)``, so each edge's crossing test runs
    on those rows alone; an up edge adds where the cross product is
    positive, a down edge subtracts where it is negative.  The distance
    terms ``(gx - ax) * ex`` and ``(gy - ay) * ey`` depend on the column
    and the row only, so they come from 1-D offsets joined by an outer
    sum, and the rest runs in place on three band buffers in the
    operation order of the plain full-canvas expressions, whose bits it
    reproduces.
    """
    n = v.shape[0]
    s = config.supersample
    shape = (ys.size, xs.size)
    min_d2 = np.full(shape, np.inf)
    winding = np.zeros(shape, dtype=np.int64)
    t, dx, dy = np.empty(shape), np.empty(shape), np.empty(shape)
    for e in range(n):
        ax, ay = v[e]
        bx, by = v[(e + 1) % n]
        ex, ey = bx - ax, by - ay
        rx, ry = xs - ax, ys - ay
        denom = ex * ex + ey * ey
        if denom < 1e-24:
            np.add.outer(ry ** 2, rx ** 2, out=dx)
        else:
            # t = clip(((gx - ax) * ex + (gy - ay) * ey) / denom, 0, 1)
            np.add.outer(ry * ey, rx * ex, out=t)
            t /= denom
            np.clip(t, 0.0, 1.0, out=t)
            # d2 = (gx - (ax + t * ex)) ** 2 + (gy - (ay + t * ey)) ** 2
            np.multiply(t, ex, out=dx)
            dx += ax
            np.subtract(xs, dx, out=dx)
            np.square(dx, out=dx)
            np.multiply(t, ey, out=dy)
            dy += ay
            np.subtract(ys[:, None], dy, out=dy)
            np.square(dy, out=dy)
            dx += dy
        np.minimum(min_d2, dx, out=min_d2)
        r0, r1 = np.searchsorted(ys, (min(ay, by), max(ay, by)))
        if r0 < r1:
            cross = np.subtract.outer(ex * ry[r0:r1], ey * rx)
            if ay < by:
                winding[r0:r1] += cross > 0
            else:
                winding[r0:r1] -= cross < 0
    sd = np.sqrt(min_d2, out=min_d2)
    sd[winding != 0] *= -1.0
    sigma = _ref_sigmoid(-sd / config.aa_sigma)
    return sigma.reshape(-1, s, xs.size // s, s).mean(axis=(1, 3))


def _ref_layer(paths: list[VectorPath], background: np.ndarray, width: int,
               height: int, config: RasterizerConfig) -> np.ndarray:
    img = np.broadcast_to(np.asarray(background, dtype=np.float64),
                          (height, width, 3)).copy()
    for path in paths:
        cov = _ref_coverage(path, width, height, config)
        alpha = (cov * path.opacity)[:, :, None]
        color = project_color(path.fill_color, path.layer_tag)
        # alpha * color + (1 - alpha) * img, in place; IEEE + and * commute
        img *= 1.0 - alpha
        img += alpha * color
    return img


def oracle_composite(doc: LayeredDocument,
                     config: RasterizerConfig = RasterizerConfig(),
                     scale: int = 1) -> np.ndarray:
    """Independent evaluation of the albedo * shade + light chain.

    ``scale`` > 1 renders at an integer multiple of the native canvas
    (geometry scaled, smoothing kept in output-pixel units).  Empty
    layers render as their blend identities (white for multiply, black
    for plus-lighter).
    """
    if scale < 1:
        raise ValueError("scale must be >= 1")
    w, h = doc.width * scale, doc.height * scale

    def scaled(paths):
        if scale == 1:
            return paths
        return [VectorPath(control_points=p.control_points * scale,
                           fill_color=p.fill_color.copy(), opacity=p.opacity,
                           layer_tag=p.layer_tag) for p in paths]

    a_img = _ref_layer(scaled(doc.albedo), np.ones(3), w, h, config)
    s_img = _ref_layer(scaled(doc.shade), np.ones(3), w, h, config)
    l_img = _ref_layer(scaled(doc.light), np.zeros(3), w, h, config)
    return a_img * s_img + l_img
