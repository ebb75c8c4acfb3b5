"""Differentiable soft rasterizer for layered Bezier documents.

Coverage of a path at a pixel is the mean, over a supersample grid, of a
logistic smoothstep applied to the signed distance from each sample to the
flattened outline.  The distance search (geometry.batch_signed_distance)
tests each chunk of samples only against the outline edges that can be
nearest to it, sweeping edge by edge over dense blocks of kept chunks,
and returns bit for bit what testing every edge would.
Paths within a layer composite source-over onto the layer background;
layers combine with multiply (shade) and plus-lighter (light).  Nothing is
clamped between operations, so composites can carry values above 1 until
quantization.

All source-over compositing runs through ``source_over``, which works on
precomputed coverage maps: ``layer_forward`` rasterizes a layer and calls
it, and callers that cache coverage maps (refinement, gradcheck, the
structure loss's gray overlap field) call it directly.
``render_composite`` blends the layers a mode names in
``COMPOSITE_MODES``, from coverage maps its caller holds (the pipeline's
final composite, edit, gradcheck) or by rasterizing them.  Gradients flow
per layer through ``layer_backward``; the reconstruction loss
differentiates the two-layer product itself.

Each path's coverage lives in its support window: ``PathCoverage.block``
covers only the window, as does everything the rasterizer keeps per
sample: 21 bytes with grad (the sigmoid, the foot parameter, the nearest
edge as int32 and an inside flag), which coverage_backward turns back
into each sample's unit gradient, bit for bit.  source_over writes each
path into its window slice of the canvas, which is exact, since outside
it zero coverage leaves the composite as it was, and training records
and backpropagates over each window too, down to its sums.  A no-grad
path_coverage computes only the signed distance, which becomes the
sigmoid in place.  Only the read-only ``PathCoverage.coverage`` and
``PathCoverage.unit`` views, for readers outside the package, place a
window on a zero canvas or stack a sample's two gradient axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .geometry import Polyline, batch_signed_distance, flatten_bezier, vertex_control_scatter
from .model import (
    BLACK,
    WHITE,
    GradientBuffer,
    LayeredDocument,
    RasterizerConfig,
    VectorPath,
    project_color,
)

# Tags each composite mode blends, in order: the albedo render times the
# second layer's, plus the light layer's in three_layer form.  Each layer
# composites over its blend's identity, so an empty one drops out exactly:
# light (plus-lighter) over black, every other layer (multiply) over white.
COMPOSITE_MODES = {"two_layer": ("albedo", "illumination"),
                   "three_layer": ("albedo", "shade", "light")}


def layer_background(tag: str) -> np.ndarray:
    return BLACK if tag == "light" else WHITE


# Pad of a path's support window beyond its outline, in units of aa_sigma.
CUTOFF_SIGMAS = 30.0


@dataclass
class PathCoverage:
    """Coverage of one path in its support window, plus the caches its
    backward pass needs.  Coverage is exactly zero outside the window."""

    block: np.ndarray  # (y1 - y0, x1 - x0) coverage inside the window
    window: tuple[int, int, int, int]  # x0, y0, x1, y1 pixel bounds
    canvas: tuple[int, int]  # height, width of the canvas
    polyline: Polyline
    # per supersample of the window, row-major, with grad only: 21 bytes
    sigma: np.ndarray | None = None  # (m,) float64 expit(-sd / aa_sigma)
    foot_s: np.ndarray | None = None  # (m,) float64 foot parameter on the edge
    edge_index: np.ndarray | None = None  # (m,) int32 nearest edge
    inside: np.ndarray | None = None  # (m,) bool, sd < 0
    scatter_idx: np.ndarray | None = None  # (V, 4) control indices per vertex
    scatter_w: np.ndarray | None = None  # (V, 4) Bernstein weights

    @property
    def region(self) -> tuple[slice, slice]:
        """The window's rows and columns, for indexing a canvas."""
        x0, y0, x1, y1 = self.window
        return slice(y0, y1), slice(x0, x1)

    @property
    def coverage(self) -> np.ndarray:
        """Read-only full-canvas map, for readers outside the package."""
        canvas = np.zeros(self.canvas)
        canvas[self.region] = self.block
        canvas.flags.writeable = False
        return canvas

    @property
    def unit(self) -> np.ndarray | None:
        """Read-only (m, 2) d(sd)/d(sample point), for readers outside the
        package: batch_signed_distance's ``unit``, bit for bit."""
        if self.sigma is None:
            return None
        s = math.isqrt(self.sigma.size // self.block.size) if self.block.size else 1
        unit = np.stack(_sample_unit(self, s), axis=1)
        unit.flags.writeable = False
        return unit


def _grid_axes(window: tuple[int, int, int, int], s: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample centres of a window's supersample grid along x and along y."""
    x0, y0, x1, y1 = window
    return (x0 + (np.arange((x1 - x0) * s) + 0.5) / s,
            y0 + (np.arange((y1 - y0) * s) + 0.5) / s)


def path_coverage(path: VectorPath, width: int, height: int,
                  config: RasterizerConfig, with_grad: bool = False) -> PathCoverage:
    """Soft coverage of a single path over the canvas.

    Work is restricted to the path's bounding box padded by
    CUTOFF_SIGMAS * aa_sigma, clipped to the canvas; outside that window
    the logistic tail is below ~1e-13 and coverage is exactly zero.
    Inside it, every supersample gets its signed distance to the
    flattened outline from batch_signed_distance, which culls edges per
    chunk of samples without changing a bit of the result, and the
    window's block is the pixel mean of expit(-sd / aa_sigma).  With
    ``with_grad`` the per-sample sigmoid, foot parameter, nearest edge
    (int32) and inside flag are kept for coverage_backward, which
    rebuilds the unit gradient from them; batch_signed_distance's own
    ``unit`` is dropped.  Without it only the signed distance is computed.
    """
    poly = flatten_bezier(path, config)
    pad = CUTOFF_SIGMAS * config.aa_sigma
    v = poly.vertices
    x0 = int(np.clip(np.floor(v[:, 0].min() - pad), 0, width))
    x1 = int(np.clip(np.ceil(v[:, 0].max() + pad), 0, width))
    y0 = int(np.clip(np.floor(v[:, 1].min() - pad), 0, height))
    y1 = int(np.clip(np.ceil(v[:, 1].max() + pad), 0, height))
    s = config.supersample
    xs, ys = _grid_axes((x0, y0, x1, y1), s)
    pts = np.empty((ys.size, xs.size, 2))  # row-major supersample grid
    pts[:, :, 0] = xs
    pts[:, :, 1] = ys[:, None]

    sd, edge_idx, foot_s, unit = batch_signed_distance(poly, pts.reshape(-1, 2),
                                                       with_grad)
    del pts, unit
    inside = sd < 0 if with_grad else None  # a wide sigmoid rounds the sign away
    sigma = np.negative(sd, out=sd)  # expit(-sd / aa_sigma), in place
    sigma /= config.aa_sigma
    expit(sigma, out=sigma)
    block = sigma.reshape(y1 - y0, s, x1 - x0, s).mean(axis=(1, 3))
    pc = PathCoverage(block=block, window=(x0, y0, x1, y1), canvas=(height, width),
                      polyline=poly)
    if with_grad:
        pc.sigma = sigma
        pc.foot_s = foot_s
        pc.edge_index = edge_idx.astype(np.int32)
        pc.inside = inside
        pc.scatter_idx, pc.scatter_w = vertex_control_scatter(path, poly)
    return pc


def _sample_unit(pc: PathCoverage, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Each supersample's unit gradient d(sd)/d(point), one (m,) array per
    axis, rebuilt from the cached foot parameter and nearest edge.

    The supersample grid is rebuilt from the window, and the offset from
    the foot is ``p - (s * ab + a)`` as geometry._foot computes it, so
    the distance and both axes are bit for bit batch_signed_distance's
    ``unit``: ``sign * offset / d`` where d > 1e-12, else 0.  Where d >
    1e-12 the inside flag is the winding sign.
    """
    xs, ys = _grid_axes(pc.window, s)
    v = pc.polyline.vertices
    ab = np.roll(v, -1, axis=0) - v
    e = pc.edge_index
    units = []
    for axis, grid in ((0, xs[None, :]), (1, ys[:, None])):
        off = pc.foot_s * ab[e, axis]
        off += v[e, axis]
        plane = off.reshape(ys.size, xs.size)  # a view: off becomes p - foot
        np.subtract(grid, plane, out=plane)
        np.negative(off, out=off, where=pc.inside)
        units.append(off)
    ux, uy = units
    d = np.sqrt(ux * ux + uy * uy)
    far = d > 1e-12
    for u in units:  # each offset becomes its unit gradient axis in place
        np.divide(u, d, out=u, where=far)
        np.copyto(u, 0.0, where=~far)
    return ux, uy


def coverage_backward(pc: PathCoverage, d_block: np.ndarray,
                      config: RasterizerConfig) -> np.ndarray:
    """Pull a coverage gradient, over the path's window, back to
    control-point space.

    Chain: coverage -> sample sigmoid -> signed distance -> nearest-edge
    foot point -> the edge's two polyline vertices -> Bernstein-weighted
    control points.  The nearest edge and its foot parameter are treated
    as locally constant (envelope theorem), as is the flattening schedule.
    """
    if pc.sigma is None:
        raise ValueError("path_coverage was run without with_grad")
    d_ctrl = np.zeros((int(pc.scatter_idx.max()) + 1, 2))
    s = config.supersample
    d_sample = np.repeat(np.repeat(d_block, s, axis=0), s, axis=1).ravel() / (s * s)
    d_sd = d_sample * (-pc.sigma * (1.0 - pc.sigma) / config.aa_sigma)
    # d(sd)/d(vertex a) = -unit * (1 - s_foot); d/d(vertex b) = -unit * s_foot
    n_vert = pc.polyline.n_vertices
    ia = pc.edge_index
    ib = (pc.edge_index + 1) % n_vert
    rest = 1.0 - pc.foot_s
    vert_grad = np.zeros((n_vert, 2))
    for axis, unit in enumerate(_sample_unit(pc, s)):
        g = d_sd * np.negative(unit, out=unit)
        vert_grad[:, axis] += np.bincount(ia, weights=g * rest, minlength=n_vert)
        vert_grad[:, axis] += np.bincount(ib, weights=g * pc.foot_s, minlength=n_vert)
    contrib = pc.scatter_w[:, :, None] * vert_grad[:, None, :]
    np.add.at(d_ctrl, pc.scatter_idx.ravel(),
              contrib.reshape(-1, 2))
    return d_ctrl


@dataclass
class LayerRender:
    """Result of compositing one layer's paths over its background."""

    image: np.ndarray  # (H, W, 3)
    coverages: list[PathCoverage] = field(default_factory=list)
    alphas: list[np.ndarray] | None = None  # (h, w) over path j's window
    unders: list[np.ndarray] | None = None  # (h, w, 3) composite below path j
    trans_above: list[np.ndarray] | None = None  # (h, w) transmittance above j
    effective_colors: np.ndarray | None = None  # (n, 3) after range clamp


def _tile_background(background, width: int, height: int) -> np.ndarray:
    bg = np.asarray(background, dtype=np.float64)
    if bg.shape == (3,):
        return np.broadcast_to(bg, (height, width, 3)).copy()
    if bg.shape == (height, width, 3):
        return bg.copy()
    raise ValueError("background must be an RGB triple or an (H, W, 3) image")


def _check_single_tag(paths: list[VectorPath]) -> None:
    tags = {p.layer_tag for p in paths}
    if len(tags) > 1:
        a, b = sorted(tags)[:2]
        raise ValueError(f"layer mixes paths tagged {a!r} and {b!r}")


def source_over(paths: list[VectorPath], coverages: list[PathCoverage], background,
                width: int, height: int, record: bool = False) -> LayerRender:
    """Source-over composite, back to front, from per-path coverage.

    Path j has alpha coverage_j * opacity_j and its fill color clamped to
    its layer's range; it is composited into its window slice only, since
    outside it ``under * 1 + 0 * color`` is ``under`` exactly.  With
    ``record`` the result also keeps, over each path's window, what
    layer_backward needs: its alpha, the under-composite below it and the
    transmittance above it, sliced from a running product that each path
    updates in its window only (outside it the factor is 1 - 0).  One
    PathCoverage of this canvas per path, or ValueError.  The returned
    render carries no PathCoverage objects; layer_forward attaches its own.
    """
    n = len(paths)
    if len(coverages) != n:
        raise ValueError(f"{len(coverages)} coverage maps for {n} paths")
    if any(pc.canvas != (height, width) for pc in coverages):
        raise ValueError(f"coverage of another canvas than {height}x{width}")
    under = _tile_background(background, width, height)
    if n == 0:
        return LayerRender(image=under)
    alphas, unders = [], []
    eff = np.zeros((n, 3))
    for j, (path, pc) in enumerate(zip(paths, coverages)):
        alpha = pc.block * path.opacity
        color = project_color(path.fill_color, path.layer_tag)
        eff[j] = color
        window = under[pc.region]
        if record:
            alphas.append(alpha)
            unders.append(window.copy())
        window[...] = alpha[:, :, None] * color + (1.0 - alpha[:, :, None]) * window
    if not record:
        return LayerRender(image=under, effective_colors=eff)
    trans = [None] * n
    running = np.ones((height, width))
    for j in range(n - 1, -1, -1):
        region = coverages[j].region
        trans[j] = running[region].copy()
        running[region] *= 1.0 - alphas[j]
    return LayerRender(image=under, alphas=alphas, unders=unders,
                       trans_above=trans, effective_colors=eff)


def layer_forward(paths: list[VectorPath], background, width: int, height: int,
                  config: RasterizerConfig, with_grad: bool = False) -> LayerRender:
    """Rasterize a layer's paths and composite them over its background."""
    _check_single_tag(paths)
    coverages = [path_coverage(p, width, height, config, with_grad=with_grad)
                 for p in paths]
    render = source_over(paths, coverages, background, width, height,
                         record=with_grad)
    render.coverages = coverages
    return render


def layer_backward(paths: list[VectorPath], render: LayerRender,
                   d_image: np.ndarray, config: RasterizerConfig) -> list[GradientBuffer]:
    """Gradients of a scalar loss wrt each path, given d(loss)/d(layer image).

    For path j with alpha_j = coverage_j * opacity_j, transmittance T_j of
    the paths above it and under-composite U_j below it:

        d_color_j   = sum_px d_image * alpha_j * T_j
        d_alpha_j   = sum_c  d_image_c * (color_jc - U_jc) * T_j
        d_coverage  = d_alpha * opacity_j
        d_opacity_j = sum_px d_alpha * coverage_j

    alpha_j is zero outside the path's window, so all of it, the sums
    included, is computed there.
    """
    if not paths:
        return []
    if render.unders is None or render.trans_above is None:
        raise ValueError("layer_forward was run without with_grad")
    grads: list[GradientBuffer] = []
    for j, path in enumerate(paths):
        pc = render.coverages[j]
        t = render.trans_above[j]
        d_window = d_image[pc.region]
        d_color_eff = (d_window * (render.alphas[j] * t)[:, :, None]).sum(axis=(0, 1))
        diff = render.effective_colors[j] - render.unders[j]
        d_alpha = np.einsum("hwc,hwc->hw", d_window, diff) * t
        d_opacity = float(np.sum(d_alpha * pc.block))
        d_ctrl = coverage_backward(pc, d_alpha * path.opacity, config)
        # The range clamp passes gradient only where it left the color alone.
        passthrough = render.effective_colors[j] == path.fill_color
        d_color = np.where(passthrough, d_color_eff, 0.0)
        grads.append(GradientBuffer(d_control_points=d_ctrl,
                                    d_fill_color=d_color,
                                    d_opacity=d_opacity))
    return grads


def blend(mode: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pixelwise blend: multiply darkens, plus_lighter adds without clamping."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("blend operands must share a shape")
    if mode == "multiply":
        return a * b
    if mode == "plus_lighter":
        return a + b
    raise ValueError(f"unknown blend mode {mode!r}")


def render_composite(doc: LayeredDocument, mode: str, config: RasterizerConfig,
                     maps: dict[str, list[PathCoverage]] | None = None) -> np.ndarray:
    """Forward-only two_layer (A * I) or three_layer ((A * S) + L) composite.

    ``maps`` holds each blended layer's PathCoverage by tag, one per path
    in layer order; without them every path is rasterized with
    path_coverage.  Each layer composites its maps with source_over over
    its background, the same arithmetic as layer_forward, so a document
    whose geometry the maps match renders to the same bits either way.
    Recoloring keeps geometry, so its before and after composites share
    one set of maps.
    """
    if mode not in COMPOSITE_MODES:
        raise ValueError(f"unknown composite mode {mode!r}")
    images = []
    for tag in COMPOSITE_MODES[mode]:
        paths = doc.layer(tag)
        _check_single_tag(paths)
        covs = (maps[tag] if maps is not None else
                [path_coverage(p, doc.width, doc.height, config) for p in paths])
        images.append(source_over(paths, covs, layer_background(tag),
                                  doc.width, doc.height).image)
    image = blend("multiply", images[0], images[1])
    return blend("plus_lighter", image, images[2]) if len(images) == 3 else image
