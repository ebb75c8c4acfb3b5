"""Differentiable soft rasterizer for layered Bezier documents.

Coverage of a path at a pixel is the mean, over a supersample grid, of a
logistic smoothstep applied to the signed distance from each sample to the
flattened outline.  The distance search (geometry.batch_signed_distance)
tests each tile of samples only against the outline edges that can be
nearest to it, and returns bit for bit what testing every edge would.
Paths within a layer composite source-over onto the layer background;
layers combine with multiply (shade) and plus-lighter (light).  Nothing is
clamped between operations, so composites can carry values above 1 until
quantization.

All source-over compositing runs through ``source_over``, which works on
precomputed coverage maps: ``layer_forward`` rasterizes a layer and calls
it, and callers that cache coverage maps (refinement cleanup, gradcheck)
call it directly.  ``composite_forward``/``composite_backward`` render a
whole document and run its backward pass; the optimizer's reconstruction
loss runs through them.  ``render_composite`` blends a document from
coverage maps its caller already holds (edit, gradcheck) or rasterizes
it; the pipeline's final composite reuses renders it already holds,
combined with ``source_over`` and ``blend``.

Every forward quantity needed by the analytic backward pass is cached per
path: sample-level sigmoid values, nearest-edge foot points, and the
under-composite / transmittance stacks of the source-over sweep.  Caches
are full canvas, sized for research-scale images rather than huge ones.
"""

from __future__ import annotations

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

COMPOSITE_MODES = ("two_layer", "three_layer")

# Pad of a path's support window beyond its outline, in units of aa_sigma.
CUTOFF_SIGMAS = 30.0


@dataclass
class PathCoverage:
    """Coverage map of one path plus the caches its backward pass needs."""

    coverage: np.ndarray  # (H, W), zero outside the support window
    window: tuple[int, int, int, int]  # x0, y0, x1, y1 pixel bounds
    polyline: Polyline
    sigma: np.ndarray | None = None  # (m,) per supersample in the window
    unit: np.ndarray | None = None  # (m, 2) d(sd)/d(sample point)
    edge_index: np.ndarray | None = None  # (m,)
    foot_s: np.ndarray | None = None  # (m,)
    scatter_idx: np.ndarray | None = None  # (V, 4) control indices per vertex
    scatter_w: np.ndarray | None = None  # (V, 4) Bernstein weights


def path_coverage(path: VectorPath, width: int, height: int,
                  config: RasterizerConfig, with_grad: bool = False) -> PathCoverage:
    """Soft coverage of a single path over the canvas.

    Work is restricted to the path's bounding box padded by
    CUTOFF_SIGMAS * aa_sigma; outside that window the logistic tail is
    below ~1e-13 and coverage is set to exactly zero.  Inside it, every
    supersample gets its signed distance to the flattened outline from
    batch_signed_distance, which culls edges per tile of samples without
    changing a bit of the result, and coverage is the pixel mean of
    expit(-sd / aa_sigma).  With ``with_grad`` the per-sample sigmoid,
    nearest edge, foot parameter and unit gradient are kept for
    coverage_backward.
    """
    poly = flatten_bezier(path, config)
    pad = CUTOFF_SIGMAS * config.aa_sigma
    v = poly.vertices
    x0 = int(np.clip(np.floor(v[:, 0].min() - pad), 0, width))
    x1 = int(np.clip(np.ceil(v[:, 0].max() + pad), 0, width))
    y0 = int(np.clip(np.floor(v[:, 1].min() - pad), 0, height))
    y1 = int(np.clip(np.ceil(v[:, 1].max() + pad), 0, height))
    cov = np.zeros((height, width))
    pc = PathCoverage(coverage=cov, window=(x0, y0, x1, y1), polyline=poly)
    s = config.supersample
    xs = x0 + (np.arange((x1 - x0) * s) + 0.5) / s
    ys = y0 + (np.arange((y1 - y0) * s) + 0.5) / s
    gy, gx = np.meshgrid(ys, xs, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)

    sd, edge_idx, foot_s, unit = batch_signed_distance(poly, pts)
    sigma = expit(-sd / config.aa_sigma)
    grid = sigma.reshape(y1 - y0, s, x1 - x0, s)
    cov[y0:y1, x0:x1] = grid.mean(axis=(1, 3))
    if with_grad:
        pc.sigma = sigma
        pc.unit = unit
        pc.edge_index = edge_idx
        pc.foot_s = foot_s
        pc.scatter_idx, pc.scatter_w = vertex_control_scatter(path, poly)
    return pc


def coverage_backward(pc: PathCoverage, d_coverage: np.ndarray,
                      config: RasterizerConfig) -> np.ndarray:
    """Pull a coverage-map gradient back to control-point space.

    Chain: coverage -> sample sigmoid -> signed distance -> nearest-edge
    foot point -> the edge's two polyline vertices -> Bernstein-weighted
    control points.  The nearest edge and its foot parameter are treated
    as locally constant (envelope theorem), as is the flattening schedule.
    """
    if pc.sigma is None:
        raise ValueError("path_coverage was run without with_grad")
    x0, y0, x1, y1 = pc.window
    d_ctrl = np.zeros((_control_count(pc), 2))
    s = config.supersample
    d_px = d_coverage[y0:y1, x0:x1]
    d_sample = np.repeat(np.repeat(d_px, s, axis=0), s, axis=1).ravel() / (s * s)
    d_sd = d_sample * (-pc.sigma * (1.0 - pc.sigma) / config.aa_sigma)
    # d(sd)/d(vertex a) = -unit * (1 - s_foot); d/d(vertex b) = -unit * s_foot
    ga = d_sd[:, None] * (-pc.unit) * (1.0 - pc.foot_s)[:, None]
    gb = d_sd[:, None] * (-pc.unit) * pc.foot_s[:, None]
    n_vert = pc.polyline.n_vertices
    ia = pc.edge_index
    ib = (pc.edge_index + 1) % n_vert
    vert_grad = np.zeros((n_vert, 2))
    for axis in range(2):
        vert_grad[:, axis] += np.bincount(ia, weights=ga[:, axis], minlength=n_vert)
        vert_grad[:, axis] += np.bincount(ib, weights=gb[:, axis], minlength=n_vert)
    contrib = pc.scatter_w[:, :, None] * vert_grad[:, None, :]
    np.add.at(d_ctrl, pc.scatter_idx.ravel(),
              contrib.reshape(-1, 2))
    return d_ctrl


def _control_count(pc: PathCoverage) -> int:
    if pc.scatter_idx is None or pc.scatter_idx.size == 0:
        raise ValueError("coverage cache carries no control scatter map")
    return int(pc.scatter_idx.max()) + 1


@dataclass
class LayerRender:
    """Result of compositing one layer's paths over its background."""

    image: np.ndarray  # (H, W, 3)
    coverages: list[PathCoverage] = field(default_factory=list)
    alphas: np.ndarray | None = None  # (n, H, W)
    unders: np.ndarray | None = None  # (n, H, W, 3) composite below path j
    trans_above: np.ndarray | None = None  # (n, H, W) transmittance above j
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


def source_over(paths: list[VectorPath], coverages: list[np.ndarray], background,
                width: int, height: int, record: bool = False) -> LayerRender:
    """Source-over composite, back to front, from per-path coverage maps.

    Path j has alpha coverage_j * opacity_j and its fill color clamped to
    its layer's range.  With ``record`` the result also keeps what
    layer_backward needs: the under-composite below each path and the
    transmittance of the paths above it.  The returned render carries no
    PathCoverage objects; layer_forward attaches its own.
    """
    under = _tile_background(background, width, height)
    n = len(paths)
    if n == 0:
        return LayerRender(image=under)
    alphas = np.zeros((n, height, width))
    unders = np.zeros((n, height, width, 3)) if record else None
    eff = np.zeros((n, 3))
    for j, (path, cov) in enumerate(zip(paths, coverages)):
        alpha = cov * path.opacity
        alphas[j] = alpha
        color = project_color(path.fill_color, path.layer_tag)
        eff[j] = color
        if record:
            unders[j] = under
        under = alpha[:, :, None] * color + (1.0 - alpha[:, :, None]) * under
    trans = None
    if record:
        trans = np.zeros((n, height, width))
        running = np.ones((height, width))
        for j in range(n - 1, -1, -1):
            trans[j] = running
            running = running * (1.0 - alphas[j])
    return LayerRender(image=under, alphas=alphas, unders=unders,
                       trans_above=trans, effective_colors=eff)


def layer_forward(paths: list[VectorPath], background, width: int, height: int,
                  config: RasterizerConfig, with_grad: bool = False) -> LayerRender:
    """Rasterize a layer's paths and composite them over its background."""
    _check_single_tag(paths)
    coverages = [path_coverage(p, width, height, config, with_grad=with_grad)
                 for p in paths]
    render = source_over(paths, [pc.coverage for pc in coverages], background,
                         width, height, record=with_grad)
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
    """
    if not paths:
        return []
    if render.unders is None or render.trans_above is None:
        raise ValueError("layer_forward was run without with_grad")
    grads: list[GradientBuffer] = []
    for j, path in enumerate(paths):
        pc = render.coverages[j]
        t = render.trans_above[j]
        weighted = d_image * (render.alphas[j] * t)[:, :, None]
        d_color_eff = weighted.sum(axis=(0, 1))
        diff = render.effective_colors[j][None, None, :] - render.unders[j]
        d_alpha = np.einsum("hwc,hwc->hw", d_image, diff) * t
        d_cov = d_alpha * path.opacity
        d_opacity = float(np.sum(d_alpha * pc.coverage))
        d_ctrl = coverage_backward(pc, d_cov, config)
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


@dataclass
class CompositeResult:
    """Forward composite plus the per-layer renders backward needs."""

    image: np.ndarray
    mode: str
    renders: dict[str, LayerRender]


def _factor_tag(mode: str) -> str:
    """Tag of the layer that multiplies the albedo render in ``mode``."""
    return "illumination" if mode == "two_layer" else "shade"


def _layer_tags(mode: str) -> list[str]:
    """Tags of the layers a ``mode`` composite blends, albedo first."""
    if mode not in COMPOSITE_MODES:
        raise ValueError(f"unknown composite mode {mode!r}")
    return ["albedo", _factor_tag(mode)] + (["light"] if mode == "three_layer" else [])


def _blend_layers(images: dict[str, np.ndarray], mode: str) -> np.ndarray:
    image = blend("multiply", images["albedo"], images[_factor_tag(mode)])
    if "light" in images:
        image = blend("plus_lighter", image, images["light"])
    return image


def composite_forward(doc: LayeredDocument, mode: str, config: RasterizerConfig,
                      with_grad: bool = False) -> CompositeResult:
    """Render a document in two_layer (A * I) or three_layer ((A * S) + L) form.

    Layer backgrounds: albedo, illumination and shade composite over
    white (the identity of multiply), light over black (the identity of
    plus-lighter), so empty layers drop out of the blend exactly.
    """
    renders = {tag: layer_forward(doc.layer(tag), BLACK if tag == "light" else WHITE,
                                  doc.width, doc.height, config, with_grad)
               for tag in _layer_tags(mode)}
    image = _blend_layers({tag: r.image for tag, r in renders.items()}, mode)
    return CompositeResult(image=image, mode=mode, renders=renders)


def render_composite(doc: LayeredDocument, mode: str, config: RasterizerConfig,
                     maps: dict[str, list[np.ndarray]] | None = None) -> np.ndarray:
    """Forward-only composite; see composite_forward for layer semantics.

    ``maps`` holds each blended layer's coverage maps by tag, one per path
    in layer order.  Given them, nothing is rasterized: the layers
    composite from the maps with source_over, the same arithmetic as
    layer_forward, so a document whose geometry they match renders to the
    same bits.  Recoloring keeps geometry, so its before and after
    composites share one set of maps.
    """
    if maps is None:
        return composite_forward(doc, mode, config).image
    images = {tag: source_over(doc.layer(tag), maps[tag],
                               BLACK if tag == "light" else WHITE,
                               doc.width, doc.height).image
              for tag in _layer_tags(mode)}
    return _blend_layers(images, mode)


def composite_backward(doc: LayeredDocument, result: CompositeResult,
                       upstream: np.ndarray,
                       config: RasterizerConfig) -> dict[str, list[GradientBuffer]]:
    """Distribute d(loss)/d(composite) to every path of every layer."""
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != result.image.shape:
        raise ValueError("upstream gradient must match the composite shape")
    renders = result.renders
    factor = _factor_tag(result.mode)
    grads = {
        "albedo": layer_backward(doc.albedo, renders["albedo"],
                                 upstream * renders[factor].image, config),
        factor: layer_backward(doc.layer(factor), renders[factor],
                               upstream * renders["albedo"].image, config),
    }
    if "light" in renders:
        grads["light"] = layer_backward(doc.light, renders["light"], upstream, config)
    return grads
