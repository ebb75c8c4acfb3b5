"""Error-driven path addition, cleanup, and shade/light separation.

After structural optimization the albedo layer freezes.  Refinement
renders the frozen stack once, then runs rounds that look at the
reconstruction error map, drop small circular paths onto the worst
4-connected error blobs, optimize only those new paths for a fixed number
of iterations, and clean them up.  Cleanup only ever sees the round's new
paths, composited over the frozen render, so the freeze holds by
construction; the cleaned composite becomes the next round's frozen
render.  Each path leaves with its coverage map, so nothing downstream
rasterizes it again.  The finished illumination layer then splits, maps
and all, by color range: paths whose fill stays within [0, 1] become
multiplicative shade, the rest become additive light whose colors are
re-derived from the residual image.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import ndimage

from .model import SHADE_FLOOR, WHITE, VectorPath, project_color
from .optimize import LayerOptimizer, Schedule, TraceRow, descent_config, layer_loss, mse
from .raster import (PathCoverage, RasterizerConfig, layer_forward, path_coverage,
                     source_over)

_CROSS = ndimage.generate_binary_structure(2, 1)

# 4-segment cubic circle: tangent handle length as a fraction of radius
KAPPA = 0.5522847498307936


def circle_control_points(center, radius: float) -> np.ndarray:
    """Control polygon of a 4-segment cubic approximation of a circle."""
    cx, cy = float(center[0]), float(center[1])
    r = float(radius)
    k = KAPPA * r
    return np.array([
        [cx + r, cy], [cx + r, cy + k], [cx + k, cy + r],
        [cx, cy + r], [cx - k, cy + r], [cx - r, cy + k],
        [cx - r, cy], [cx - r, cy - k], [cx - k, cy - r],
        [cx, cy - r], [cx + k, cy - r], [cx + r, cy - k],
    ])


# Proposal thresholds; propose_paths says how each applies.
ERROR_PERCENTILE = 90.0
MIN_COMPONENT_PIXELS = 16
RADIUS_MIN = 2.0


def propose_paths(err: np.ndarray, n: int, target: np.ndarray,
                  albedo_render: np.ndarray,
                  layer_tag: str = "illumination") -> list[VectorPath]:
    """Circular seed paths over the worst error blobs.

    Blobs are 4-connected components of pixels above the error map's
    ERROR_PERCENTILE-th percentile, ranked by summed error (ties broken by
    bounding-box origin).  Each selected blob yields a 4-segment circle at
    its error-weighted centroid with radius sqrt(area/pi) clamped to
    [RADIUS_MIN, min(W, H)/4], colored by the mean attenuation ratio
    target/max(albedo, SHADE_FLOOR) over the blob.  Blobs below
    MIN_COMPONENT_PIXELS are skipped; fewer than n usable blobs is not an
    error.
    """
    if n < 1:
        raise ValueError("must request at least one path")
    height, width = err.shape
    threshold = np.percentile(err, ERROR_PERCENTILE)
    mask = err > threshold
    if not np.any(mask):
        return []
    lab = ndimage.label(mask, structure=_CROSS)[0]
    # each blob is measured inside its bounding box, whose origin breaks ties
    boxes = ndimage.find_objects(lab)
    candidates = []
    for cid, box in enumerate(boxes, start=1):
        sel = lab[box] == cid
        if np.count_nonzero(sel) >= MIN_COMPONENT_PIXELS:
            candidates.append((-float(err[box][sel].sum()), box[0].start,
                               box[1].start, cid))
    candidates.sort()
    # ratio may exceed 1 for highlights; only the layer's own range applies
    ratio = target / np.maximum(albedo_render, SHADE_FLOOR)
    r_max = min(width, height) / 4.0
    paths = []
    for _neg_sum, y0, x0, cid in candidates[:n]:
        box = boxes[cid - 1]
        sel = lab[box] == cid
        ys, xs = np.nonzero(sel)
        weights = err[box][sel]
        wsum = float(weights.sum())
        cx = float((xs + x0 + 0.5) @ weights / wsum)
        cy = float((ys + y0 + 0.5) @ weights / wsum)
        radius = float(np.clip(np.sqrt(ys.size / np.pi), RADIUS_MIN, r_max))
        color = project_color(ratio[box][sel].mean(axis=0), layer_tag)
        paths.append(VectorPath(control_points=circle_control_points((cx, cy), radius),
                                fill_color=color, opacity=1.0, layer_tag=layer_tag))
    return paths


# Cleanup: paths whose soft area is below CLEANUP_AREA_MIN pixels, or whose
# removal moves the loss by less than CLEANUP_LOSS_EPS, are dropped.
CLEANUP_AREA_MIN = 8.0
CLEANUP_LOSS_EPS = 1e-5


def cleanup_layer(paths: list[VectorPath], coverages: list[PathCoverage],
                  background: np.ndarray, frozen_factor: np.ndarray,
                  target: np.ndarray) -> tuple[list[VectorPath], int, int]:
    """Prune tiny or ineffective paths in one removal scan.

    ``paths`` composite source-over onto ``background`` (the render of the
    frozen stack below them) from their cached ``coverages``; the result
    times ``frozen_factor`` (WHITE when there is none) is compared with the
    target.  Only ``paths`` can change and nothing is rasterized, so
    whatever ``background`` holds stays frozen by construction.  Both lists
    are edited in place and in step.  The scan re-evaluates the composite
    after each removal, so each loss-rule removal perturbs the
    reconstruction loss by less than CLEANUP_LOSS_EPS at the moment it is
    applied.  A path's soft area is the sum of its coverage block.  Returns
    (paths, removed_count, 0); nothing is merged, and the third value stays
    only for callers that still unpack three.
    """
    height, width = target.shape[:2]
    removed = 0

    def loss_of(stack: list[VectorPath], covs: list[PathCoverage]) -> float:
        image = source_over(stack, covs, background, width, height).image
        return mse(image * frozen_factor, target)

    # a path goes when its soft area is tiny or removing it barely moves the
    # loss; the loss without it becomes current
    current = loss_of(paths, coverages)
    i = 0
    while i < len(paths):
        without = loss_of(paths[:i] + paths[i + 1:], coverages[:i] + coverages[i + 1:])
        if (float(coverages[i].block.sum()) < CLEANUP_AREA_MIN
                or abs(without - current) < CLEANUP_LOSS_EPS):
            del paths[i], coverages[i]
            current = without
            removed += 1
            continue
        i += 1
    return paths, removed, 0


# Refinement stops once no pixel's mean squared error exceeds this.
STOP_ERROR_MAX = 1e-4


@dataclass
class RefineResult:
    """A refined layer, its trace rows and one PathCoverage per path."""

    layer: list[VectorPath]
    trace: list[TraceRow]
    maps: list[PathCoverage]


def refine_layer(layer: list[VectorPath], frozen_factor: np.ndarray,
                 target: np.ndarray, schedule: Schedule, rcfg: RasterizerConfig,
                 budget_remaining: int, layer_tag: str = "illumination") -> RefineResult:
    """Grow one layer with freshly optimized paths over frozen content.

    The reconstruction is ``layer render * frozen_factor``; pass WHITE for
    a layer that stands alone.  The existing paths are rendered once into a
    base image and never touched again.  Each of ``schedule.refine_rounds``
    rounds proposes the remaining budget spread evenly over the remaining
    rounds, steps those paths alone on optimize.layer_loss (loss_recon
    restricted to them) for ``schedule.refine_iters`` iterations, each
    rendered at ``optimize.descent_config(rcfg)``, then rasterizes them
    once at ``rcfg`` and hands only them to cleanup_layer; the base, the
    error map, cleanup and the returned maps all use ``rcfg``.  The cleaned
    composite over the base becomes the next round's base and the round's
    trace loss, and its paths join the frozen stack.  After a round that
    kept no path the base and budget are unchanged, so a proposal of as
    many paths is the same paths: that round is not re-run, and its trace
    row repeats with the new epoch.  Stops early when the error map's
    maximum drops below STOP_ERROR_MAX, the budget runs out, or nothing is
    proposed.  The PathCoverage of the base render's paths and of each
    round's kept paths comes back with the layer, one per path, bit for
    bit what path_coverage gives for it.  Adam steps at the fixed
    optimize.LR_POINTS/LR_COLORS.
    """
    height, width = target.shape[:2]
    layer = list(layer)
    render = layer_forward(layer, WHITE, width, height, rcfg)
    base, layer_maps = render.image, render.coverages
    descent = descent_config(rcfg)
    trace: list[TraceRow] = []
    for rnd in range(1, schedule.refine_rounds + 1):
        diff = target - base * frozen_factor
        err = np.mean(diff * diff, axis=2)
        if float(err.max()) < STOP_ERROR_MAX or budget_remaining <= 0:
            break
        rounds_left = schedule.refine_rounds - rnd + 1
        want = max(1, int(np.ceil(budget_remaining / rounds_left)))
        new_paths = propose_paths(err, want, target, frozen_factor,
                                  layer_tag=layer_tag)
        if not new_paths:
            break
        if trace and trace[-1].paths_added == trace[-1].paths_removed == len(new_paths):
            trace.append(replace(trace[-1], epoch=rnd))
            continue
        opt = LayerOptimizer(new_paths)
        for _it in range(schedule.refine_iters):
            opt.step(layer_loss(new_paths, base, frozen_factor, target, descent)[1])
        n_new = len(new_paths)  # cleanup trims new_paths in place
        maps = [path_coverage(p, width, height, rcfg) for p in new_paths]
        kept, n_removed, _ = cleanup_layer(new_paths, maps, base,
                                           frozen_factor, target)
        budget_remaining -= len(kept)
        base = source_over(kept, maps, base, width, height).image
        layer += kept
        layer_maps += maps
        trace.append(TraceRow(epoch=rnd, stage="refine",
                              loss=mse(base * frozen_factor, target),
                              paths_added=n_new,
                              paths_removed=n_removed))
    return RefineResult(layer, trace, layer_maps)


def separate_layers(illumination: list[VectorPath], maps: list[PathCoverage]
                    ) -> tuple[list[VectorPath], list[VectorPath],
                               list[PathCoverage], list[PathCoverage]]:
    """Partition illumination paths, and their coverage maps, by color range.

    Colors fully inside [0, 1] keep everything and become shade;
    anything brighter contributes geometry only (opacity 1, color zeroed
    until assign_light_colors runs).  Input order is preserved within
    each output and every path lands in exactly one of them with its
    map, which still holds: geometry is copied unchanged.
    """
    shade, light, shade_maps, light_maps = [], [], [], []
    for p, cov in zip(illumination, maps, strict=True):
        if float(p.fill_color.max()) <= 1.0:
            q = p.copy()
            q.layer_tag = "shade"
            shade.append(q)
            shade_maps.append(cov)
        else:
            light.append(VectorPath(control_points=p.control_points.copy(),
                                    fill_color=np.zeros(3), opacity=1.0,
                                    layer_tag="light"))
            light_maps.append(cov)
    return shade, light, shade_maps, light_maps


def assign_light_colors(light: list[VectorPath], light_maps: list[PathCoverage],
                        target: np.ndarray, albedo_render: np.ndarray,
                        shade: list[VectorPath], shade_maps: list[PathCoverage]
                        ) -> tuple[list[VectorPath], list[PathCoverage]]:
    """Color light paths from the additive residual under their support.

    The residual is target minus the albedo render times the shade
    layer's render, composited from ``shade_maps``.  Each light path takes
    the mean residual over its coverage > 0.5 support, clamped at 0;
    paths with empty support are dropped, maps and all.  Nothing is
    rasterized.  Returns the kept light paths and their coverage maps.
    """
    height, width = target.shape[:2]
    s_img = source_over(shade, shade_maps, WHITE, width, height).image
    residual = target - albedo_render * s_img
    out, maps = [], []
    for p, pc in zip(light, light_maps, strict=True):
        support = pc.block > 0.5
        if not np.any(support):
            continue
        p.fill_color = np.maximum(residual[pc.region][support].mean(axis=0), 0.0)
        out.append(p)
        maps.append(pc)
    return out, maps
