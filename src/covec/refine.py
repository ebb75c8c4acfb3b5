"""Error-driven path addition, cleanup, and shade/light separation.

After structural optimization the albedo layer freezes.  Refinement
renders the frozen stack once, then runs rounds that look at the
reconstruction error map, drop small circular paths onto the worst
4-connected error blobs, optimize only those new paths for a fixed number
of iterations, and clean them up.  Cleanup only ever sees the round's new
paths, composited over the frozen render, so the freeze holds by
construction; the cleaned composite becomes the next round's frozen
render.  The finished illumination layer then splits by color range:
paths whose fill stays within [0, 1] become multiplicative shade, the rest
become additive light whose colors are re-derived from the residual image.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .model import SHADE_FLOOR, WHITE, VectorPath, project_color
from .optimize import LayerOptimizer, TraceRow, layer_loss, mse
from .raster import RasterizerConfig, layer_forward, path_coverage, source_over

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


@dataclass(frozen=True)
class RefineConfig:
    """Rounds (``--rounds``) and Adam iterations per round (``--iters``);
    each round asks for the remaining path budget spread evenly over the
    remaining rounds, and every threshold is a module constant."""

    rounds_max: int = 5
    iters_per_round: int = 100

    def __post_init__(self):
        if self.rounds_max < 0:
            raise ValueError("rounds_max must be nonnegative")
        if self.iters_per_round < 1:
            raise ValueError("iters_per_round must be >= 1")


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
    lab, count = ndimage.label(mask, structure=_CROSS)
    candidates = []
    for cid in range(1, count + 1):
        sel = lab == cid
        area = int(sel.sum())
        if area < MIN_COMPONENT_PIXELS:
            continue
        ys, xs = np.nonzero(sel)
        summed = float(err[sel].sum())
        candidates.append((-summed, int(ys.min()), int(xs.min()), cid, area))
    candidates.sort()
    # ratio may exceed 1 for highlights; only the layer's own range applies
    ratio = target / np.maximum(albedo_render, SHADE_FLOOR)
    r_max = min(width, height) / 4.0
    paths = []
    for neg_sum, _y0, _x0, cid, area in candidates[:n]:
        sel = lab == cid
        ys, xs = np.nonzero(sel)
        weights = err[sel]
        wsum = float(weights.sum())
        cx = float((xs + 0.5) @ weights / wsum)
        cy = float((ys + 0.5) @ weights / wsum)
        radius = float(np.clip(np.sqrt(area / np.pi), RADIUS_MIN, r_max))
        color = project_color(ratio[sel].mean(axis=0), layer_tag)
        paths.append(VectorPath(control_points=circle_control_points((cx, cy), radius),
                                fill_color=color, opacity=1.0, layer_tag=layer_tag))
    return paths


# Cleanup: paths whose soft area is below CLEANUP_AREA_MIN pixels, or whose
# removal moves the loss by less than CLEANUP_LOSS_EPS, are dropped; two
# paths whose colors differ by less than MERGE_COLOR_EPS per channel and
# whose coverage > 0.5 supports overlap with IoU above MERGE_IOU_MIN merge.
CLEANUP_AREA_MIN = 8.0
CLEANUP_LOSS_EPS = 1e-5
MERGE_COLOR_EPS = 0.02
MERGE_IOU_MIN = 0.8


def cleanup_layer(paths: list[VectorPath], coverages: list[np.ndarray],
                  background: np.ndarray, frozen_factor: np.ndarray,
                  target: np.ndarray) -> tuple[list[VectorPath], int, int]:
    """Prune tiny/ineffective paths and merge near-duplicates, <= 3 passes.

    ``paths`` composite source-over onto ``background`` (the render of the
    frozen stack below them) from their cached ``coverages``; the result
    times ``frozen_factor`` (WHITE when there is none) is compared with the
    target.  Only ``paths`` can change and nothing is rasterized, so
    whatever ``background`` holds stays frozen by construction.  Both lists
    are edited in place and in step, and merged colors are written into
    the surviving path.  Removal decisions re-evaluate the composite after
    each change, so each loss-rule removal perturbs the reconstruction loss
    by less than CLEANUP_LOSS_EPS at the moment it is applied.  Returns
    (paths, removed_count, merged_count).
    """
    height, width = target.shape[:2]
    removed = 0
    merged = 0

    def loss_of(stack: list[VectorPath], covs: list[np.ndarray]) -> float:
        image = source_over(stack, covs, background, width, height).image
        return mse(image * frozen_factor, target)

    for _pass in range(3):
        changed = False

        # removal scan: tiny soft area first, then negligible loss impact;
        # the current loss is refreshed only when the stack actually changes
        current = loss_of(paths, coverages)
        i = 0
        while i < len(paths):
            soft_area = float(coverages[i].sum())
            if soft_area < CLEANUP_AREA_MIN:
                del paths[i], coverages[i]
                current = loss_of(paths, coverages)
                removed += 1
                changed = True
                continue
            without = loss_of(paths[:i] + paths[i + 1:],
                              coverages[:i] + coverages[i + 1:])
            if abs(without - current) < CLEANUP_LOSS_EPS:
                del paths[i], coverages[i]
                current = without
                removed += 1
                changed = True
                continue
            i += 1

        # merge scan: near-identical color and strongly overlapping support
        restart = True
        while restart:
            restart = False
            for i in range(len(paths)):
                for j in range(i + 1, len(paths)):
                    a, b = paths[i], paths[j]
                    if np.max(np.abs(a.fill_color - b.fill_color)) >= MERGE_COLOR_EPS:
                        continue
                    sup_a = coverages[i] > 0.5
                    sup_b = coverages[j] > 0.5
                    union = np.sum(sup_a | sup_b)
                    if union == 0:
                        continue
                    iou = np.sum(sup_a & sup_b) / union
                    if iou <= MERGE_IOU_MIN:
                        continue
                    area_a = float(coverages[i].sum())
                    area_b = float(coverages[j].sum())
                    keep_i, drop_j = (i, j) if area_a >= area_b else (j, i)
                    total = area_a + area_b
                    blended = (area_a * a.fill_color + area_b * b.fill_color) / total
                    paths[keep_i].fill_color = blended
                    del paths[drop_j], coverages[drop_j]
                    merged += 1
                    changed = True
                    restart = True
                    break
                if restart:
                    break

        if not changed:
            break
    return paths, removed, merged


# Refinement stops once no pixel's mean squared error exceeds this.
STOP_ERROR_MAX = 1e-4


@dataclass
class RefineResult:
    """A refined layer, its trace rows and its render over white."""

    layer: list[VectorPath]
    trace: list[TraceRow]
    image: np.ndarray


def refine_layer(layer: list[VectorPath], frozen_factor: np.ndarray,
                 target: np.ndarray, cfg: RefineConfig, rcfg: RasterizerConfig,
                 budget_remaining: int, layer_tag: str = "illumination") -> RefineResult:
    """Grow one layer with freshly optimized paths over frozen content.

    The reconstruction is ``layer render * frozen_factor``; pass WHITE for
    a layer that stands alone.  The existing paths are rendered once into a
    base image and never touched again.  Each round proposes its share of
    the budget over the base, steps them alone on optimize.layer_loss
    (loss_recon restricted to them), rasterizes them once and hands only
    them to cleanup_layer; the cleaned composite over the base becomes the
    next round's base and the round's trace loss, and its paths join the
    frozen stack.  Stops early when the error map's maximum drops below
    STOP_ERROR_MAX, the budget runs out, or nothing is proposed.  The last
    base is the returned layer's render over white, bit for bit what
    layer_forward would give.  Adam steps at the fixed
    optimize.LR_POINTS/LR_COLORS.
    """
    height, width = target.shape[:2]
    layer = list(layer)
    base = layer_forward(layer, WHITE, width, height, rcfg).image
    trace: list[TraceRow] = []
    for rnd in range(1, cfg.rounds_max + 1):
        diff = target - base * frozen_factor
        err = np.mean(diff * diff, axis=2)
        if float(err.max()) < STOP_ERROR_MAX or budget_remaining <= 0:
            break
        rounds_left = cfg.rounds_max - rnd + 1
        want = max(1, int(np.ceil(budget_remaining / rounds_left)))
        new_paths = propose_paths(err, want, target, frozen_factor,
                                  layer_tag=layer_tag)
        if not new_paths:
            break
        opt = LayerOptimizer(new_paths)
        for _it in range(cfg.iters_per_round):
            opt.step(layer_loss(new_paths, base, frozen_factor, target, rcfg)[1])
        n_new = len(new_paths)  # cleanup trims new_paths in place
        maps = [path_coverage(p, width, height, rcfg).coverage for p in new_paths]
        kept, n_removed, n_merged = cleanup_layer(new_paths, maps, base,
                                                  frozen_factor, target)
        budget_remaining -= len(kept)
        base = source_over(kept, maps, base, width, height).image
        layer += kept
        trace.append(TraceRow(epoch=rnd, stage="refine",
                              loss=mse(base * frozen_factor, target),
                              paths_added=n_new,
                              paths_removed=n_removed + n_merged))
    return RefineResult(layer, trace, base)


def separate_layers(illumination: list[VectorPath]
                    ) -> tuple[list[VectorPath], list[VectorPath]]:
    """Partition illumination paths into shade and light by color range.

    Colors fully inside [0, 1] keep everything and become shade;
    anything brighter contributes geometry only (opacity 1, color zeroed
    until assign_light_colors runs).  Input order is preserved within
    each output and every path lands in exactly one of them.
    """
    shade: list[VectorPath] = []
    light: list[VectorPath] = []
    for p in illumination:
        if float(p.fill_color.max()) <= 1.0:
            q = p.copy()
            q.layer_tag = "shade"
            shade.append(q)
        else:
            light.append(VectorPath(control_points=p.control_points.copy(),
                                    fill_color=np.zeros(3), opacity=1.0,
                                    layer_tag="light"))
    return shade, light


def assign_light_colors(light: list[VectorPath], target: np.ndarray,
                        albedo_render: np.ndarray, shade: list[VectorPath],
                        rcfg: RasterizerConfig
                        ) -> tuple[list[VectorPath], np.ndarray, list[np.ndarray]]:
    """Color light paths from the additive residual under their support.

    The residual is target minus the albedo render times the shade layer's
    render.  Each light path takes the mean residual over its coverage >
    0.5 support, clamped at 0; paths with empty support are dropped.
    Returns the kept light paths, the shade layer's render over white and
    the kept paths' coverage maps, from which the three-layer composite
    follows without rasterizing again.
    """
    height, width = target.shape[:2]
    s_img = layer_forward(shade, WHITE, width, height, rcfg).image
    residual = target - albedo_render * s_img
    out, maps = [], []
    for p in light:
        cov = path_coverage(p, width, height, rcfg).coverage
        support = cov > 0.5
        if not np.any(support):
            continue
        p.fill_color = np.maximum(residual[support].mean(axis=0), 0.0)
        out.append(p)
        maps.append(cov)
    return out, s_img, maps
