"""Controlled recoloring of albedo paths against a reference image.

Given a layered document, the image it reconstructs, and an edited
reference raster, this module finds which albedo paths sit under the
changed pixels, picks the top K by support area, and rewrites only their
fill colors so the shaded composite matches the reference.  Dividing the
reference color by the mean shade under each path compensates for the
multiply blend, so a path that renders dark under shadow still receives
the intended surface color.

Recoloring never moves geometry, so a K sweep on one document object
rasterizes it once: run_edit keeps the coverage maps of the document it
last rasterized as module state, one entry, and reuses them while the
same object comes back with the same canvas, RasterizerConfig and
control points.  covec is single-threaded; concurrent run_edit calls
would race on that entry.
"""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass, field

import numpy as np

from .model import LayeredDocument, RasterizerConfig
from .optimize import mse
from .raster import (COMPOSITE_MODES, PathCoverage, layer_background, layer_forward,
                     render_composite, source_over)

# Stabilizer added to the mean shade before dividing it out of a color.
EPSILON_SHADE = 1e-4


@dataclass(frozen=True)
class EditConfig:
    """Thresholds for region matching and color assignment.

    tau_diff: per-pixel mean-absolute-difference level above which a
        pixel counts as edited.
    gamma_iou: minimum IoU between a path's support and the edit mask.
    delta_color: maximum L2 distance between a path's mean color in the
        two images for it to stay a candidate.  Keeping SMALL shifts is
        deliberate; see candidate_paths.
    top_k: number of paths to recolor; sweeps usually use 1/2/4/8/16.
    """

    tau_diff: float = 0.1
    gamma_iou: float = 0.02
    delta_color: float = 0.25
    top_k: int = 1

    def __post_init__(self):
        for name in ("tau_diff", "gamma_iou", "delta_color"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")


@dataclass
class EditCandidate:
    """One albedo path that overlaps the edit region; its support, the
    pixels its coverage puts above one half, lies inside its window."""

    path_index: int
    iou: float
    support: int  # pixels in the support
    region: tuple[slice, slice]  # the window's rows and columns
    block: np.ndarray  # (h, w) support inside the window
    mean_original: np.ndarray
    mean_reference: np.ndarray


@dataclass
class EditReport:
    """Outcome of one edit run, serializable to JSON."""

    requested_k: int
    n_candidates: int
    selected: list[dict] = field(default_factory=list)
    mse_before: float = 0.0
    mse_after: float = 0.0

    @property
    def shortfall(self) -> int:
        return max(0, self.requested_k - self.n_candidates)

    def to_dict(self) -> dict:
        return {
            "requested_k": self.requested_k,
            "n_candidates": self.n_candidates,
            "shortfall": self.shortfall,
            "selected": self.selected,
            "mse_before": self.mse_before,
            "mse_after": self.mse_after,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def compute_edit_mask(original: np.ndarray, reference: np.ndarray,
                      tau: float) -> np.ndarray:
    """Boolean mask of pixels whose channel-mean absolute change exceeds tau."""
    original = np.asarray(original, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if original.shape != reference.shape:
        raise ValueError(f"image shapes differ: {original.shape} vs "
                         f"{reference.shape}")
    diff = np.mean(np.abs(original - reference), axis=2)
    return diff > tau


def candidate_paths(albedo_maps: list[PathCoverage], original: np.ndarray,
                    reference: np.ndarray, edit_mask: np.ndarray,
                    cfg: EditConfig) -> list[EditCandidate]:
    """Albedo paths overlapping the edit mask, largest support first.

    ``albedo_maps`` holds the PathCoverage of each albedo path, in layer
    order.  Everything is measured inside each path's window.  A path
    survives when its binary support (coverage above one half) has IoU
    with the edit mask above gamma_iou AND its mean color moved by at most
    delta_color between the two images.  The second filter keeps small
    shifts by construction; scenes with drastic recolors should raise
    delta_color accordingly.
    """
    edit_area = int(edit_mask.sum())
    out: list[EditCandidate] = []
    for idx, pc in enumerate(albedo_maps):
        support = pc.block > 0.5
        n_support = int(np.count_nonzero(support))
        if n_support == 0:
            continue
        r = pc.region
        inter = int(np.count_nonzero(support & edit_mask[r]))
        union = n_support + edit_area - inter
        iou = inter / union
        if iou <= cfg.gamma_iou:
            continue
        mu = original[r][support].mean(axis=0)
        mu_ref = reference[r][support].mean(axis=0)
        if float(np.linalg.norm(mu - mu_ref)) > cfg.delta_color:
            continue
        out.append(EditCandidate(path_index=idx, iou=iou, support=n_support,
                                 region=r, block=support, mean_original=mu,
                                 mean_reference=mu_ref))
    out.sort(key=lambda c: (-c.support, c.path_index))
    return out


def apply_color_edit(doc: LayeredDocument, candidates: list[EditCandidate],
                     cfg: EditConfig, shade_img: np.ndarray
                     ) -> tuple[LayeredDocument, EditReport]:
    """Recolor the top-K candidate paths toward the reference.

    Only fill colors change; geometry, opacity, and stacking order stay
    put.  ``shade_img`` is the rendered shade layer.  Each candidate's
    reference color is its ``mean_reference``.  With a nonempty shade
    layer the target color divides out the mean rendered shade under the
    path, so the multiply composite lands on the reference color; without
    one the reference mean is used as is.  Asking for more paths than
    exist edits them all and records the shortfall in the report.
    """
    edited = doc.copy()
    report = EditReport(requested_k=cfg.top_k, n_candidates=len(candidates))
    for cand in candidates[:cfg.top_k]:
        path = edited.albedo[cand.path_index]
        old_color = path.fill_color.copy()
        c_ref = cand.mean_reference
        if doc.shade:
            s_bar = shade_img[cand.region][cand.block].mean(axis=0)
            new_color = np.clip(c_ref / (s_bar + EPSILON_SHADE), 0.0, 1.0)
        else:
            new_color = np.clip(c_ref, 0.0, 1.0)
        path.fill_color = new_color.astype(np.float64)
        report.selected.append({
            "path_index": cand.path_index,
            "iou": cand.iou,
            "support": cand.support,
            "mean_original": [float(v) for v in cand.mean_original],
            "mean_reference": [float(v) for v in cand.mean_reference],
            "old_color": [float(v) for v in old_color],
            "new_color": [float(v) for v in path.fill_color],
        })
    return edited, report


@dataclass
class _Rasterized:
    """The coverage maps of one document and what they depend on."""

    doc: weakref.ref
    key: tuple  # canvas, rasterizer config and path count of each layer
    points: list[np.ndarray]  # control points of every path, copied
    maps: dict[str, list[PathCoverage]]


# run_edit's one entry, or none; _drop_maps empties it when its document dies.
_last: list[_Rasterized] = []


def _drop_maps(ref: weakref.ref) -> None:
    if _last and _last[0].doc is ref:
        _last.clear()


def _coverage_maps(doc: LayeredDocument, rcfg: RasterizerConfig
                   ) -> dict[str, list[PathCoverage]]:
    """Each three_layer tag's no-grad PathCoverage, one per path in layer
    order: the last call's maps when ``doc`` is the same object, with the
    same canvas, config and control points (compared by value), or else
    rasterized now.  Fill and opacity stay out of the key, since the maps
    hold neither."""
    tags = COMPOSITE_MODES["three_layer"]
    key = (doc.width, doc.height, rcfg, tuple(len(doc.layer(tag)) for tag in tags))
    points = [p.control_points for tag in tags for p in doc.layer(tag)]
    if _last:
        last = _last[0]
        if (last.doc() is doc and last.key == key
                and all(map(np.array_equal, last.points, points))):
            return last.maps
    maps = {tag: layer_forward(doc.layer(tag), layer_background(tag),
                               doc.width, doc.height, rcfg).coverages
            for tag in tags}
    _last[:] = [_Rasterized(weakref.ref(doc, _drop_maps), key,
                            [p.copy() for p in points], maps)]
    return maps


def run_edit(doc: LayeredDocument, original: np.ndarray,
             reference: np.ndarray, cfg: EditConfig,
             rcfg: RasterizerConfig = RasterizerConfig()
             ) -> tuple[LayeredDocument, EditReport]:
    """Full edit pass: mask, candidates, recolor, before/after MSE.

    Each path is rasterized once per document object: a sweep over K on
    one document reuses the maps of its first call (see _coverage_maps),
    and a path moved in place, another canvas or another
    RasterizerConfig rasterizes it again.  The maps are module state, one
    entry held only while its document lives, so run_edit is not safe to
    call from several threads at once; covec is single-threaded.  The
    albedo maps give the candidates their supports, the shade maps
    composite the shade the recolor divides out, and the before and after
    composites, which differ only in albedo fills, both blend from the
    same maps.
    """
    if (original.shape[0] != doc.height or original.shape[1] != doc.width):
        raise ValueError("original image does not match document dimensions")
    edit_mask = compute_edit_mask(original, reference, cfg.tau_diff)
    maps = _coverage_maps(doc, rcfg)
    shade = source_over(doc.shade, maps["shade"], layer_background("shade"),
                        doc.width, doc.height).image
    cands = candidate_paths(maps["albedo"], original, reference, edit_mask, cfg)
    edited, report = apply_color_edit(doc, cands, cfg, shade)
    before = render_composite(doc, "three_layer", rcfg, maps)
    after = render_composite(edited, "three_layer", rcfg, maps)
    report.mse_before = mse(np.clip(before, 0.0, 1.0), reference)
    report.mse_after = mse(np.clip(after, 0.0, 1.0), reference)
    return edited, report
