"""Controlled recoloring of albedo paths against a reference image.

Given a layered document, the image it reconstructs, and an edited
reference raster, this module finds which albedo paths sit under the
changed pixels, picks the top K by support area, and rewrites only their
fill colors so the shaded composite matches the reference.  Dividing the
reference color by the mean shade under each path compensates for the
multiply blend, so a path that renders dark under shadow still receives
the intended surface color.  Recoloring never moves geometry, so one edit
rasterizes each path once and every later step reuses those coverage maps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .model import LayeredDocument, RasterizerConfig
from .optimize import mse
from .raster import (COMPOSITE_MODES, PathCoverage, layer_background, layer_forward,
                     render_composite)

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
    """One albedo path that overlaps the edit region."""

    path_index: int
    iou: float
    support: int
    mask: np.ndarray
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
    order.  A path survives when its binary support (coverage above one
    half) has IoU with the edit mask above gamma_iou AND its mean color
    moved by at most delta_color between the two images.  The second
    filter keeps small shifts by construction; scenes with drastic
    recolors should raise delta_color accordingly.
    """
    edit_area = int(edit_mask.sum())
    out: list[EditCandidate] = []
    for idx, pc in enumerate(albedo_maps):
        in_window = pc.block > 0.5
        n_support = int(np.count_nonzero(in_window))
        if n_support == 0:
            continue
        support = np.zeros(edit_mask.shape, dtype=bool)
        support[pc.region] = in_window
        inter = int(np.count_nonzero(in_window & edit_mask[pc.region]))
        union = n_support + edit_area - inter
        iou = inter / union
        if iou <= cfg.gamma_iou:
            continue
        mu = original[support].mean(axis=0)
        mu_ref = reference[support].mean(axis=0)
        if float(np.linalg.norm(mu - mu_ref)) > cfg.delta_color:
            continue
        out.append(EditCandidate(path_index=idx, iou=iou, support=n_support,
                                 mask=support, mean_original=mu,
                                 mean_reference=mu_ref))
    out.sort(key=lambda c: (-c.support, c.path_index))
    return out


def apply_color_edit(doc: LayeredDocument, candidates: list[EditCandidate],
                     reference: np.ndarray, cfg: EditConfig,
                     shade_img: np.ndarray) -> tuple[LayeredDocument, EditReport]:
    """Recolor the top-K candidate paths toward the reference.

    Only fill colors change; geometry, opacity, and stacking order stay
    put.  ``shade_img`` is the rendered shade layer.  With a nonempty
    shade layer the target color divides out the mean rendered shade
    under the path, so the multiply composite lands on the reference
    color; without one the reference mean is used as is.  Asking for more
    paths than exist edits them all and records the shortfall in the
    report.
    """
    edited = doc.copy()
    report = EditReport(requested_k=cfg.top_k, n_candidates=len(candidates))
    for cand in candidates[:cfg.top_k]:
        path = edited.albedo[cand.path_index]
        old_color = path.fill_color.copy()
        c_ref = reference[cand.mask].mean(axis=0)
        if doc.shade:
            s_bar = shade_img[cand.mask].mean(axis=0)
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


def run_edit(doc: LayeredDocument, original: np.ndarray,
             reference: np.ndarray, cfg: EditConfig,
             rcfg: RasterizerConfig = RasterizerConfig()
             ) -> tuple[LayeredDocument, EditReport]:
    """Full edit pass: mask, candidates, recolor, before/after MSE.

    Each path is rasterized once.  The albedo coverage maps give the
    candidates their supports, the shade render gives the recolor its
    shade, and the before and after composites, which differ only in
    albedo fills, both blend from the same maps.
    """
    if (original.shape[0] != doc.height or original.shape[1] != doc.width):
        raise ValueError("original image does not match document dimensions")
    edit_mask = compute_edit_mask(original, reference, cfg.tau_diff)
    renders = {tag: layer_forward(doc.layer(tag), layer_background(tag),
                                  doc.width, doc.height, rcfg)
               for tag in COMPOSITE_MODES["three_layer"]}
    maps = {tag: r.coverages for tag, r in renders.items()}
    cands = candidate_paths(maps["albedo"], original, reference, edit_mask, cfg)
    edited, report = apply_color_edit(doc, cands, reference, cfg,
                                      renders["shade"].image)
    before = render_composite(doc, "three_layer", rcfg, maps)
    after = render_composite(edited, "three_layer", rcfg, maps)
    report.mse_before = mse(np.clip(before, 0.0, 1.0), reference)
    report.mse_after = mse(np.clip(after, 0.0, 1.0), reference)
    return edited, report
