"""End-to-end vectorization runs: load, initialize, optimize, refine, emit.

One flow serves both modes and branches only where they differ.  Full
mode reconstructs the image as albedo times shade plus light: it
initializes both layers from a segmentation and an albedo estimate,
refines the illumination layer over the frozen albedo render, then
separates illumination into shade and light, coloring light from the same
albedo render.  Albedo-only mode folds the region shadow masks into a
single albedo layer, refines that layer over a white (identity) factor,
and emits empty shade and light groups.  Structural warm-up and joint
reconstruction are shared.

File inputs are always preferred when named: an albedo estimate image
(full mode only) and a label-map segmentation replace the internal
fallbacks (smoothness ratio and seeded k-means).

``RunConfig`` holds every setting a run takes, one per ``covec
vectorize`` flag.  Every other threshold is fixed, as a module constant
next to the code that reads it (``init_layers``, ``optimize``,
``refine``, ``model.SHADE_FLOOR``).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .image_io import read_image, read_label_map
from .init_layers import (fallback_albedo, fallback_segment, init_layers,
                          masks_from_labels, organize_masks, paths_for_groups,
                          region_binarize)
from .model import BLACK, WHITE, LayeredDocument, RasterizerConfig
from .optimize import Schedule, StructLossConfig, TraceRow, mse, run_structural
from .raster import blend, layer_forward, source_over
from .refine import RefineConfig, assign_light_colors, refine_layer, separate_layers
from .svg_io import emit_svg

MODES = ("full", "albedo_only")
DEFAULT_BUDGET = {"full": 64, "albedo_only": 16}


@dataclass(frozen=True)
class RunConfig:
    """Everything one vectorization run needs, mirroring the CLI flags.

    The per-stage configs (``raster_config``, ``schedule``,
    ``struct_config``, ``refine_config``) are built once at construction,
    so an invalid value raises ValueError before any work.
    """

    input_path: str
    output_path: str
    mode: str = "full"
    path_budget: int | None = None
    seed: int = 0
    albedo_path: str | None = None
    masks_path: str | None = None
    trace_path: str | None = None
    dp_epsilon: float = 2.0
    aa_sigma: float = 1.0
    warmup_epochs: int = 50
    joint_epochs: int = 50
    refine_rounds: int = 5
    refine_iters: int = 100
    lambda_overlap: float = 1e-8
    delta_overlap: float = 0.6
    penalty_sign: str = "overlap"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.path_budget is not None and self.path_budget < 1:
            raise ValueError("path budget must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.mode == "albedo_only" and self.albedo_path is not None:
            raise ValueError("an albedo estimate is only used in full mode")
        if self.dp_epsilon < 0:
            raise ValueError("dp_epsilon must be nonnegative")
        stages = {
            "raster_config": RasterizerConfig(aa_sigma=self.aa_sigma),
            "schedule": Schedule(warmup_epochs=self.warmup_epochs,
                                 joint_epochs=self.joint_epochs),
            "struct_config": StructLossConfig(lambda_overlap=self.lambda_overlap,
                                              delta_overlap=self.delta_overlap,
                                              penalty_sign=self.penalty_sign),
            "refine_config": RefineConfig(rounds_max=self.refine_rounds,
                                          iters_per_round=self.refine_iters),
        }
        for name, value in stages.items():
            object.__setattr__(self, name, value)  # frozen: derived, not fields

    @property
    def effective_budget(self) -> int:
        if self.path_budget is not None:
            return self.path_budget
        return DEFAULT_BUDGET[self.mode]

    @property
    def effective_trace_path(self) -> str:
        if self.trace_path is not None:
            return self.trace_path
        return str(Path(self.output_path).with_suffix(".csv"))


@dataclass
class VectorizeResult:
    document: LayeredDocument
    trace: list[TraceRow] = field(default_factory=list)
    final_mse: float = 0.0


def _load_albedo(cfg: RunConfig, image: np.ndarray) -> np.ndarray:
    if cfg.albedo_path is None:
        return fallback_albedo(image)
    albedo = read_image(cfg.albedo_path)
    if albedo.shape != image.shape:
        raise ValueError(f"albedo map shape {albedo.shape} does not match "
                         f"input image {image.shape}")
    return albedo


def _load_masks(cfg: RunConfig, image: np.ndarray):
    if cfg.masks_path is None:
        return fallback_segment(image, cfg.seed)
    labels = read_label_map(cfg.masks_path)
    if labels.shape != image.shape[:2]:
        raise ValueError(f"label map shape {labels.shape} does not match "
                         f"input image {image.shape[:2]}")
    return masks_from_labels(labels)


def vectorize(cfg: RunConfig) -> VectorizeResult:
    """Run the configured pipeline; no files are written."""
    image = read_image(cfg.input_path)
    rcfg = cfg.raster_config
    h, w = image.shape[:2]
    full = cfg.mode == "full"
    if full:
        albedo_map = _load_albedo(cfg, image)
        init = init_layers(image, albedo_map, _load_masks(cfg, image), cfg.dp_epsilon)
        a_groups, i_groups = init.albedo_groups, init.illum_groups
        a_renders, i_renders = init.albedo_renders, init.illum_renders
    else:
        seg_masks = _load_masks(cfg, image)
        groups_m = organize_masks(seg_masks + region_binarize(image, seg_masks))
        a_groups, a_renders = paths_for_groups(groups_m, image, "albedo",
                                               cfg.dp_epsilon, w, h)
        i_groups, i_renders = [], []
    trace = run_structural(a_groups, i_groups, image, a_renders, i_renders,
                           cfg.schedule, cfg.struct_config, rcfg)
    albedo = [p for g in a_groups for p in g]
    illum = [p for g in i_groups for p in g]
    budget_left = max(0, cfg.effective_budget - len(albedo) - len(illum))
    if full:
        layer, tag = illum, "illumination"
        factor = layer_forward(albedo, WHITE, w, h, rcfg).image
    else:
        layer, tag, factor = albedo, "albedo", WHITE
    refined = refine_layer(layer, factor, image, cfg.refine_config, rcfg,
                           budget_left, layer_tag=tag)
    trace.extend(refined.trace)
    # the three-layer composite (A * S) + L, from renders already held
    if full:
        shade, light = separate_layers(refined.layer)
        light, shade_img, light_maps = assign_light_colors(light, image, factor,
                                                           shade, rcfg)
        light_img = source_over(light, light_maps, BLACK, w, h).image
        composite = blend("plus_lighter", blend("multiply", factor, shade_img),
                          light_img)
    else:  # empty shade and light: (A * 1) + 0 is A
        albedo, shade, light = refined.layer, [], []
        composite = refined.image
    doc = LayeredDocument(width=w, height=h, albedo=albedo, illumination=[],
                          shade=shade, light=light)
    return VectorizeResult(document=doc, trace=trace,
                           final_mse=mse(np.clip(composite, 0.0, 1.0), image))


def trace_csv_bytes(trace: list[TraceRow]) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["epoch", "stage", "loss", "paths_added", "paths_removed"])
    for row in trace:
        writer.writerow([
            row.epoch, row.stage, repr(float(row.loss)),
            "" if row.paths_added is None else row.paths_added,
            "" if row.paths_removed is None else row.paths_removed,
        ])
    return buf.getvalue().encode("utf-8")


def write_outputs(result: VectorizeResult, cfg: RunConfig) -> None:
    """Write the SVG document and the optimization trace CSV."""
    emit_svg(result.document, out=cfg.output_path)
    with open(cfg.effective_trace_path, "wb") as fh:
        fh.write(trace_csv_bytes(result.trace))


def run(cfg: RunConfig) -> VectorizeResult:
    """vectorize + write_outputs in one call."""
    result = vectorize(cfg)
    write_outputs(result, cfg)
    return result
