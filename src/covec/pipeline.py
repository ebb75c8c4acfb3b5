"""End-to-end vectorization runs: load, initialize, optimize, refine, emit.

One flow serves both modes and branches only where they differ.  Full
mode reconstructs the image as albedo times shade plus light: it
initializes both layers from a segmentation and an albedo estimate,
refines the illumination layer over the frozen albedo render, then
separates illumination into shade and light, coloring light from the same
albedo render.  Albedo-only mode folds the regions' dark parts into a
single albedo layer, refines that layer over a white (identity) factor,
and emits empty shade and light groups.  Structural warm-up and joint
reconstruction are shared.

File inputs are always preferred when named: an albedo estimate image
(full mode only) and a label-map segmentation replace the internal
fallbacks (smoothness ratio and seeded k-means).

``check_outputs`` is the one rule on which files a command may write;
``RunConfig`` applies it when constructed.

``RunConfig`` holds every setting a run takes, one per ``covec
vectorize`` flag.  Every other threshold is fixed, as a module constant
next to the code that reads it (``init_layers``, ``optimize``,
``refine``, ``model.SHADE_FLOOR``).
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .image_io import read_image, read_label_map
from .init_layers import (attenuation_ratio, fallback_albedo, fallback_segment,
                          paths_for_groups, region_binarize, regions_from_labels)
from .model import WHITE, LayeredDocument, RasterizerConfig
from .optimize import Schedule, StructLossConfig, TraceRow, mse, run_structural
from .raster import layer_forward, render_composite
from .refine import assign_light_colors, refine_layer, separate_layers
from .svg_io import emit_svg

MODES = ("full", "albedo_only")
DEFAULT_BUDGET = {"full": 64, "albedo_only": 16}


def _file_key(path: str):
    """What identifies ``path``'s file: device and inode when it exists
    (so hard links and symlinks compare equal), else the resolved path."""
    try:
        st = os.stat(path)
    except OSError:
        return Path(path).resolve()
    return st.st_dev, st.st_ino


def check_outputs(outputs: tuple[str, ...],
                  inputs: tuple[str | None, ...] = ()) -> None:
    """Raise ValueError, before any work, unless every output may be written.

    An output may not sit in a missing directory, be an existing directory,
    or be the same file as an input or an earlier output.  ``None`` entries
    (an optional input not given) are skipped.
    """
    taken = {_file_key(path) for path in inputs if path is not None}
    for path in outputs:
        if Path(path).is_dir():
            raise ValueError(f"the output {path} is a directory")
        parent = Path(path).parent
        if not parent.is_dir():
            raise ValueError(f"output directory {parent} does not exist")
        key = _file_key(path)
        if key in taken:
            raise ValueError(f"the output {path} would overwrite an input "
                             "or another output")
        taken.add(key)


@dataclass(frozen=True)
class RunConfig:
    """Everything one vectorization run needs, mirroring the CLI flags.

    The per-stage configs (``raster_config``, ``schedule`` and
    ``struct_config``) are built once at construction, and the SVG and
    trace paths pass ``check_outputs`` against the input files, so an
    invalid value raises ValueError before any work.
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
        if not 0 <= self.dp_epsilon < np.inf:
            raise ValueError("dp_epsilon must be nonnegative and finite")
        check_outputs((self.output_path, self.effective_trace_path),
                      (self.input_path, self.albedo_path, self.masks_path))
        stages = {
            "raster_config": RasterizerConfig(aa_sigma=self.aa_sigma),
            "schedule": Schedule(warmup_epochs=self.warmup_epochs,
                                 joint_epochs=self.joint_epochs,
                                 refine_rounds=self.refine_rounds,
                                 refine_iters=self.refine_iters),
            "struct_config": StructLossConfig(lambda_overlap=self.lambda_overlap,
                                              delta_overlap=self.delta_overlap,
                                              penalty_sign=self.penalty_sign),
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


def _load_regions(cfg: RunConfig, image: np.ndarray) -> np.ndarray:
    if cfg.masks_path is None:
        return fallback_segment(image, cfg.seed)
    labels = read_label_map(cfg.masks_path)
    if labels.shape != image.shape[:2]:
        raise ValueError(f"label map shape {labels.shape} does not match "
                         f"input image {image.shape[:2]}")
    return regions_from_labels(labels)


def vectorize(cfg: RunConfig) -> VectorizeResult:
    """Run the configured pipeline; no files are written."""
    image = read_image(cfg.input_path)
    rcfg = cfg.raster_config
    h, w = image.shape[:2]
    full = cfg.mode == "full"
    eps = cfg.dp_epsilon
    albedo_map = _load_albedo(cfg, image) if full else None
    regions = _load_regions(cfg, image)
    dark = region_binarize(image, regions)
    if full:
        a_groups, a_renders = paths_for_groups([regions], albedo_map, "albedo", eps)
        i_groups, i_renders = paths_for_groups(
            [dark], attenuation_ratio(image, albedo_map), "illumination", eps)
    else:
        # a dark part lies inside its region, so it equals the region exactly
        # when both have the same area; the region's path already covers it
        area = np.bincount(regions.ravel())
        whole = np.bincount(dark.ravel(), minlength=area.size) == area
        dark = np.where(whole[dark], 0, dark)
        a_groups, a_renders = paths_for_groups([regions, dark], image, "albedo", eps)
        i_groups, i_renders = [], []
    trace = run_structural(a_groups, i_groups, image, a_renders, i_renders,
                           cfg.schedule, cfg.struct_config, rcfg)
    albedo = [p for g in a_groups for p in g]
    illum = [p for g in i_groups for p in g]
    budget_left = max(0, cfg.effective_budget - len(albedo) - len(illum))
    if full:
        a_render = layer_forward(albedo, WHITE, w, h, rcfg)
        a_maps = a_render.coverages
        refined = refine_layer(illum, a_render.image, image, cfg.schedule, rcfg,
                               budget_left)
        shade, light, s_maps, l_maps = separate_layers(refined.layer, refined.maps)
        light, l_maps = assign_light_colors(light, l_maps, image, a_render.image,
                                            shade, s_maps)
    else:
        refined = refine_layer(albedo, WHITE, image, cfg.schedule, rcfg,
                               budget_left, layer_tag="albedo")
        albedo, a_maps = refined.layer, refined.maps
        shade, light, s_maps, l_maps = [], [], [], []
    trace.extend(refined.trace)
    # every path now has its coverage map: the composite rasterizes nothing
    doc = LayeredDocument(width=w, height=h, albedo=albedo, illumination=[],
                          shade=shade, light=light)
    maps = {"albedo": a_maps, "shade": s_maps, "light": l_maps}
    composite = render_composite(doc, "three_layer", rcfg, maps)
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
