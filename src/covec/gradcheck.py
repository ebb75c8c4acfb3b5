"""Finite-difference validation of the rasterizer's analytic gradients.

Each probe builds a random little scene (one to five paths split across
the albedo and illumination layers, canvas between 16 and 32 pixels per
side) and a random target.  The analytic gradients are those of
optimize.loss_recon, the loss the joint stage steps on; the numeric ones
are central differences of optimize.mse on the two-layer composite.
They are compared for a sample of control-point coordinates plus one
color channel and the opacity of every path.  Differences must satisfy
rel < REL_TOL or abs < ABS_TOL.

Flattening runs in the fixed-count mode here: the adaptive subdivision
depth can flip under a half-epsilon perturbation, which puts a genuine
step into the finite-difference stencil that says nothing about the
gradient code.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .model import LayeredDocument, RasterizerConfig, VectorPath
from .optimize import loss_recon, mse
from .raster import path_coverage, render_composite
from .refine import circle_control_points

logger = logging.getLogger(__name__)

# Central-difference steps for control-point coordinates and for colors and
# opacities, the agreement tolerances, and the control-point coordinates
# sampled per path.
EPS_POINTS = 1e-3
EPS_SCALARS = 1e-4
REL_TOL = 1e-2
ABS_TOL = 1e-4
COORDS_PER_PATH = 2


@dataclass(frozen=True)
class GradCheckConfig:
    """Probe count and seed, mirroring ``covec gradcheck --probes --seed``."""

    n_probes: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.n_probes < 0:
            raise ValueError("n_probes must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass
class ProbeFailure:
    probe: int
    kind: str
    layer_tag: str
    path_index: int
    coord: tuple
    analytic: float
    numeric: float


@dataclass
class GradCheckReport:
    n_probes: int
    n_comparisons: int = 0
    failures: list[ProbeFailure] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"gradcheck {status}: {self.n_comparisons} comparisons over "
                f"{self.n_probes} probes, {len(self.failures)} failures, "
                f"{self.elapsed:.1f}s")


def _random_scene(rng: np.random.Generator
                  ) -> tuple[LayeredDocument, np.ndarray, RasterizerConfig]:
    w = int(rng.integers(16, 33))
    h = int(rng.integers(16, 33))
    n_paths = int(rng.integers(1, 6))
    n_albedo = int(rng.integers(1, n_paths + 1))
    albedo: list[VectorPath] = []
    illum: list[VectorPath] = []
    for i in range(n_paths):
        center = rng.uniform([4, 4], [w - 4, h - 4])
        radius = rng.uniform(2.5, min(w, h) / 3.0)
        ctrl = circle_control_points(center, radius)
        ctrl = ctrl + rng.normal(0.0, 0.4, ctrl.shape)
        tag = "albedo" if i < n_albedo else "illumination"
        hi = 0.95 if tag == "albedo" else 1.4
        path = VectorPath(control_points=ctrl,
                          fill_color=rng.uniform(0.05, hi, 3),
                          opacity=float(rng.uniform(0.2, 0.95)),
                          layer_tag=tag)
        (albedo if tag == "albedo" else illum).append(path)
    doc = LayeredDocument(width=w, height=h, albedo=albedo, illumination=illum)
    target = rng.uniform(0.0, 1.0, (h, w, 3))
    config = RasterizerConfig(flatten_mode="fixed")
    return doc, target, config


def _coverage_cache(doc: LayeredDocument,
                    config: RasterizerConfig) -> dict[str, list[np.ndarray]]:
    return {tag: [path_coverage(p, doc.width, doc.height, config).coverage
                  for p in doc.layer(tag)]
            for tag in ("albedo", "illumination")}


def _set_param(path: VectorPath, kind: str, coord: tuple, value: float) -> None:
    if kind == "control_point":
        path.control_points[coord] = value
    elif kind == "color":
        path.fill_color[coord] = value
    else:
        path.opacity = value


def _agree(analytic: float, numeric: float) -> bool:
    diff = abs(analytic - numeric)
    scale = max(abs(analytic), abs(numeric))
    return diff < ABS_TOL or diff < REL_TOL * scale


def run_gradcheck(cfg: GradCheckConfig = GradCheckConfig()) -> GradCheckReport:
    """Run all probes and collect every disagreement."""
    report = GradCheckReport(n_probes=cfg.n_probes)
    if cfg.n_probes == 0:
        logger.warning("gradcheck ran zero probes; result is vacuous")
        return report
    rng = np.random.default_rng(cfg.seed)
    t0 = time.perf_counter()
    for probe in range(cfg.n_probes):
        doc, target, config = _random_scene(rng)
        _, grads_a, grads_i = loss_recon(doc.albedo, doc.illumination, target,
                                         config)
        covs = _coverage_cache(doc, config)

        def fd(tag: str, pi: int, kind: str, coord: tuple, base: float) -> float:
            path = doc.layer(tag)[pi]
            saved_cov = covs[tag][pi]
            eps = EPS_POINTS if kind == "control_point" else EPS_SCALARS
            vals = []
            for sign in (+1.0, -1.0):
                _set_param(path, kind, coord, base + sign * eps)
                if kind == "control_point":  # only geometry moves the coverage
                    covs[tag][pi] = path_coverage(path, doc.width, doc.height,
                                                  config).coverage
                vals.append(mse(render_composite(doc, "two_layer", config, covs), target))
            _set_param(path, kind, coord, base)
            covs[tag][pi] = saved_cov
            return (vals[0] - vals[1]) / (2.0 * eps)

        for tag, grads in (("albedo", grads_a), ("illumination", grads_i)):
            for pi, (path, g) in enumerate(zip(doc.layer(tag), grads)):
                n_ctrl = path.control_points.shape[0]
                picks = rng.choice(n_ctrl * 2, size=min(COORDS_PER_PATH, n_ctrl * 2),
                                   replace=False)
                ch = int(rng.integers(0, 3))
                # (kind, coord, value, analytic gradient) per comparison
                rows = [("control_point", (r, c), float(path.control_points[r, c]),
                         float(g.d_control_points[r, c]))
                        for r, c in (divmod(int(flat), 2) for flat in picks)]
                rows += [("color", (ch,), float(path.fill_color[ch]),
                          float(g.d_fill_color[ch])),
                         ("opacity", (), path.opacity, float(g.d_opacity))]
                for kind, coord, value, analytic in rows:
                    numeric = fd(tag, pi, kind, coord, value)
                    report.n_comparisons += 1
                    if not _agree(analytic, numeric):
                        report.failures.append(ProbeFailure(
                            probe, kind, tag, pi, coord, analytic, numeric))
    report.elapsed = time.perf_counter() - t0
    return report
