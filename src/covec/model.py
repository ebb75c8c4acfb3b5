"""Core data types shared across the vectorization pipeline.

A document is an ordered stack of closed cubic Bezier paths grouped into
named layers.  Albedo paths hold base color, shade paths darken it
multiplicatively, light paths add emissive energy on top.  All pixel math
runs in float64 RGB without clamping so shade/light separation can rely on
values above 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

LAYER_TAGS = ("albedo", "illumination", "shade", "light")

# Layers whose fill colors live in [0, 1].  Illumination and light colors
# may exceed 1 (attenuation vs. additive energy is decided by that bound).
UNIT_COLOR_TAGS = ("albedo", "shade")

WHITE = np.ones(3)
BLACK = np.zeros(3)


@dataclass
class VectorPath:
    """Closed loop of k cubic Bezier segments with a uniform fill.

    ``control_points`` has shape (3k, 2); segment i uses points
    3i, 3i+1, 3i+2, 3i+3 with the last index taken modulo 3k, so the loop
    closes by construction and shares endpoints between neighbors.
    """

    control_points: np.ndarray
    fill_color: np.ndarray
    opacity: float = 1.0
    layer_tag: str = "albedo"

    def __post_init__(self):
        self.control_points = np.asarray(self.control_points, dtype=np.float64)
        self.fill_color = np.asarray(self.fill_color, dtype=np.float64)
        if self.control_points.ndim != 2 or self.control_points.shape[1] != 2:
            raise ValueError("control_points must have shape (3k, 2)")
        if self.control_points.shape[0] % 3 != 0 or self.control_points.shape[0] < 3:
            raise ValueError("control point count must be a positive multiple of 3")
        if self.fill_color.shape != (3,):
            raise ValueError("fill_color must have shape (3,)")
        if not 0.0 <= self.opacity <= 1.0:
            raise ValueError("opacity must lie in [0, 1]")
        if self.layer_tag not in LAYER_TAGS:
            raise ValueError(f"unknown layer_tag {self.layer_tag!r}")

    @property
    def n_segments(self) -> int:
        return self.control_points.shape[0] // 3

    def segment(self, i: int) -> np.ndarray:
        """Control quad (4, 2) of segment i, closing modulo the loop."""
        n = self.control_points.shape[0]
        idx = (3 * i + np.arange(4)) % n
        return self.control_points[idx]

    def copy(self) -> "VectorPath":
        return VectorPath(
            control_points=self.control_points.copy(),
            fill_color=self.fill_color.copy(),
            opacity=float(self.opacity),
            layer_tag=self.layer_tag,
        )


def project_color(color: np.ndarray, layer_tag: str) -> np.ndarray:
    """Clamp a fill color to the range its layer admits."""
    if layer_tag in UNIT_COLOR_TAGS:
        return np.clip(color, 0.0, 1.0)
    # illumination / light: nonnegative, unbounded above
    return np.maximum(color, 0.0)


@dataclass
class LayeredDocument:
    """Ordered vector layers over a fixed canvas.

    Within each list, paths render back to front (index 0 is deepest).
    Every layer is a list; an empty one contributes nothing.
    """

    width: int
    height: int
    albedo: list[VectorPath] = field(default_factory=list)
    illumination: list[VectorPath] = field(default_factory=list)
    shade: list[VectorPath] = field(default_factory=list)
    light: list[VectorPath] = field(default_factory=list)

    def layer(self, tag: str) -> list[VectorPath]:
        if tag not in LAYER_TAGS:
            raise ValueError(f"unknown layer_tag {tag!r}")
        return getattr(self, tag)

    def all_paths(self) -> list[VectorPath]:
        return [p for tag in LAYER_TAGS for p in getattr(self, tag)]

    def copy(self) -> "LayeredDocument":
        return LayeredDocument(self.width, self.height,
                               **{tag: [p.copy() for p in getattr(self, tag)]
                                  for tag in LAYER_TAGS})


@dataclass
class GradientBuffer:
    """Per-path parameter gradients accumulated by the backward pass."""

    d_control_points: np.ndarray
    d_fill_color: np.ndarray
    d_opacity: float = 0.0


# The only fill rule the rasterizer implements; the SVG emitter writes it
# on every path and the parser rejects any other.
FILL_RULE = "nonzero"

# Floor on the albedo or luma that every shading ratio divides by, so dark
# pixels cannot blow the ratio up.
SHADE_FLOOR = 0.05


@dataclass(frozen=True)
class RasterizerConfig:
    """Knobs for the differentiable soft rasterizer.

    flatten_mode "adaptive" subdivides curves until flat within
    ``geometry.FLATTEN_TOLERANCE``; "fixed" samples
    ``geometry.FLATTEN_FIXED_COUNT`` uniform parameter values per segment,
    which keeps the vertex schedule independent of the control points
    (useful for finite-difference checks, where adaptive splits would
    introduce tiny discontinuities).
    """

    aa_sigma: float = 1.0
    supersample: int = 2
    flatten_mode: str = "adaptive"

    def __post_init__(self):
        if not 0 < self.aa_sigma < np.inf:
            raise ValueError("aa_sigma must be positive and finite")
        if self.supersample < 1:
            raise ValueError("supersample must be >= 1")
        if self.flatten_mode not in ("adaptive", "fixed"):
            raise ValueError("flatten_mode must be 'adaptive' or 'fixed'")
