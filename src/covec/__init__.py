"""covec: illumination-aware image vectorization.

Decomposes a raster image into stacked vector layers (albedo base color,
multiplicative shade, additive light), optimizes closed cubic Bezier
paths through a differentiable soft rasterizer, and emits the result as
an SVG using standard blend modes.
"""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    GradientBuffer,
    LayeredDocument,
    RasterizerConfig,
    VectorPath,
)
