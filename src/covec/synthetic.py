"""Constructed test scenes with known ground truth.

Every scene is evaluated analytically on a supersampled grid and box
filtered down, so edges are smooth at roughly the same scale as the
renderer's own anti-aliasing and the decomposition targets are exact by
construction (known albedo, shadow region, highlight support).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import LayeredDocument, VectorPath
from .refine import circle_control_points


def _grid(width: int, height: int, ss: int) -> tuple[np.ndarray, np.ndarray]:
    xs = (np.arange(width * ss) + 0.5) / ss
    ys = (np.arange(height * ss) + 0.5) / ss
    return np.meshgrid(xs, ys)


def _downsample(img: np.ndarray, ss: int) -> np.ndarray:
    h, w = img.shape[0] // ss, img.shape[1] // ss
    if img.ndim == 3:
        return img.reshape(h, ss, w, ss, img.shape[2]).mean(axis=(1, 3))
    return img.reshape(h, ss, w, ss).mean(axis=(1, 3))


@dataclass
class SyntheticScene:
    """A target image with its exact decomposition and region masks.

    ``albedo``, ``shade`` and ``light`` are (H, W, 3) layer images, each
    box filtered like ``target``, which ``albedo * shade + light``
    reproduces to rounding.
    """

    target: np.ndarray
    albedo: np.ndarray
    labels: np.ndarray
    shadow_mask: np.ndarray
    highlight_mask: np.ndarray
    shade: np.ndarray
    light: np.ndarray


def make_acceptance_scene(width: int = 64, height: int = 64,
                          ss: int = 4) -> SyntheticScene:
    """Flat-albedo disk on a flat background, half-plane shadow, additive highlight.

    Albedo: disk (0.8, 0.3, 0.3) of radius 14 at (24, 24) on background
    (0.2, 0.5, 0.8).  Shadow: multiplicative 0.5 over rows y >= 40.
    Highlight: +0.3 inside a radius-6 disk at (44, 52), fully inside the
    shadow so the target stays within [0, 1].  Masks are at native
    resolution via majority vote of the supersampled indicators.
    """
    gx, gy = _grid(width, height, ss)
    disk = (gx - 24.0) ** 2 + (gy - 24.0) ** 2 <= 14.0 ** 2
    albedo_hi = np.where(disk[:, :, None],
                         np.array([0.8, 0.3, 0.3]),
                         np.array([0.2, 0.5, 0.8]))
    shadow = gy >= 40.0
    shade_hi = np.where(shadow[:, :, None], 0.5, np.ones(3))
    highlight = (gx - 44.0) ** 2 + (gy - 52.0) ** 2 <= 6.0 ** 2
    light_hi = np.where(highlight[:, :, None], 0.3, np.zeros(3))
    target = _downsample(albedo_hi * shade_hi + light_hi, ss)
    albedo = _downsample(albedo_hi, ss)
    labels = np.where(_downsample(disk.astype(np.float64), ss) > 0.5, 2, 1)
    shadow_mask = _downsample(shadow.astype(np.float64), ss) > 0.5
    highlight_mask = _downsample(highlight.astype(np.float64), ss) > 0.5
    return SyntheticScene(target=target, albedo=albedo,
                          labels=labels.astype(np.int64),
                          shadow_mask=shadow_mask, highlight_mask=highlight_mask,
                          shade=_downsample(shade_hi, ss),
                          light=_downsample(light_hi, ss))


def make_icon_scene(size: int = 32, ss: int = 4) -> np.ndarray:
    """Two-color icon: a blue disk on a warm yellow square background."""
    gx, gy = _grid(size, size, ss)
    c = size / 2.0
    disk = (gx - c) ** 2 + (gy - c) ** 2 <= (size * 0.3) ** 2
    img = np.where(disk[:, :, None],
                   np.array([0.2, 0.3, 0.9]),
                   np.array([0.95, 0.85, 0.25]))
    return _downsample(img, ss)


def make_disk_grid_document(n: int = 9, size: int = 64,
                            seed: int = 5) -> LayeredDocument:
    """Albedo-only document of n disjoint disks on a 3x3-ish grid.

    Colors stay in a bright band: each disk's binary support includes
    softly blended boundary pixels, so region-mean color estimates pull
    toward the white canvas, and keeping fills near white keeps that
    pull small next to any deliberate recolor.
    """
    rng = np.random.default_rng(seed)
    side = int(np.ceil(np.sqrt(n)))
    cell = size / side
    paths = []
    for i in range(n):
        row, col = divmod(i, side)
        cx = (col + 0.5) * cell
        cy = (row + 0.5) * cell
        radius = cell * 0.33
        color = rng.uniform(0.5, 0.88, 3)
        paths.append(VectorPath(
            control_points=circle_control_points((cx, cy), radius),
            fill_color=color, opacity=1.0, layer_tag="albedo"))
    return LayeredDocument(width=size, height=size, albedo=paths,
                           illumination=[], shade=[], light=[])


def make_recolor_reference(doc: LayeredDocument, indices: list[int],
                           shift: float = 0.2,
                           seed: int = 11) -> LayeredDocument:
    """Copy of ``doc`` with the given albedo paths recolored.

    Every channel moves by the same magnitude shift/sqrt(3) with a random
    sign, so each recolor has L2 norm ``shift``: large enough per pixel
    to register in the default edit mask, small enough to pass the
    default color-compatibility filter.  The result is clamped to [0, 1].
    """
    rng = np.random.default_rng(seed)
    out = doc.copy()
    for idx in indices:
        delta = rng.choice([-1.0, 1.0], 3) * (shift / np.sqrt(3.0))
        color = out.albedo[idx].fill_color + delta
        out.albedo[idx].fill_color = np.clip(color, 0.0, 1.0)
    return out
