"""Seeded input generators for the benchmark workloads.

Each generator maps a seed to one input set.  Seed 0 reproduces the
package's own reference scene; any other seed jitters colours and
intensities by a few percent and keeps the geometry, so the pipeline
does about the same amount of work on every seed and timings stay
comparable across seeds.  Moving the lit scene's edges by as little as
0.15 px changed how many paths refinement proposes (3 to 6) and the cost
of a run by up to 2x; a 4 px jitter of the icon moved its work by 6 %.
"""

from __future__ import annotations

import numpy as np

from covec.model import LayeredDocument, VectorPath
from covec.refine import circle_control_points


def _grid(width: int, height: int, ss: int) -> tuple[np.ndarray, np.ndarray]:
    xs = (np.arange(width * ss) + 0.5) / ss
    ys = (np.arange(height * ss) + 0.5) / ss
    return np.meshgrid(xs, ys)


def _downsample(img: np.ndarray, ss: int) -> np.ndarray:
    h, w = img.shape[0] // ss, img.shape[1] // ss
    if img.ndim == 3:
        return img.reshape(h, ss, w, ss, img.shape[2]).mean(axis=(1, 3))
    return img.reshape(h, ss, w, ss).mean(axis=(1, 3))


def _jitter(rng: np.random.Generator | None, value, amount: float):
    """value + uniform(-amount, amount), or value unchanged for seed 0."""
    if rng is None:
        return value
    arr = np.asarray(value, dtype=np.float64)
    return arr + rng.uniform(-amount, amount, arr.shape)


def lit_scene(seed: int, size: int = 64, ss: int = 4) -> dict:
    """Disk on a background, half-plane shadow, additive highlight.

    Seed 0 evaluates ``covec.synthetic.make_acceptance_scene()`` with the
    same arithmetic, so its arrays are byte-identical.  Returns the
    target image, the albedo image and the integer label map.
    """
    rng = None if seed == 0 else np.random.default_rng(seed)
    cx, cy, radius = 24.0, 24.0, 14.0
    disk_rgb = _jitter(rng, np.array([0.8, 0.3, 0.3]), 0.05)
    bg_rgb = _jitter(rng, np.array([0.2, 0.5, 0.8]), 0.05)
    shadow_y = 40.0
    shade = _jitter(rng, 0.5, 0.05)
    hx, hy, h_radius = 44.0, 52.0, 6.0
    h_add = _jitter(rng, 0.3, 0.03)

    gx, gy = _grid(size, size, ss)
    disk = (gx - cx) ** 2 + (gy - cy) ** 2 <= radius ** 2
    albedo_hi = np.where(disk[:, :, None], disk_rgb, bg_rgb)
    shadow = gy >= shadow_y
    shade_hi = np.where(shadow[:, :, None], shade, 1.0)
    highlight = (gx - hx) ** 2 + (gy - hy) ** 2 <= h_radius ** 2
    light_hi = np.where(highlight[:, :, None], h_add, 0.0)
    target = _downsample(albedo_hi * shade_hi + light_hi, ss)
    albedo = _downsample(albedo_hi, ss)
    labels = np.where(_downsample(disk.astype(np.float64), ss) > 0.5, 2, 1)
    return {"target": target, "albedo": albedo,
            "labels": labels.astype(np.int64)}


def icon_scene(seed: int, size: int = 128, ss: int = 4) -> np.ndarray:
    """Two-colour icon: a blue disk on a warm yellow square.

    Seed 0 matches ``covec.synthetic.make_icon_scene(size)``.
    """
    rng = None if seed == 0 else np.random.default_rng(seed)
    gx, gy = _grid(size, size, ss)
    c = size / 2.0
    cx, cy, radius = c, c, size * 0.3
    fg = _jitter(rng, np.array([0.2, 0.3, 0.9]), 0.04)
    bg = _jitter(rng, np.array([0.95, 0.85, 0.25]), 0.04)
    disk = (gx - cx) ** 2 + (gy - cy) ** 2 <= radius ** 2
    return _downsample(np.where(disk[:, :, None], fg, bg), ss)


def disk_grid_edit(seed: int, size: int = 64) -> dict:
    """Nine-disk albedo grid plus one shade and one light path.

    Disks 2 and 5 are recoloured in the reference document by an L2
    shift of 0.2, as ``covec.synthetic.make_recolor_reference(doc, [2, 5])``
    does.  The shade path darkens disk 4 and the light path brightens
    disk 0, so the edit harness takes its shade-aware branch while the
    recoloured disks stay unshaded and remain detectable by the default
    edit mask.  Seed 0 uses the disk colours of
    ``make_disk_grid_document()``; other seeds jitter every disk colour
    by up to 0.03 per channel.  Returns the document and the reference.
    """
    n, side = 9, 3
    cell = size / side
    palette = np.random.default_rng(5)
    jitter = None if seed == 0 else np.random.default_rng(seed)

    def centre(i: int) -> tuple[float, float]:
        row, col = divmod(i, side)
        return (col + 0.5) * cell, (row + 0.5) * cell

    albedo = [VectorPath(control_points=circle_control_points(centre(i), cell * 0.33),
                         fill_color=_jitter(jitter, palette.uniform(0.5, 0.88, 3), 0.03),
                         opacity=1.0, layer_tag="albedo")
              for i in range(n)]
    shade = [VectorPath(control_points=circle_control_points(centre(4), cell * 0.42),
                        fill_color=np.full(3, 0.6), opacity=1.0, layer_tag="shade")]
    light = [VectorPath(control_points=circle_control_points(centre(0), cell * 0.15),
                        fill_color=np.full(3, 0.15), opacity=1.0, layer_tag="light")]
    doc = LayeredDocument(width=size, height=size, albedo=albedo,
                          illumination=[], shade=shade, light=light)
    reference = doc.copy()
    shift = np.random.default_rng(11)
    for idx in (2, 5):
        delta = shift.choice([-1.0, 1.0], 3) * (0.2 / np.sqrt(3.0))
        color = reference.albedo[idx].fill_color + delta
        reference.albedo[idx].fill_color = np.clip(color, 0.0, 1.0)
    return {"document": doc, "reference": reference}
