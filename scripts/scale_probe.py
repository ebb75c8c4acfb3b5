#!/usr/bin/env python3
"""Time and size one training step on a 256x256 map of 1024 regions.

The map is 32 x 32 cells of 8 px, labelled 1..1024 row by row, each
filled with a colour drawn uniform(0.1, 0.9) at seed 0 and multiplied
by the shade 0.75 + 0.25 sin(x / 9) cos(y / 11).  The probe traces one
albedo path per region with ``paths_for_groups`` (dp_epsilon 2.0),
renders them with one with-grad ``layer_forward`` and pulls the MSE
image gradient back through one ``layer_backward``.  It prints the time
of each step, the process's peak resident set size (``ru_maxrss``) and
the sha256 of every path's gradients, so two trees can be compared on
memory, time and bits.  Run it as ``PYTHONPATH=src python
scripts/scale_probe.py``; it takes no options.
"""

import hashlib
import resource
import time

import numpy as np

from covec.init_layers import paths_for_groups
from covec.model import WHITE, RasterizerConfig
from covec.raster import layer_backward, layer_forward

SIZE, CELL = 256, 8


def many_region_map() -> tuple[np.ndarray, np.ndarray]:
    """The (H, W, 3) image and its (H, W) label map."""
    n = SIZE // CELL
    y, x = np.mgrid[0:SIZE, 0:SIZE]
    labels = 1 + (y // CELL) * n + x // CELL
    colors = np.random.default_rng(0).uniform(0.1, 0.9, (n * n, 3))
    shade = 0.75 + 0.25 * np.sin(x / 9.0) * np.cos(y / 11.0)
    return colors[labels - 1] * shade[:, :, None], labels


def peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    image, labels = many_region_map()
    rcfg = RasterizerConfig()

    t0 = time.perf_counter()
    (paths,), _renders = paths_for_groups([labels], image, "albedo", 2.0)
    t1 = time.perf_counter()
    print(f"paths_for_groups {t1 - t0:.3f} s, {len(paths)} paths, "
          f"peak {peak_mb():.1f} MB")

    render = layer_forward(paths, WHITE, SIZE, SIZE, rcfg, with_grad=True)
    t2 = time.perf_counter()
    samples = sum(pc.sigma.size for pc in render.coverages)
    print(f"layer_forward    {t2 - t1:.3f} s, {samples} supersamples cached, "
          f"peak {peak_mb():.1f} MB")

    d_image = 2.0 * (render.image - image) / image.size
    grads = layer_backward(paths, render, d_image, rcfg)
    t3 = time.perf_counter()
    print(f"layer_backward   {t3 - t2:.3f} s, peak {peak_mb():.1f} MB")

    digest = hashlib.sha256()
    for g in grads:
        digest.update(g.d_control_points.tobytes())
        digest.update(g.d_fill_color.tobytes())
        digest.update(np.float64(g.d_opacity).tobytes())
    print(f"peak ru_maxrss {peak_mb():.1f} MB")
    print(f"gradient sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
