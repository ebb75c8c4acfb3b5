"""Shared fixtures and scene helpers for the test suite."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from covec.geometry import bernstein3
from covec.model import GradientBuffer, RasterizerConfig, VectorPath
from covec.refine import circle_control_points


def eval_cubic(quad, t):
    """Evaluate a cubic Bezier given its (4, 2) control quad at t."""
    return bernstein3(t) @ quad


def zero_gradient(path):
    """All-zero gradient buffer shaped for one path."""
    return GradientBuffer(d_control_points=np.zeros_like(path.control_points),
                          d_fill_color=np.zeros(3), d_opacity=0.0)


def polygon_control_points(corners):
    """Closed cubic loop of straight segments through the (n, 2) corners,
    each with handles at a third and two thirds of its chord: adaptive
    flattening turns it back into exactly these vertices."""
    a = np.asarray(corners, dtype=np.float64)
    b = np.roll(a, -1, axis=0)
    return np.stack([a, a + (b - a) / 3.0, a + 2.0 * (b - a) / 3.0], axis=1).reshape(-1, 2)


def square_control_points(x0, y0, x1, y1):
    """Closed 4-segment cubic tracing an axis-aligned rectangle."""
    return polygon_control_points([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])


def square_path(x0, y0, x1, y1, color=(0.5, 0.5, 0.5), opacity=1.0,
                tag="albedo"):
    return VectorPath(control_points=square_control_points(x0, y0, x1, y1),
                      fill_color=np.asarray(color, dtype=np.float64),
                      opacity=opacity, layer_tag=tag)


def disk_path(cx, cy, r, color=(0.5, 0.5, 0.5), opacity=1.0, tag="albedo"):
    return VectorPath(control_points=circle_control_points((cx, cy), r),
                      fill_color=np.asarray(color, dtype=np.float64),
                      opacity=opacity, layer_tag=tag)


def random_path(rng, width, height, tag="albedo", color_hi=0.95):
    center = rng.uniform([4.0, 4.0], [width - 4.0, height - 4.0])
    radius = rng.uniform(2.5, min(width, height) / 3.0)
    ctrl = circle_control_points(center, radius)
    ctrl = ctrl + rng.normal(0.0, 0.4, ctrl.shape)
    return VectorPath(control_points=ctrl,
                      fill_color=rng.uniform(0.05, color_hi, 3),
                      opacity=float(rng.uniform(0.2, 0.95)), layer_tag=tag)


def window_samples(pc, s):
    """The row-major supersample grid path_coverage builds for pc's window."""
    x0, y0, x1, y1 = pc.window
    gx, gy = np.meshgrid(x0 + (np.arange((x1 - x0) * s) + 0.5) / s,
                         y0 + (np.arange((y1 - y0) * s) + 0.5) / s)
    return np.stack([gx.ravel(), gy.ravel()], axis=1)


def dotted_halves(piece=1):
    """A 40 x 40 image (init's area floor is 2 px) of two flat halves, each
    darkened on isolated pixels, the left one also on one horizontal run of
    ``piece`` px; and its label map, one label per half."""
    img = np.empty((40, 40, 3))
    img[:, :20] = [0.8, 0.5, 0.3]
    img[:, 20:] = [0.3, 0.6, 0.8]
    img[1::4, 1::4] *= 0.5
    img[2, 2:2 + piece] *= 0.5
    labels = np.zeros((40, 40), dtype=int)
    labels[:, 20:] = 1
    return img, labels


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def rcfg():
    return RasterizerConfig()


@pytest.fixture
def fixed_rcfg():
    # uniform-parameter flattening keeps finite differences smooth
    return RasterizerConfig(flatten_mode="fixed")


def load_script(name):
    """scripts/<name>.py, loaded as a module.  A script may put src/ and
    perfbench/ on sys.path; the path is restored after loading."""
    script = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, script)
    module = importlib.util.module_from_spec(spec)
    saved = list(sys.path)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


@pytest.fixture(scope="session")
def digest_script():
    """scripts/output_digest.py, loaded as a module."""
    return load_script("output_digest")


@pytest.fixture(scope="session")
def checked_in_digest(digest_script):
    """The lines of scripts/output_digest.txt.  Float results may change
    with numpy and scipy, so a test using them skips, naming both
    versions, when the file was made under other versions."""
    lines = digest_script.DIGEST_FILE.read_text().splitlines()
    if lines[0] != digest_script.version_line():
        pytest.skip(f"output_digest.txt was made under {lines[0][2:]}, "
                    f"this is {digest_script.version_line()[2:]}")
    return lines
