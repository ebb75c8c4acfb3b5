#!/usr/bin/env python3
"""Digest of covec outputs on the three benchmark workloads.

Runs ``pipeline.run`` on ``perfbench/scenes`` seeds 0-3 in full and
albedo-only mode, each at the benchmark schedule and at a multi-round
schedule, and on seed 0 at a longer schedule whose later refinement
rounds propose the paths of the round before (``replay``), and prints
``mode/schedule/seed sha256(svg+csv) final_mse`` per run.  The ``init``
schedule has no epochs and no rounds, so its SVG and final MSE are those
of the initial paths; it also runs on ``grid``, 64 labelled regions of
equal area, whose ties fix the order init stacks paths in; on
``kmeans``, the lit scene of seed 0 with no label map or albedo, so that
both modes segment with k-means and full mode estimates its albedo; and
on ``rings``, a ring around a disk that has more pixels than the ring,
plus a label split in two, a region with a hole and label values above
255, written as a 16-bit label PNG; and on ``noisy``, the ``kmeans``
scene plus Gaussian noise of standard deviation 0.03, whose k-means
labels fall into about a thousand components, most of them below the
area floor under which init merges a component into a neighbour; and on
``disks``, the ``disk_grid_edit`` document of seed 0 rendered to an
image, with no label map or albedo, whose k-means segmentation yields
more init paths than the path budget.  On
the ``disk_grid_edit`` document of seeds 0-1 it then runs ``edit.run_edit``
at K = 1, 4 and 16, printing
``edit/kK/seed sha256(svg+report json)``, and renders the K = 16 result
with ``covec render --scale 2``, printing ``render/seed sha256(png)``,
and hashes the raw float64 bytes of ``oracle_composite``, the independent
renderer in ``tests/oracle_render.py``, of the same K = 16 document at
the benchmark's scale 4, before any clipping or quantization, printing
``reference/s4/seed sha256``, and again at supersample 1 and 3, whose
row bands end on other rows, printing ``reference/ss1/seed`` and
``reference/ss3/seed``.  It also hashes the raw float64 bytes of
``raster.render_composite``, rasterizing without coverage maps, of the
same K = 16 document: scaled 4x (control points and canvas), so that
path windows end inside the canvas, printing
``production/s4/seed sha256``; and at its own size in ``three_layer``
form and, with its shade paths retagged as illumination, in
``two_layer`` form, printing ``composite/<mode>/seed sha256``.
Then it runs ``gradcheck.run_gradcheck`` (100 probes, seed 0) and prints
``gradcheck/0 sha256`` over every (analytic, numeric) pair that
``gradcheck._agree`` compared.  Last it prints ``sd/<case> sha256`` over
the four outputs of ``geometry.batch_signed_distance`` (signed distance,
nearest edge, foot parameter and inside flag) on fixed-seed inputs:
random flattened Bezier loops against whole-canvas supersample grids at
supersample 1-6, and integer-lattice polygons (some repeated vertices)
against the half-integer grid from -2 to 14 on both axes, which holds
their vertices and edge midpoints; every case is a row-major grid, the
only input the search accepts.  Two checkouts that
print the same lines wrote byte-identical SVG, trace, report and PNG
files, rendered the same reference floats, reached the same final MSE,
checked the same gradients and computed the same signed distances, so a
refactor that must not change behaviour diffs this output before and
after.  The first line names the numpy and scipy versions, since float
results may change with them.

``scripts/output_digest.txt`` holds the lines of a checked-in commit.
With ``--check`` the script compares its lines with that file instead of
printing them, prints each line that differs, and exits 1 if any does;
for each differing run line it also prints the relative change of the
final MSE, and last the largest such change.
Usage, from any checkout (its own ``src/`` and ``tests/`` are imported,
files go to a temporary directory)::

    python3 scripts/output_digest.py > scripts/output_digest.txt
    python3 scripts/output_digest.py --check
"""

import contextlib
import dataclasses
import hashlib
import io
import itertools
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

import scenes  # noqa: E402
from oracle_render import oracle_composite  # noqa: E402
from covec import cli, edit, geometry, gradcheck, image_io, pipeline, svg_io  # noqa: E402
from covec.geometry import Polyline, batch_signed_distance, flatten_bezier  # noqa: E402
from covec.model import LayeredDocument, RasterizerConfig, VectorPath  # noqa: E402
from covec.raster import render_composite  # noqa: E402

# (warm-up epochs, joint epochs, refine rounds, iterations per round)
SCHEDULES = {"bench": {"full": (2, 2, 1, 5), "albedo_only": (1, 1, 1, 3)},
             "rounds": {"full": (2, 2, 4, 5), "albedo_only": (1, 1, 3, 3)},
             "replay": {"full": (5, 5, 5, 10), "albedo_only": (10, 10, 5, 20)},
             "init": {"full": (0, 0, 0, 1), "albedo_only": (0, 0, 0, 1)}}
BUDGET = {"full": 24, "albedo_only": 16}
EDIT_KS = (1, 4, 16)
DIGEST_FILE = ROOT / "scripts" / "output_digest.txt"


def version_line() -> str:
    return f"# numpy {np.__version__} scipy {scipy.__version__}"


def run_seeds(schedule: str) -> list:
    """The scene seeds ``schedule`` runs on, in digest order."""
    init = [0, 1, 2, 3, "grid", "kmeans", "rings", "noisy", "disks"]
    return {"replay": [0], "init": init}.get(schedule, [0, 1, 2, 3])


def grid_scene() -> tuple[np.ndarray, np.ndarray]:
    """A 64 x 64 image of an 8 x 8 grid of 8 px cells in random colours,
    and its label map: 64 regions of equal area."""
    labels = np.repeat(np.repeat(np.arange(64).reshape(8, 8), 8, axis=0), 8, axis=1)
    return np.random.default_rng(0).uniform(0.0, 1.0, (64, 3))[labels], labels


def ring_icon(size: int = 64, ss: int = 4) -> tuple[np.ndarray, np.ndarray]:
    """A dark ring (radius 20-23 px) around a blue disk (radius 20 px) on
    a yellow field, averaged over ``ss`` x ``ss`` samples per pixel, and
    its label map: field 0, ring 1, disk 2, each pixel labelled by the
    part that covers more than half of it.  The ring has fewer pixels
    than the disk it encloses."""
    c = (np.arange(size * ss) + 0.5) / ss - size / 2.0
    dist = np.hypot(c[None, :], c[:, None])
    parts = np.where(dist <= 20.0, 2, np.where(dist <= 23.0, 1, 0))
    colours = np.array([[0.95, 0.85, 0.25], [0.1, 0.1, 0.1], [0.2, 0.3, 0.9]])
    img = colours[parts].reshape(size, ss, size, ss, 3).mean(axis=(1, 3))
    share = (parts[:, :, None] == [1, 2]).reshape(size, ss, size, ss, 2).mean(axis=(1, 3))
    return img, (share > 0.5).astype(np.int64) @ [1, 2]


def rings_scene() -> tuple[np.ndarray, np.ndarray]:
    """The ring icon with label values above 255 and three more regions
    in its corners: one label over two 8 px squares of different shades,
    and a square frame around a hole that holds another region.  The
    field touches all four borders."""
    img, parts = ring_icon()
    labels = np.array([700, 300, 65535])[parts]
    for (y, x), colour in (((2, 2), [0.8, 0.2, 0.2]), ((54, 54), [0.4, 0.1, 0.1])):
        labels[y:y + 8, x:x + 8] = 256
        img[y:y + 8, x:x + 8] = colour
    labels[2:14, 50:62] = 1000
    img[2:14, 50:62] = [0.3, 0.7, 0.3]
    labels[6:10, 54:58] = 257
    img[6:10, 54:58] = [0.9, 0.9, 0.9]
    return img, labels


def noisy_scene() -> np.ndarray:
    """The lit scene of seed 0 plus Gaussian noise of standard deviation
    0.03, clipped to [0, 1].  Its k-means labels fall into 1032
    components, 848 of them below init's 5 px area floor."""
    noise = np.random.default_rng(0).normal(0.0, 0.03, (64, 64, 3))
    return np.clip(scenes.lit_scene(0)["target"] + noise, 0.0, 1.0)


def disks_scene() -> np.ndarray:
    """The ``disk_grid_edit`` document of seed 0, read back from its SVG
    as the edit lines read it, rendered at its own size and clipped to
    [0, 1]: nine disks and a shade and a light path."""
    doc = svg_io.parse_svg(svg_io.emit_svg(scenes.disk_grid_edit(0)["document"]))
    return np.clip(render_composite(doc, "three_layer", RasterizerConfig()), 0.0, 1.0)


def digest(mode: str, schedule: str, seed, work: Path) -> str:
    files = {}
    if seed in ("grid", "rings"):  # labels given; full mode estimates its albedo
        target, labels = grid_scene() if seed == "grid" else rings_scene()
        files = {"masks_path": work / "labels.png"}
        image_io.write_label_png(files["masks_path"], labels)
    elif seed == "kmeans":  # no files: k-means regions, estimated albedo
        target = scenes.lit_scene(0)["target"]
    elif seed == "noisy":  # as kmeans, with many components below the floor
        target = noisy_scene()
    elif seed == "disks":  # as kmeans, with more init paths than the budget
        target = disks_scene()
    elif mode == "full":  # the lit scene with its albedo and label map as files
        s = scenes.lit_scene(seed)
        files = {"albedo_path": work / "albedo.png", "masks_path": work / "labels.png"}
        image_io.write_png(files["albedo_path"], s["albedo"], bit_depth=16)
        image_io.write_label_png(files["masks_path"], s["labels"])
        target = s["target"]
    else:
        target = scenes.icon_scene(seed)
    image_io.write_png(work / "target.png", target, bit_depth=16)
    warmup, joint, rounds, iters = SCHEDULES[schedule][mode]
    cfg = pipeline.RunConfig(
        input_path=str(work / "target.png"), output_path=str(work / "out.svg"),
        mode=mode, path_budget=BUDGET[mode], warmup_epochs=warmup,
        joint_epochs=joint, refine_rounds=rounds, refine_iters=iters,
        **{k: str(v) for k, v in files.items()})
    result = pipeline.run(cfg)
    blob = (work / "out.svg").read_bytes() + (work / "out.csv").read_bytes()
    return f"{mode}/{schedule}/{seed} {hashlib.sha256(blob).hexdigest()} {result.final_mse!r}"


def edit_inputs(seed: int, work: Path) -> tuple[LayeredDocument, np.ndarray, np.ndarray]:
    """The disk_grid_edit document of ``seed`` and its original and
    reference renders, read back from 16-bit PNG files as in the benchmark."""
    g = scenes.disk_grid_edit(seed)
    doc = svg_io.parse_svg(svg_io.emit_svg(g["document"]))
    images = []
    for name, d in (("original", doc),
                    ("reference", svg_io.parse_svg(svg_io.emit_svg(g["reference"])))):
        img = np.clip(render_composite(d, "three_layer", RasterizerConfig()), 0.0, 1.0)
        image_io.write_png(work / f"{name}.png", img, bit_depth=16)
        images.append(image_io.read_image(work / f"{name}.png"))
    return doc, images[0], images[1]


def edit_digests(seed: int, work: Path) -> list[str]:
    doc, original, reference = edit_inputs(seed, work)
    lines = []
    svg = work / "edited.svg"
    for k in EDIT_KS:
        edited, report = edit.run_edit(doc, original, reference, edit.EditConfig(top_k=k))
        svg_io.emit_svg(edited, out=str(svg))
        blob = svg.read_bytes() + report.to_json().encode("utf-8")
        lines.append(f"edit/k{k}/{seed} {hashlib.sha256(blob).hexdigest()}")
    png = work / "render.png"
    with contextlib.redirect_stdout(io.StringIO()):  # its line names the temp dir
        rc = cli.main(["render", str(svg), "-o", str(png), "--scale", "2"])
    lines.append(f"render/{seed} rc={rc} {hashlib.sha256(png.read_bytes()).hexdigest()}")
    ref = oracle_composite(edited, scale=4)
    lines.append(f"reference/s4/{seed} {hashlib.sha256(ref.tobytes()).hexdigest()}")
    for ss in (1, 3):
        ref = oracle_composite(edited, RasterizerConfig(supersample=ss), scale=4)
        lines.append(f"reference/ss{ss}/{seed} {hashlib.sha256(ref.tobytes()).hexdigest()}")
    return lines + composite_digests(edited, seed)


def composite_digests(edited: LayeredDocument, seed: int) -> list[str]:
    """The production/ and composite/ lines of the K = 16 edit result."""
    big = edited.copy()
    big.width, big.height = 4 * edited.width, 4 * edited.height
    for p in big.all_paths():
        p.control_points = 4 * p.control_points
    img = render_composite(big, "three_layer", RasterizerConfig())
    lines = [f"production/s4/{seed} {hashlib.sha256(img.tobytes()).hexdigest()}"]
    lit = LayeredDocument(edited.width, edited.height, albedo=edited.albedo,
                          illumination=[dataclasses.replace(p, layer_tag="illumination")
                                        for p in edited.shade])
    for mode, d in (("three_layer", edited), ("two_layer", lit)):
        img = render_composite(d, mode, RasterizerConfig())
        lines.append(f"composite/{mode}/{seed} {hashlib.sha256(img.tobytes()).hexdigest()}")
    return lines


def gradcheck_digest() -> str:
    pairs = []
    agree = gradcheck._agree

    def recording(analytic: float, numeric: float) -> bool:
        pairs.append((analytic, numeric))
        return agree(analytic, numeric)

    gradcheck._agree = recording
    try:
        gradcheck.run_gradcheck(gradcheck.GradCheckConfig(n_probes=100, seed=0))
    finally:
        gradcheck._agree = agree
    blob = repr([(float(a), float(n)) for a, n in pairs]).encode("utf-8")
    return f"gradcheck/0 {hashlib.sha256(blob).hexdigest()}"


def _bezier_case(seed: int, ss: int) -> tuple[Polyline, np.ndarray]:
    rng = np.random.default_rng(seed)
    size = int(rng.integers(4, 40))
    n_seg = int(rng.integers(2, 7))
    ctrl = rng.uniform(-0.2 * size, 1.2 * size, (3 * n_seg, 2))
    path = VectorPath(control_points=ctrl, fill_color=np.zeros(3), opacity=1.0,
                      layer_tag="albedo")
    tolerance = geometry.FLATTEN_TOLERANCE
    geometry.FLATTEN_TOLERANCE = float(rng.choice([0.02, 0.1, 1.0]))
    try:
        poly = flatten_bezier(path, RasterizerConfig())
    finally:
        geometry.FLATTEN_TOLERANCE = tolerance
    coords = (np.arange(size * ss) + 0.5) / ss
    gy, gx = np.meshgrid(coords, coords, indexing="ij")
    return poly, np.stack([gx.ravel(), gy.ravel()], axis=1)


def _lattice_case(seed: int) -> tuple[Polyline, np.ndarray]:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 16))
    verts = rng.integers(0, 12, (n, 2)).astype(np.float64)
    verts = np.repeat(verts, np.where(rng.random(n) < 0.2, 2, 1), axis=0)
    if np.ptp(verts, axis=0).max() == 0.0:
        verts[0] += 1.0
    half = np.arange(-2.0, 14.5, 0.5)  # holds every vertex and edge midpoint
    gy, gx = np.meshgrid(half, half, indexing="ij")
    return Polyline(vertices=verts), np.stack([gx.ravel(), gy.ravel()], axis=1)


def sd_digests() -> list[str]:
    cases = {f"bezier/ss{ss}/{seed}": _bezier_case(seed, ss)
             for ss in range(1, 7) for seed in range(3)}
    cases.update({f"lattice/{seed}": _lattice_case(seed) for seed in range(6)})
    lines = []
    for name, (poly, pts) in cases.items():
        blob = b"".join(out.tobytes() for out in batch_signed_distance(poly, pts))
        lines.append(f"sd/{name} {hashlib.sha256(blob).hexdigest()}")
    return lines


def all_lines():
    yield version_line()
    with tempfile.TemporaryDirectory() as tmp:
        for schedule in SCHEDULES:
            for mode in ("full", "albedo_only"):
                for seed in run_seeds(schedule):
                    yield digest(mode, schedule, seed, Path(tmp))
        for seed in range(2):
            yield from edit_digests(seed, Path(tmp))
    yield gradcheck_digest()
    yield from sd_digests()


def mse_change(want: str, got: str) -> float | None:
    """Relative change of the final MSE between two lines of one
    ``mode/schedule/seed`` run, or None for any other pair of lines."""
    w, g = want.split(), got.split()
    if (len(w) != 3 or len(g) != 3 or w[0] != g[0]
            or not w[0].startswith(("full/", "albedo_only/"))):
        return None
    return float(g[2]) / float(w[2]) - 1.0


def main(argv: list[str]) -> int:
    if argv not in ([], ["--check"]):
        print("usage: output_digest.py [--check]", file=sys.stderr)
        return 2
    if not argv:
        for line in all_lines():
            print(line, flush=True)
        return 0
    want = DIGEST_FILE.read_text().splitlines()
    got = list(all_lines())
    differing = 0
    largest = None
    for i, (w, g) in enumerate(itertools.zip_longest(want, got, fillvalue="(none)"), 1):
        if w != g:
            differing += 1
            print(f"line {i} differs\n  checked in: {w}\n  now:        {g}")
            change = mse_change(w, g)
            if change is not None:
                print(f"  final MSE:  {change:+.2e} relative")
                if largest is None or abs(change) > abs(largest[0]):
                    largest = (change, w.split()[0])
    print(f"{differing} of {len(want)} lines differ from {DIGEST_FILE.name}")
    if largest is not None:
        print(f"largest relative final-MSE change: {largest[0]:+.2e} ({largest[1]})")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
