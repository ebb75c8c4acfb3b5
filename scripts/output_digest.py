#!/usr/bin/env python3
"""Digest of covec outputs on the three benchmark workloads.

Runs ``pipeline.run`` on ``perfbench/scenes`` seeds 0-3 in full and
albedo-only mode, each at the benchmark schedule and at a multi-round
schedule, and prints ``mode/schedule/seed sha256(svg+csv) final_mse`` per
run.  On the ``disk_grid_edit`` document of seeds 0-1 it then runs
``edit.run_edit`` at K = 1, 4 and 16, printing
``edit/kK/seed sha256(svg+report json)``, and renders the K = 16 result
with ``covec render --scale 2``, printing ``render/seed sha256(png)``,
and hashes the raw float64 bytes of ``svg_io.reference_composite`` of the
same K = 16 document at the benchmark's scale 4, before any clipping or
quantization, printing ``reference/s4/seed sha256``, and again at
supersample 1 and 3, whose row bands end on other rows, printing
``reference/ss1/seed`` and ``reference/ss3/seed``.
Then it runs ``gradcheck.run_gradcheck`` (100 probes, seed 0) and prints
``gradcheck/0 sha256`` over every (analytic, numeric) pair that
``gradcheck._agree`` compared.  Last it prints ``sd/<case> sha256`` over
the four outputs of ``geometry.batch_signed_distance`` on fixed-seed
inputs: random flattened Bezier loops against whole-canvas supersample
grids at supersample 1-6, and integer-lattice polygons (some repeated
vertices) against a permutation of their vertices, edge midpoints, a
half-integer lattice, dense clusters and far points.  Two checkouts that
print the same lines wrote byte-identical SVG, trace, report and PNG
files, rendered the same reference floats, reached the same final MSE,
checked the same gradients and computed the same signed distances, so a
refactor that must not change behaviour diffs this output before and
after.  Usage,
from any checkout (its own ``src/`` is imported, files go to a temporary
directory): ``python3 scripts/output_digest.py``.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import scenes  # noqa: E402
from covec import cli, edit, gradcheck, image_io, pipeline, svg_io  # noqa: E402
from covec.geometry import Polyline, batch_signed_distance, flatten_bezier  # noqa: E402
from covec.model import RasterizerConfig, VectorPath  # noqa: E402
from covec.raster import render_composite  # noqa: E402

# (warm-up epochs, joint epochs, refine rounds, iterations per round)
SCHEDULES = {"bench": {"full": (2, 2, 1, 5), "albedo_only": (1, 1, 1, 3)},
             "rounds": {"full": (2, 2, 4, 5), "albedo_only": (1, 1, 3, 3)}}
BUDGET = {"full": 24, "albedo_only": 16}
EDIT_KS = (1, 4, 16)


def digest(mode: str, schedule: str, seed: int, work: Path) -> str:
    files = {}
    if mode == "full":  # the lit scene with its albedo and label map as files
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


def edit_digests(seed: int, work: Path) -> list[str]:
    g = scenes.disk_grid_edit(seed)
    doc = svg_io.parse_svg(svg_io.emit_svg(g["document"]))
    images = {}
    # original and reference go through 16-bit PNG files, as in the benchmark
    for name, d in (("original", doc),
                    ("reference", svg_io.parse_svg(svg_io.emit_svg(g["reference"])))):
        img = np.clip(render_composite(d, "three_layer", RasterizerConfig()), 0.0, 1.0)
        image_io.write_png(work / f"{name}.png", img, bit_depth=16)
        images[name] = image_io.read_image(work / f"{name}.png")
    lines = []
    svg = work / "edited.svg"
    for k in EDIT_KS:
        edited, report = edit.run_edit(doc, images["original"], images["reference"],
                                       edit.EditConfig(top_k=k))
        svg_io.emit_svg(edited, out=str(svg))
        blob = svg.read_bytes() + report.to_json().encode("utf-8")
        lines.append(f"edit/k{k}/{seed} {hashlib.sha256(blob).hexdigest()}")
    png = work / "render.png"
    with contextlib.redirect_stdout(io.StringIO()):  # its line names the temp dir
        rc = cli.main(["render", str(svg), "-o", str(png), "--scale", "2"])
    lines.append(f"render/{seed} rc={rc} {hashlib.sha256(png.read_bytes()).hexdigest()}")
    ref = svg_io.reference_composite(edited, scale=4)
    lines.append(f"reference/s4/{seed} {hashlib.sha256(ref.tobytes()).hexdigest()}")
    for ss in (1, 3):
        ref = svg_io.reference_composite(edited, RasterizerConfig(supersample=ss), scale=4)
        lines.append(f"reference/ss{ss}/{seed} {hashlib.sha256(ref.tobytes()).hexdigest()}")
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
    tol = float(rng.choice([0.02, 0.1, 1.0]))
    poly = flatten_bezier(path, RasterizerConfig(flatten_tolerance=tol))
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
    mids = 0.5 * (verts + np.roll(verts, -1, axis=0))
    half = np.arange(-2.0, 14.5, 0.5)
    gy, gx = np.meshgrid(half, half, indexing="ij")
    cluster = rng.uniform(0, 12, 2) + rng.uniform(0, 0.5, (int(rng.integers(0, 200)), 2))
    far = rng.uniform(-200, 200, (int(rng.integers(0, 20)), 2))
    pts = np.concatenate([verts, mids, np.stack([gx.ravel(), gy.ravel()], axis=1),
                          cluster, far])
    return Polyline(vertices=verts), rng.permutation(pts)


def sd_digests() -> list[str]:
    cases = {f"bezier/ss{ss}/{seed}": _bezier_case(seed, ss)
             for ss in range(1, 7) for seed in range(3)}
    cases.update({f"lattice/{seed}": _lattice_case(seed) for seed in range(6)})
    lines = []
    for name, (poly, pts) in cases.items():
        blob = b"".join(out.tobytes() for out in batch_signed_distance(poly, pts))
        lines.append(f"sd/{name} {hashlib.sha256(blob).hexdigest()}")
    return lines


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for schedule in SCHEDULES:
            for mode in ("full", "albedo_only"):
                for seed in range(4):
                    print(digest(mode, schedule, seed, Path(tmp)), flush=True)
        for seed in range(2):
            for line in edit_digests(seed, Path(tmp)):
                print(line, flush=True)
    print(gradcheck_digest(), flush=True)
    for line in sd_digests():
        print(line, flush=True)
