#!/usr/bin/env python3
"""Digest of covec outputs on the three benchmark workloads.

Runs ``pipeline.run`` on ``perfbench/scenes`` seeds 0-3 in full and
albedo-only mode, each at the benchmark schedule and at a multi-round
schedule, and prints ``mode/schedule/seed sha256(svg+csv) final_mse`` per
run.  On the ``disk_grid_edit`` document of seeds 0-1 it then runs
``edit.run_edit`` at K = 1, 4 and 16, printing
``edit/kK/seed sha256(svg+report json)``, and renders the K = 16 result
with ``covec render --scale 2``, printing ``render/seed sha256(png)``.
Last it runs ``gradcheck.run_gradcheck`` (100 probes, seed 0) and prints
``gradcheck/0 sha256`` over every (analytic, numeric) pair that
``gradcheck._agree`` compared.  Two checkouts that print the same lines
wrote byte-identical SVG, trace, report and PNG files, reached the same
final MSE and checked the same gradients, so a refactor that
must not change behaviour diffs this output before and after.  Usage,
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
from covec.model import RasterizerConfig  # noqa: E402
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
