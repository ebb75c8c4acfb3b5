#!/usr/bin/env python3
"""Digest of pipeline.run outputs on the benchmark scenes.

Runs ``pipeline.run`` on ``perfbench/scenes`` seeds 0-3 in full and
albedo-only mode, each at the benchmark schedule and at a multi-round
schedule, and prints ``mode/schedule/seed sha256(svg+csv) final_mse`` per
run.  Two checkouts that print the same lines wrote byte-identical SVG and trace
files and reached the same final MSE, so a refactor that must not change
behaviour diffs this output before and after.  Usage, from any checkout
(its own ``src/`` is imported, files go to a temporary directory):
``python3 scripts/output_digest.py``.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import scenes  # noqa: E402
from covec import image_io, pipeline  # noqa: E402

# (warm-up epochs, joint epochs, refine rounds, iterations per round)
SCHEDULES = {"bench": {"full": (2, 2, 1, 5), "albedo_only": (1, 1, 1, 3)},
             "rounds": {"full": (2, 2, 4, 5), "albedo_only": (1, 1, 3, 3)}}
BUDGET = {"full": 24, "albedo_only": 16}


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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for schedule in SCHEDULES:
            for mode in ("full", "albedo_only"):
                for seed in range(4):
                    print(digest(mode, schedule, seed, Path(tmp)), flush=True)
