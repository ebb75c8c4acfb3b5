#!/usr/bin/env python3
"""Run the full vectorization pipeline on the built-in synthetic scene.

Writes the scene's target, ground-truth albedo and label images, then
vectorizes the target using those files as initialization inputs and
reports reconstruction error, per-layer path counts, and the output
files. The default settings match the release gate; --quick trades
accuracy for a fast smoke run.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from covec import pipeline
from covec.image_io import write_label_png, write_png
from covec.raster import render_composite
from covec.synthetic import make_acceptance_scene


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="demo_out", help="output directory")
    ap.add_argument("--budget", type=int, default=24, help="total path budget")
    ap.add_argument("--quick", action="store_true",
                    help="reduced epochs for a fast smoke run")
    args = ap.parse_args(argv)

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    scene = make_acceptance_scene()
    target = outdir / "target.png"
    albedo = outdir / "albedo_gt.png"
    labels = outdir / "labels.png"
    write_png(target, scene.target, bit_depth=16)
    write_png(albedo, scene.albedo, bit_depth=16)
    write_label_png(labels, scene.labels)

    quick = dict(warmup_epochs=10, joint_epochs=10, refine_rounds=2,
                 refine_iters=25) if args.quick else {}
    cfg = pipeline.RunConfig(
        input_path=str(target), output_path=str(outdir / "scene.svg"),
        mode="full", path_budget=args.budget,
        albedo_path=str(albedo), masks_path=str(labels), **quick)

    t0 = time.perf_counter()
    result = pipeline.run(cfg)
    elapsed = time.perf_counter() - t0
    doc = result.document
    recon = np.clip(render_composite(doc, "three_layer", cfg.raster_config),
                    0.0, 1.0)
    write_png(outdir / "reconstruction.png", recon)

    psnr = -10.0 * np.log10(max(result.final_mse, 1e-12))
    print(f"scene vectorized in {elapsed:.1f}s")
    print(f"  MSE {result.final_mse:.3e}  PSNR {psnr:.2f} dB")
    print(f"  paths: {len(doc.albedo)} albedo, {len(doc.shade)} shade, "
          f"{len(doc.light)} light")
    print(f"  wrote {cfg.output_path}, {cfg.effective_trace_path}, "
          f"{outdir / 'reconstruction.png'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
