#!/usr/bin/env python3
"""Run the full vectorization pipeline on the built-in synthetic scene.

Writes the scene's target, ground-truth albedo and label images, then
vectorizes the target using those files as initialization inputs and
reports reconstruction error, per-layer path counts, and the output
files. It also scores the decomposition against the scene's exact
layers: each layer's PSNR, rendered alone over its blend's identity
against its exact layer image, and the IoU of the shade and light
supports with the scene's shadow and highlight masks. A layer's
support is the pixels where it departs from that identity, averaged over
channels, by more than half the exact layer's largest departure.
The default settings match the release gate; --quick trades accuracy
for a fast smoke run.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from covec import pipeline
from covec.image_io import write_label_png, write_png
from covec.raster import layer_background, layer_forward, render_composite
from covec.synthetic import make_acceptance_scene


def psnr(mse: float) -> float:
    return -10.0 * np.log10(max(mse, 1e-12))


def layer_fidelity(doc, scene, rcfg) -> tuple[dict, dict]:
    """Each layer's PSNR against the scene's exact layer, and the IoU of
    the shade and light supports with the shadow and highlight masks,
    both by layer tag."""
    masks = {"shade": scene.shadow_mask, "light": scene.highlight_mask}
    psnrs, ious = {}, {}
    for tag in ("albedo", "shade", "light"):
        identity = layer_background(tag)
        image = layer_forward(doc.layer(tag), identity, doc.width, doc.height,
                              rcfg).image
        exact = getattr(scene, tag)
        psnrs[tag] = psnr(float(np.mean((image - exact) ** 2)))
        if tag in masks:
            step = np.abs(exact - identity).mean(axis=2).max()
            support = np.abs(image - identity).mean(axis=2) > 0.5 * step
            mask = masks[tag]
            ious[tag] = (support & mask).sum() / max((support | mask).sum(), 1)
    return psnrs, ious


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

    print(f"scene vectorized in {elapsed:.1f}s")
    print(f"  MSE {result.final_mse:.3e}  PSNR {psnr(result.final_mse):.2f} dB")
    print(f"  paths: {len(doc.albedo)} albedo, {len(doc.shade)} shade, "
          f"{len(doc.light)} light")
    psnrs, ious = layer_fidelity(doc, scene, cfg.raster_config)
    print("  layer PSNR: " + ", ".join(f"{tag} {v:.2f} dB" for tag, v in psnrs.items()))
    print(f"  support IoU: shade/shadow {ious['shade']:.3f}, "
          f"light/highlight {ious['light']:.3f}")
    print(f"  wrote {cfg.output_path}, {cfg.effective_trace_path}, "
          f"{outdir / 'reconstruction.png'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
