"""Command-line entry points.

Subcommands: vectorize (raster to layered SVG), render (SVG back to a
raster with the optimizer's rasterizer), edit (controlled recoloring
against a reference image), gradcheck (finite-difference validation of
the rasterizer gradients), metrics (MSE/PSNR between two images).

Exit codes: 0 success, 1 gradcheck failure, 2 usage or unreadable/invalid
input, 3 initialization failure, 4 SVG parse failure.  Every command that
writes files passes its outputs through ``pipeline.check_outputs`` before
any work (vectorize does so by constructing ``RunConfig``).
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

import numpy as np

from .edit import EditConfig, mse, run_edit
from .image_io import image_format, read_image, write_image
from .init_layers import InitError
from .model import RasterizerConfig
from .pipeline import RunConfig, check_outputs, run
from .svg_io import SvgParseError, emit_svg, parse_svg, reference_composite

logger = logging.getLogger(__name__)


def _read_svg(path: str):
    with open(path, "rb") as fh:
        return parse_svg(fh.read())


def cmd_vectorize(args: argparse.Namespace) -> int:
    cfg = RunConfig(
        input_path=args.input,
        output_path=args.output,
        mode=args.mode.replace("-", "_"),
        path_budget=args.paths,
        seed=args.seed,
        albedo_path=args.albedo,
        masks_path=args.masks,
        trace_path=args.trace,
        dp_epsilon=args.dp_eps,
        aa_sigma=args.aa_sigma,
        warmup_epochs=args.warmup,
        joint_epochs=args.joint,
        refine_rounds=args.rounds,
        refine_iters=args.iters,
        lambda_overlap=args.lambda_overlap,
        delta_overlap=args.delta_overlap,
        penalty_sign=args.penalty.replace("-", "_"),
    )
    result = run(cfg)
    doc = result.document
    print(f"wrote {cfg.output_path} ({len(doc.albedo)} albedo / "
          f"{len(doc.shade)} shade / {len(doc.light)} light paths), "
          f"trace {cfg.effective_trace_path}, mse {result.final_mse:.6f}")
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    config = RasterizerConfig(aa_sigma=args.aa_sigma)
    image_format(args.output)
    check_outputs((args.output,), (args.input,))
    doc = _read_svg(args.input)
    image = reference_composite(doc, config, scale=args.scale)
    write_image(args.output, np.clip(image, 0.0, 1.0))
    print(f"wrote {args.output} ({image.shape[1]}x{image.shape[0]})")
    return 0


def cmd_edit(args: argparse.Namespace) -> int:
    if args.k < 1:
        raise ValueError("--k must be a positive integer")
    cfg = EditConfig(tau_diff=args.tau, gamma_iou=args.gamma,
                     delta_color=args.delta_color, top_k=args.k)
    report_path = args.report
    if report_path is None:
        report_path = str(Path(args.output).with_suffix(".json"))
    check_outputs((args.output, report_path),
                  (args.input, args.original, args.reference))
    doc = _read_svg(args.input)
    original = read_image(args.original)
    reference = read_image(args.reference)
    edited, report = run_edit(doc, original, reference, cfg)
    emit_svg(edited, out=args.output)
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
    print(f"edited {len(report.selected)} of {report.n_candidates} candidate "
          f"paths (k={args.k}); mse {report.mse_before:.6f} -> "
          f"{report.mse_after:.6f}; report {report_path}")
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    from .gradcheck import GradCheckConfig, run_gradcheck

    report = run_gradcheck(GradCheckConfig(n_probes=args.probes,
                                           seed=args.seed))
    print(report.summary())
    for failure in report.failures:
        print(f"  probe {failure.probe} {failure.layer_tag} "
              f"path {failure.path_index} {failure.kind}{failure.coord}: "
              f"analytic {failure.analytic:.6g} vs numeric {failure.numeric:.6g}")
    return 0 if report.passed else 1


def cmd_metrics(args: argparse.Namespace) -> int:
    err = mse(read_image(args.image_a), read_image(args.image_b))
    psnr = float("inf") if err == 0 else -10.0 * np.log10(err)
    print(f"mse {err:.8f}")
    print(f"psnr {psnr:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covec",
        description="Illumination-aware image vectorization: albedo, shade "
                    "and light vector layers from a raster image.")
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("vectorize",
                       help="decompose a raster image into a layered SVG")
    v.add_argument("input", help="input raster image (.png/.ppm)")
    v.add_argument("-o", "--output", required=True, help="output SVG path")
    v.add_argument("--paths", type=int, default=None,
                   help="total path budget (default: 64 full, 16 albedo-only)")
    v.add_argument("--mode", choices=["full", "albedo-only"], default="full",
                   help="full three-layer decomposition or single albedo "
                        "layer (default: full)")
    v.add_argument("--seed", type=int, default=0,
                   help="seed for the fallback segmentation (default: 0)")
    v.add_argument("--albedo", metavar="FILE", default=None,
                   help="albedo estimate image; replaces the built-in fallback")
    v.add_argument("--masks", metavar="FILE", default=None,
                   help="integer label-map image; replaces k-means "
                        "segmentation")
    v.add_argument("--dp-eps", type=float, default=2.0,
                   help="contour simplification tolerance in px (default: 2.0)")
    v.add_argument("--aa-sigma", type=float, default=1.0,
                   help="rasterizer smoothing width in px (default: 1.0)")
    v.add_argument("--warmup", type=int, default=50,
                   help="structural warm-up epochs (default: 50)")
    v.add_argument("--joint", type=int, default=50,
                   help="joint reconstruction epochs (default: 50)")
    v.add_argument("--rounds", type=int, default=5,
                   help="refinement rounds (default: 5)")
    v.add_argument("--iters", type=int, default=100,
                   help="optimizer iterations per refinement round "
                        "(default: 100)")
    v.add_argument("--lambda", dest="lambda_overlap", type=float,
                   default=1e-8, metavar="WEIGHT",
                   help="overlap penalty weight (default: 1e-8)")
    v.add_argument("--delta-overlap", type=float, default=0.6,
                   help="overlap penalty threshold (default: 0.6)")
    v.add_argument("--penalty", choices=["paper-literal", "overlap"],
                   default="overlap",
                   help="overlap penalty direction (default: overlap)")
    v.add_argument("--trace", metavar="FILE", default=None,
                   help="trace CSV path (default: output with .csv suffix)")
    v.set_defaults(func=cmd_vectorize)

    r = sub.add_parser("render", help="rasterize an SVG document")
    r.add_argument("input", help="input SVG")
    r.add_argument("-o", "--output", required=True,
                   help="output raster (.png/.ppm)")
    r.add_argument("--scale", type=int, default=1,
                   help="integer output scale factor (default: 1)")
    r.add_argument("--aa-sigma", type=float, default=1.0,
                   help="rasterizer smoothing width in px (default: 1.0)")
    r.set_defaults(func=cmd_render)

    e = sub.add_parser("edit",
                       help="recolor albedo paths toward a reference image")
    e.add_argument("input", help="input SVG document")
    e.add_argument("original", help="raster the document reconstructs")
    e.add_argument("reference", help="edited reference raster")
    e.add_argument("-o", "--output", required=True, help="edited SVG path")
    e.add_argument("--report", metavar="FILE", default=None,
                   help="JSON report path (default: output with .json suffix)")
    e.add_argument("--k", type=int, default=1,
                   help="number of paths to recolor (default: 1)")
    e.add_argument("--tau", type=float, default=0.1,
                   help="edit-mask difference threshold (default: 0.1)")
    e.add_argument("--gamma", type=float, default=0.02,
                   help="candidate IoU floor (default: 0.02)")
    e.add_argument("--delta-color", type=float, default=0.25,
                   help="candidate mean-color shift bound (default: 0.25)")
    e.set_defaults(func=cmd_edit)

    g = sub.add_parser("gradcheck",
                       help="compare analytic gradients to finite differences")
    g.add_argument("--probes", type=int, default=100,
                   help="number of random scenes (default: 100)")
    g.add_argument("--seed", type=int, default=0,
                   help="probe generator seed (default: 0)")
    g.set_defaults(func=cmd_gradcheck)

    m = sub.add_parser("metrics", help="print MSE and PSNR between two images")
    m.add_argument("image_a")
    m.add_argument("image_b")
    m.set_defaults(func=cmd_metrics)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s",
                        stream=sys.stderr)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SvgParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except InitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
