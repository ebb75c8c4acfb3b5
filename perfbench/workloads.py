"""The benchmark's workloads: input generation, one timed operation, checks.

Every workload drives covec only through its public entry points:
``pipeline.run``, ``edit.run_edit``, ``svg_io.parse_svg``/``emit_svg`` and
``cli.main(["render", ...])``.  Inputs are generated from the seed during
set-up and handed to covec as files.  An operation returns the wall time
of each of its consecutive sections (``vectorize``; or ``edit.*`` and
``render``).  Checks run after each operation, outside the timed region,
and return a list of failure messages.
"""

from __future__ import annotations

import math
import time
from pathlib import Path

import numpy as np

import scenes
from covec import cli, edit, image_io, pipeline, svg_io
from covec.model import RasterizerConfig
from covec.raster import render_composite

# Same tolerance as the dual-renderer file round trip in the acceptance
# suite: 8-bit quantization plus the renderers' parity slack.
RENDER_TOL = 2.0 / 255.0 + 2e-3


def _roundtrip(svg: bytes, label: str):
    """Parse an emitted SVG; returns (document or None, failure messages)."""
    try:
        doc = svg_io.parse_svg(svg)
    except svg_io.SvgParseError as exc:
        return None, [f"{label}: SVG does not parse: {exc}"]
    if svg_io.emit_svg(doc) != svg:
        return doc, [f"{label}: emit(parse(svg)) is not byte-identical"]
    return doc, []


def _psnr(mse: float) -> float:
    return -10.0 * math.log10(mse)


class Vectorize:
    """``pipeline.run`` on a cycle of seeded scenes, one scene per op.

    A run covers ``n_scenes`` distinct scenes drawn from its seed, so a
    run's median time and mean quality average over input jitter; the
    cycle repeats until the run's time is up, and every repeat must
    reproduce the first result byte for byte.
    """

    def __init__(self, mode: str, budget: int, schedule, tiny_schedule,
                 n_scenes: int, mse_ceiling: float, hints: bool):
        self.mode = mode
        self.budget = budget
        self.schedule = schedule  # warm-up, joint, rounds, iters per round
        self.tiny_schedule = tiny_schedule
        self.n_scenes = n_scenes
        self.mse_ceiling = mse_ceiling
        self.hints = hints  # label map and albedo supplied as files

    def scene_count(self, tiny: bool) -> int:
        return 1 if tiny else self.n_scenes

    def generate(self, seed: int, inputs: Path, tiny: bool) -> None:
        for j in range(self.scene_count(tiny)):
            sub = seed * 100 + j  # seed 0, scene 0 is the reference scene
            if self.hints:
                s = scenes.lit_scene(sub)
                image_io.write_png(inputs / f"target{j}.png", s["target"], bit_depth=16)
                image_io.write_png(inputs / f"albedo{j}.png", s["albedo"], bit_depth=16)
                image_io.write_label_png(inputs / f"labels{j}.png", s["labels"])
            else:
                image_io.write_png(inputs / f"target{j}.png", scenes.icon_scene(sub),
                                   bit_depth=16)

    def start(self, inputs: Path, outputs: Path, tiny: bool) -> None:
        warmup, joint, rounds, iters = self.tiny_schedule if tiny else self.schedule
        self.configs = []
        for j in range(self.scene_count(tiny)):
            cfg = pipeline.RunConfig(
                input_path=str(inputs / f"target{j}.png"),
                output_path=str(outputs / f"scene{j}.svg"),
                mode=self.mode, path_budget=self.budget,
                albedo_path=str(inputs / f"albedo{j}.png") if self.hints else None,
                masks_path=str(inputs / f"labels{j}.png") if self.hints else None,
                warmup_epochs=warmup, joint_epochs=joint,
                refine_rounds=rounds, refine_iters=iters)
            self.configs.append(cfg)
        self.first: dict[int, tuple[float, bytes]] = {}
        self.quality: dict[int, float] = {}

    def op(self, i: int):
        cfg = self.configs[i % len(self.configs)]
        t0 = time.perf_counter()
        result = pipeline.run(cfg)
        return {"vectorize": time.perf_counter() - t0}, result

    def check(self, i: int, result) -> list[str]:
        j = i % len(self.configs)
        label = f"scene {j}"
        svg = Path(self.configs[j].output_path).read_bytes()
        parsed, errors = _roundtrip(svg, label)
        n_paths = len(result.document.all_paths())
        if parsed is not None and len(parsed.all_paths()) != n_paths:
            errors.append(f"{label}: SVG holds {len(parsed.all_paths())} paths, "
                          f"the result {n_paths}")
        if n_paths > self.budget:
            errors.append(f"{label}: {n_paths} paths exceed the budget {self.budget}")
        mse = result.final_mse
        if not (math.isfinite(mse) and 0.0 < mse < self.mse_ceiling):
            errors.append(f"{label}: final MSE {mse!r} outside (0, {self.mse_ceiling})")
        if j in self.first and self.first[j] != (mse, svg):
            errors.append(f"{label}: repeat run differs from the first (nondeterminism)")
        self.first.setdefault(j, (mse, svg))
        if not errors:
            self.quality.setdefault(j, mse)
        return errors

    def report(self) -> dict:
        """Named quality figure and the JSON quality metric."""
        mses = list(self.quality.values())
        if not mses:
            return {"final_mse": None, "psnr_db": None}
        return {"final_mse": float(np.mean(mses)),
                "psnr_db": float(np.mean([_psnr(m) for m in mses]))}


class EditRender:
    """Recolour sweep over K = 1, 2, 4, 8, 16, then ``covec render``."""

    KS = (1, 2, 4, 8, 16)
    TINY_KS = (1, 16)

    def scene_count(self, tiny: bool) -> int:
        return 1

    def generate(self, seed: int, inputs: Path, tiny: bool) -> None:
        g = scenes.disk_grid_edit(seed)
        rcfg = RasterizerConfig()
        svg = svg_io.emit_svg(g["document"])
        (inputs / "doc.svg").write_bytes(svg)
        # Render from the parsed documents so the images match exactly
        # what covec sees after reading the SVG (colours are quantized).
        for name, doc in (("original", svg_io.parse_svg(svg)),
                          ("reference", svg_io.parse_svg(
                              svg_io.emit_svg(g["reference"])))):
            img = np.clip(render_composite(doc, "three_layer", rcfg), 0.0, 1.0)
            image_io.write_png(inputs / f"{name}.png", img, bit_depth=16)

    def start(self, inputs: Path, outputs: Path, tiny: bool) -> None:
        self.inputs = inputs
        self.outputs = outputs
        self.ks = self.TINY_KS if tiny else self.KS
        self.scale = 2 if tiny else 4
        self.first_png: bytes | None = None
        self.mse_after: float | None = None

    def _svg_out(self, k: int) -> Path:
        return self.outputs / f"edited_k{k}.svg"

    def op(self, i: int):
        png = self.outputs / "render.png"
        times = {}
        t0 = time.perf_counter()
        doc = svg_io.parse_svg((self.inputs / "doc.svg").read_bytes())
        original = image_io.read_image(self.inputs / "original.png")
        reference = image_io.read_image(self.inputs / "reference.png")
        t1 = time.perf_counter()
        times["edit.read"] = t1 - t0
        reports = []
        for k in self.ks:
            edited, report = edit.run_edit(doc, original, reference,
                                           edit.EditConfig(top_k=k))
            svg_io.emit_svg(edited, out=str(self._svg_out(k)))
            reports.append(report)
            t0, t1 = t1, time.perf_counter()
            times[f"edit.k{k}"] = t1 - t0
        rc = cli.main(["render", str(self._svg_out(self.ks[-1])), "-o", str(png),
                       "--scale", str(self.scale)])
        times["render"] = time.perf_counter() - t1
        return times, (doc, reports, rc)

    def check(self, i: int, payload) -> list[str]:
        doc, reports, rc = payload
        errors = []
        n_paths = len(doc.all_paths())
        prev = math.inf
        for k, report in zip(self.ks, reports):
            svg = self._svg_out(k).read_bytes()
            parsed, rt_errors = _roundtrip(svg, f"K={k}")
            errors += rt_errors
            if parsed is not None and len(parsed.all_paths()) != n_paths:
                errors.append(f"K={k}: edit changed the path count")
            if not report.mse_after < report.mse_before:
                errors.append(f"K={k}: MSE after {report.mse_after:.3e} not below "
                              f"before {report.mse_before:.3e}")
            if report.mse_after > prev + 1e-12:
                errors.append(f"K={k}: MSE rose with a larger budget")
            prev = report.mse_after
        if rc != 0:
            return errors + [f"covec render exited with {rc}"]
        png = (self.outputs / "render.png").read_bytes()
        image = image_io.read_image(self.outputs / "render.png")
        side = doc.width * self.scale
        if image.shape != (side, side, 3):
            errors.append(f"render is {image.shape}, expected ({side}, {side}, 3)")
        elif self.first_png is None:
            errors += self._independent_check(image)
        elif png != self.first_png:
            errors.append("render differs from the first op's render")
        if not errors:
            self.first_png = self.first_png or png
            self.mse_after = reports[-1].mse_after
        return errors

    def _independent_check(self, image: np.ndarray) -> list[str]:
        """Compare with the production rasterizer at the same scale."""
        doc = svg_io.parse_svg(self._svg_out(self.ks[-1]).read_bytes())
        big = doc.copy()
        big.width *= self.scale
        big.height *= self.scale
        for p in big.all_paths():
            p.control_points = p.control_points * self.scale
        prod = np.clip(render_composite(big, "three_layer", RasterizerConfig()),
                       0.0, 1.0)
        worst = float(np.abs(prod - image).max())
        if worst > RENDER_TOL:
            return [f"render differs from the production rasterizer by {worst:.4f}"
                    f" (> {RENDER_TOL:.4f})"]
        return []

    def report(self) -> dict:
        if self.mse_after is None:
            return {"edit_mse_after": None, "psnr_db": None}
        return {"edit_mse_after": self.mse_after, "psnr_db": _psnr(self.mse_after)}


WORKLOADS = {
    # Init is near zero (label map and albedo supplied), so time goes to
    # raster gradients and refinement over a frozen albedo; windows cover
    # the whole 64x64 canvas; the only workload with shade/light layers.
    "scene64_full": Vectorize(
        mode="full", budget=24, schedule=(2, 2, 1, 5),
        tiny_schedule=(1, 1, 1, 1), n_scenes=6, mse_ceiling=1e-2, hints=True),
    # 4x the pixels, k-means init, refine_layer without a frozen factor;
    # windows cover only part of the 128x128 canvas.
    "icon128_albedo": Vectorize(
        mode="albedo_only", budget=16, schedule=(1, 1, 1, 3),
        tiny_schedule=(1, 1, 1, 1), n_scenes=4, mse_ceiling=5e-2, hints=False),
    # Read-only use of the raster layer plus edit and the reference renderer.
    "edit_render64": EditRender(),
}
