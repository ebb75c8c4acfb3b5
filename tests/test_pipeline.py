"""pipeline.vectorize end to end on small scenes."""

import dataclasses
import inspect
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covec
import covec.pipeline
import covec.raster
import covec.refine
from covec.image_io import read_image, write_label_png, write_png
from covec.model import RasterizerConfig
from covec.optimize import descent_config
from covec.pipeline import RunConfig, run, vectorize
from covec.raster import render_composite
from covec.svg_io import emit_svg, parse_svg
from covec.synthetic import make_acceptance_scene, make_icon_scene

from conftest import load_script


def _small_run(mode, tmp_path):
    """A short run of ``mode`` on a small scene whose init stays under the
    budget, so its one refinement round adds paths."""
    target = tmp_path / "target.png"
    files = {}
    if mode == "full":
        scene = make_acceptance_scene()
        write_png(target, scene.target, bit_depth=16)
        files = {"albedo_path": str(tmp_path / "albedo.png"),
                 "masks_path": str(tmp_path / "labels.png")}
        write_png(files["albedo_path"], scene.albedo, bit_depth=16)
        write_label_png(files["masks_path"], scene.labels)
    else:
        write_png(target, make_icon_scene(32), bit_depth=16)
    return RunConfig(input_path=str(target), output_path=str(tmp_path / "out.svg"),
                     mode=mode, path_budget=24 if mode == "full" else 12,
                     warmup_epochs=2, joint_epochs=2, refine_rounds=1,
                     refine_iters=5, **files)


def _refinement_added_paths(trace):
    return any(row.stage == "refine" and row.paths_added for row in trace)


@pytest.mark.parametrize("mode", ["full", "albedo_only"])
def test_final_mse_is_that_of_a_fresh_three_layer_render(mode, tmp_path):
    # final_mse is composed from renders the run already holds; it must be
    # bit for bit the MSE of rasterizing the finished document again
    cfg = _small_run(mode, tmp_path)
    target = cfg.input_path
    result = vectorize(cfg)
    doc = result.document
    assert _refinement_added_paths(result.trace)
    if mode == "full":
        assert doc.shade and doc.light
    rendered = np.clip(render_composite(doc, "three_layer", RasterizerConfig()),
                       0.0, 1.0)
    assert result.final_mse == float(np.mean((rendered - read_image(target)) ** 2))


@pytest.mark.parametrize("mode", ["full", "albedo_only"])
def test_nothing_rasterized_after_refinement(mode, tmp_path, monkeypatch):
    # refinement hands every path's coverage map on: separation, light
    # colors and the final composite rasterize nothing
    cfg = _small_run(mode, tmp_path)
    refined = []
    late = []
    real_refine = covec.pipeline.refine_layer
    real_coverage = covec.raster.path_coverage

    def refining(*args, **kwargs):
        result = real_refine(*args, **kwargs)
        refined.append(result)
        return result

    def counting(*args, **kwargs):
        if refined:
            late.append(args[0])
        return real_coverage(*args, **kwargs)

    monkeypatch.setattr(covec.pipeline, "refine_layer", refining)
    monkeypatch.setattr(covec.raster, "path_coverage", counting)
    monkeypatch.setattr(covec.refine, "path_coverage", counting)
    result = vectorize(cfg)
    doc = result.document
    assert len(refined) == 1
    assert _refinement_added_paths(result.trace)
    if mode == "full":
        assert doc.shade or doc.light
    assert late == []


@pytest.mark.parametrize("mode", ["full", "albedo_only"])
def test_only_the_optimiser_renders_at_the_descent_config(mode, tmp_path, monkeypatch):
    # every render an Adam step differentiates (warm-up, joint, refinement)
    # uses descent_config(rcfg); every render a decision or an output reads
    # (refinement's base and cleanup maps, the albedo render, the composite)
    # uses rcfg itself.  Both modes run on the lit scene, whose albedo-only
    # init stays under budget, so refinement steps in both
    cfg = _small_run("full", tmp_path)
    if mode == "albedo_only":
        cfg = dataclasses.replace(cfg, mode=mode, albedo_path=None)
    rcfg = cfg.raster_config
    calls = []  # (stage, with_grad, config)
    stage = ["structural"]
    real_coverage = covec.raster.path_coverage
    real_structural = covec.pipeline.run_structural
    signature = inspect.signature(real_coverage)

    def recording(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append((stage[0], bound.arguments["with_grad"], bound.arguments["config"]))
        return real_coverage(*args, **kwargs)

    def structural(*args, **kwargs):
        trace = real_structural(*args, **kwargs)
        stage[0] = "after"
        return trace

    monkeypatch.setattr(covec.pipeline, "run_structural", structural)
    monkeypatch.setattr(covec.raster, "path_coverage", recording)
    monkeypatch.setattr(covec.refine, "path_coverage", recording)
    vectorize(cfg)
    descent = descent_config(rcfg)
    assert descent.supersample == 1 < rcfg.supersample
    for with_grad in (True, False):
        assert {c for _, g, c in calls if g == with_grad} == {
            descent if with_grad else rcfg}
    # both call sites differentiate: the structural stage and refinement
    assert {s for s, g, _ in calls if g} == {"structural", "after"}


def test_import_sets_no_thread_variables():
    # BLAS threads are capped by the standard variables, set before the
    # run starts; importing covec reads and writes none of them
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
    env.update(COVEC_THREADS="3", PYTHONPATH=str(Path(covec.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import os, covec; print(os.environ.get('OMP_NUM_THREADS'))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out == "None\n"


@st.composite
def tiny_images(draw):
    """Images of at most 6 x 6 px: noise, one constant colour, 1 px stripes
    across or down, or a 1 x n or n x 1 strip of noise."""
    kind = draw(st.sampled_from(["noise", "constant", "rows", "columns", "row", "column"]))
    height = 1 if kind == "row" else draw(st.integers(1, 6))
    width = 1 if kind == "column" else draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if kind == "constant":
        return np.broadcast_to(rng.uniform(0.0, 1.0, 3), (height, width, 3)).copy()
    if kind in ("rows", "columns"):
        a, b = rng.uniform(0.0, 1.0, (2, 3))
        index = np.arange(height)[:, None] if kind == "rows" else np.arange(width)[None, :]
        return np.where((index % 2 == 0)[:, :, None], a, b) * np.ones((height, width, 1))
    return rng.uniform(0.0, 1.0, (height, width, 3))


@settings(max_examples=10, deadline=None)
@given(tiny_images())
def test_tiny_images_vectorize_in_both_modes(image):
    """Both modes finish on degenerate inputs: the SVG parses and re-emits
    byte for byte, holds the result's paths, the final MSE is finite and a
    rerun writes the same SVG and trace.  The path budget is not asserted:
    init does not yet respect it (8 x 8 noise ends with 88 paths in full
    mode and 53 in albedo-only mode at a budget of 8)."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        write_png(work / "target.png", image, bit_depth=16)
        for mode in ("full", "albedo_only"):
            outputs = []
            for name in ("a", "b"):
                cfg = RunConfig(input_path=str(work / "target.png"),
                                output_path=str(work / f"{mode}_{name}.svg"),
                                mode=mode, path_budget=8, warmup_epochs=1,
                                joint_epochs=1, refine_rounds=1, refine_iters=2)
                result = run(cfg)
                svg = (work / f"{mode}_{name}.svg").read_bytes()
                outputs.append((svg, (work / f"{mode}_{name}.csv").read_bytes()))
            assert outputs[0] == outputs[1]
            doc = parse_svg(svg)
            assert emit_svg(doc) == svg
            assert len(doc.all_paths()) == len(result.document.all_paths())
            assert np.isfinite(result.final_mse)


def test_demo_synthetic_script(tmp_path):
    """scripts/demo_synthetic.py --quick runs the pipeline end to end and
    writes a canonical SVG, its trace and the reconstruction."""
    assert load_script("demo_synthetic").main(["--quick", "--outdir", str(tmp_path)]) == 0
    for name in ("scene.svg", "scene.csv", "reconstruction.png"):
        assert (tmp_path / name).is_file(), name
    svg = (tmp_path / "scene.svg").read_bytes()
    assert emit_svg(parse_svg(svg)) == svg
