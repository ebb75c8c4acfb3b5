"""Release gate: one test per numbered guarantee.

Each test measures its quantity at the advertised tolerance and prints a
single ``ACCEPTANCE <n> PASS/FAIL`` line on the real stdout, so the log
of a full run doubles as a scorecard.  The two pipeline-scale tests
(synthetic scene, albedo-only icon) dominate the runtime.
"""

import hashlib
import re
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import disk_path, random_path, square_path
from oracle_render import oracle_composite

from covec import pipeline
from covec.cli import main as cli_main
from covec.edit import EditConfig, run_edit
from covec.geometry import Polyline, batch_signed_distance, simplify_closed
from covec.gradcheck import GradCheckConfig, run_gradcheck
from covec.image_io import read_image, write_png, write_label_png
from covec.init_layers import region_binarize, trace_boundary
from covec.model import BLACK, WHITE, LayeredDocument, RasterizerConfig
from covec.optimize import Schedule
from covec.raster import blend, layer_forward, path_coverage, render_composite
from covec.refine import refine_layer, separate_layers
from covec.svg_io import emit_svg, parse_svg
from covec.synthetic import (make_acceptance_scene, make_disk_grid_document,
                             make_icon_scene, make_recolor_reference)


_CAP: "pytest.CaptureFixture | None" = None


@pytest.fixture(autouse=True)
def _expose_capture(capfd):
    # record() needs to punch through the fd-level capture so the
    # scorecard survives in the log even when every test passes.
    global _CAP
    _CAP = capfd
    yield
    _CAP = None


def record(n: int, ok: bool, detail: str) -> None:
    """Print the scorecard line for criterion ``n``, then assert it."""
    line = f"\nACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {detail}"
    if _CAP is not None:
        with _CAP.disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)
    assert ok, f"criterion {n}: {detail}"


# ---------------------------------------------------------------------------
# 1. analytic gradients agree with finite differences


def test_01_gradient_fidelity():
    report = run_gradcheck(GradCheckConfig(n_probes=100, seed=0))
    ok = report.passed and report.n_probes >= 100 and report.elapsed < 60.0
    record(1, ok,
           f"{report.n_comparisons} comparisons over {report.n_probes} "
           f"probes, {len(report.failures)} failures, "
           f"{report.elapsed:.1f}s (< 60s)")


# ---------------------------------------------------------------------------
# 2. blend algebra and the composite chain


def _random_three_layer_doc(seed: int) -> LayeredDocument:
    rng = np.random.default_rng(seed)
    w = int(rng.integers(12, 25))
    h = int(rng.integers(12, 25))
    albedo = [random_path(rng, w, h) for _ in range(int(rng.integers(2, 5)))]
    shade = [random_path(rng, w, h, tag="shade")
             for _ in range(int(rng.integers(0, 3)))]
    light = []
    for _ in range(int(rng.integers(0, 3))):
        p = random_path(rng, w, h, tag="light", color_hi=0.7)
        p.opacity = 1.0
        light.append(p)
    return LayeredDocument(width=w, height=h, albedo=albedo, illumination=[],
                           shade=shade, light=light)


def test_02_compositing_algebra():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(50):
        a, b, c = rng.uniform(0.0, 1.0, (3, 7, 9, 3))
        ones = np.ones_like(a)
        zeros = np.zeros_like(a)
        checks = [
            blend("multiply", a, ones) - a,
            blend("plus_lighter", a, zeros) - a,
            blend("multiply", a, b) - blend("multiply", b, a),
            blend("plus_lighter", a, b) - blend("plus_lighter", b, a),
            blend("multiply", blend("multiply", a, b), c)
            - blend("multiply", a, blend("multiply", b, c)),
            blend("plus_lighter", blend("plus_lighter", a, b), c)
            - blend("plus_lighter", a, blend("plus_lighter", b, c)),
        ]
        worst = max(worst, max(float(np.abs(d).max()) for d in checks))
    rcfg = RasterizerConfig()
    chain_exact = True
    for seed in range(5):
        doc = _random_three_layer_doc(30 + seed)
        w, h = doc.width, doc.height
        composed = render_composite(doc, "three_layer", rcfg)
        explicit = blend(
            "plus_lighter",
            blend("multiply",
                  layer_forward(doc.albedo, WHITE, w, h, rcfg).image,
                  layer_forward(doc.shade, WHITE, w, h, rcfg).image),
            layer_forward(doc.light, BLACK, w, h, rcfg).image)
        chain_exact = chain_exact and np.array_equal(composed, explicit)
    ok = worst <= 1e-12 and chain_exact
    record(2, ok,
           f"identity/commutativity/associativity worst |diff| {worst:.1e} "
           f"(<= 1e-12) over 50 triples; composite equals explicit blend "
           f"chain bit-exactly on 5 documents: {chain_exact}")


# ---------------------------------------------------------------------------
# 3. production rasterizer vs independent reference, plus file round-trip


def test_03_dual_renderer_parity(tmp_path):
    rcfg = RasterizerConfig()
    worst_parity = 0.0
    worst_roundtrip = 0.0
    for seed in range(20):
        doc = _random_three_layer_doc(300 + seed)
        production = render_composite(doc, "three_layer", rcfg)
        reference = oracle_composite(doc, rcfg)
        worst_parity = max(worst_parity,
                           float(np.abs(production - reference).max()))
        out = tmp_path / f"doc_{seed}.svg"
        emit_svg(doc, out=str(out))
        parsed = parse_svg(out.read_bytes())
        rendered = render_composite(parsed, "three_layer", rcfg)
        worst_roundtrip = max(worst_roundtrip,
                              float(np.abs(rendered - production).max()))
    tol_roundtrip = 2.0 / 255.0 + 2e-3
    ok = worst_parity <= 1e-6 and worst_roundtrip <= tol_roundtrip
    record(3, ok,
           f"20 documents: renderer parity {worst_parity:.2e} (<= 1e-6), "
           f"file round-trip {worst_roundtrip:.2e} (<= {tol_roundtrip:.2e})")


# ---------------------------------------------------------------------------
# 4. region luma split matches a brute-force pixel loop


def _binarize_oracle(image: np.ndarray,
                     masks: list[np.ndarray]) -> list[np.ndarray]:
    h, w, _ = image.shape
    out = []
    for m in masks:
        total = 0.0
        count = 0
        for y in range(h):
            for x in range(w):
                if m[y, x]:
                    total += (0.299 * image[y, x, 0] + 0.587 * image[y, x, 1]
                              + 0.114 * image[y, x, 2])
                    count += 1
        thresh = total / count
        keep = np.zeros((h, w), dtype=bool)
        for y in range(h):
            for x in range(w):
                if m[y, x]:
                    lum = (0.299 * image[y, x, 0] + 0.587 * image[y, x, 1]
                           + 0.114 * image[y, x, 2])
                    if lum <= thresh:
                        keep[y, x] = True
        if keep.any():
            out.append(keep)
    return out


def test_04_region_split_oracle():
    rng = np.random.default_rng(4)
    n_regions = 0
    exact = True
    for _ in range(20):
        h = int(rng.integers(8, 15))
        w = int(rng.integers(8, 15))
        image = rng.uniform(0.0, 1.0, (h, w, 3))
        labels = rng.integers(0, 4, size=(h, w))
        masks = [labels == v for v in range(4) if np.any(labels == v)]
        y0 = int(rng.integers(0, h - 4))
        x0 = int(rng.integers(0, w - 4))
        rect = np.zeros((h, w), dtype=bool)
        rect[y0:y0 + 4, x0:x0 + 4] = True
        masks.append(rect)
        # the rectangle overlaps the label regions, so it is a second label image
        got = [part == v for part in (region_binarize(image, labels + 1),
                                      region_binarize(image, rect.astype(np.int64)))
               for v in np.unique(part) if v]
        want = _binarize_oracle(image, masks)
        n_regions += len(masks)
        if len(got) != len(want):
            exact = False
            continue
        for g, bm in zip(got, want):
            if not np.array_equal(g, bm):
                exact = False
    record(4, exact,
           f"20 image/mask-set pairs, {n_regions} region splits identical "
           f"to the pixel-loop implementation")


# ---------------------------------------------------------------------------
# 5. simplification stays within its distance bound


def _blob_mask(rng: np.random.Generator, size: int = 24) -> np.ndarray:
    while True:
        gx, gy = np.meshgrid(np.arange(size) + 0.5, np.arange(size) + 0.5)
        mask = np.zeros((size, size), dtype=bool)
        for _ in range(int(rng.integers(1, 4))):
            cx, cy = rng.uniform(4.0, size - 4.0, 2)
            r = rng.uniform(2.5, 7.0)
            mask |= (gx - cx) ** 2 + (gy - cy) ** 2 <= r * r
        if mask.sum() >= 12:
            return mask


def test_05_simplification_bound():
    rng = np.random.default_rng(5)
    epsilon = 2.0
    worst = 0.0
    for _ in range(20):
        raw = trace_boundary(_blob_mask(rng))
        simp = simplify_closed(raw, epsilon)
        nxt = np.roll(raw, -1, axis=0)
        dense = np.concatenate([raw * (1.0 - t) + nxt * t
                                for t in (0.0, 0.25, 0.5, 0.75)])
        sd, _, _, _ = batch_signed_distance(Polyline(simp), dense)
        worst = max(worst, float(np.abs(sd).max()))
    ok = worst <= epsilon + 1e-9
    record(5, ok,
           f"20 traced masks, worst trace-to-simplified Hausdorff distance "
           f"{worst:.3f} (<= {epsilon})")


# ---------------------------------------------------------------------------
# 6 + 7. full pipeline on the constructed scene, then separation bookkeeping


@pytest.fixture(scope="session")
def synthetic_run(tmp_path_factory):
    scene = make_acceptance_scene()
    td = tmp_path_factory.mktemp("scene")
    target = td / "target.png"
    albedo = td / "albedo.png"
    labels = td / "labels.png"
    write_png(target, scene.target, bit_depth=16)
    write_png(albedo, scene.albedo, bit_depth=16)
    write_label_png(labels, scene.labels)
    cfg = pipeline.RunConfig(input_path=str(target),
                             output_path=str(td / "out.svg"),
                             mode="full", path_budget=24,
                             albedo_path=str(albedo), masks_path=str(labels))
    separated = {}
    real = pipeline.separate_layers

    def recording(illumination, maps):
        shade, light, shade_maps, light_maps = real(illumination, maps)
        separated["n_illumination"] = len(illumination)
        separated["n_shade"] = len(shade)
        separated["n_light"] = len(light)
        return shade, light, shade_maps, light_maps

    mp = pytest.MonkeyPatch()
    mp.setattr(pipeline, "separate_layers", recording)
    t0 = time.perf_counter()
    try:
        result = pipeline.vectorize(cfg)
    finally:
        mp.undo()
    elapsed = time.perf_counter() - t0
    return SimpleNamespace(scene=scene, result=result, elapsed=elapsed,
                           separated=separated)


def _support(path, width, height, rcfg) -> np.ndarray:
    return path_coverage(path, width, height, rcfg).coverage > 0.5


def test_06_synthetic_convergence(synthetic_run):
    scene = synthetic_run.scene
    doc = synthetic_run.result.document
    rcfg = RasterizerConfig()
    shadow = scene.shadow_mask
    highlight = scene.highlight_mask
    best_shadow = 0.0
    for p in doc.shade:
        if float(p.fill_color.max()) <= 1.0:
            sup = _support(p, doc.width, doc.height, rcfg)
            best_shadow = max(best_shadow,
                              float((sup & shadow).sum() / shadow.sum()))
    best_light = 0.0
    for p in doc.light:
        sup = _support(p, doc.width, doc.height, rcfg)
        best_light = max(best_light,
                         float((sup & highlight).sum() / highlight.sum()))
    mse = synthetic_run.result.final_mse
    ok = (mse < 5e-3 and best_shadow >= 0.5 and best_light >= 0.5
          and synthetic_run.elapsed < 600.0)
    record(6, ok,
           f"64x64 scene: MSE {mse:.2e} (< 5e-3), best shade path covers "
           f"{best_shadow:.0%} of the shadow, best light path covers "
           f"{best_light:.0%} of the highlight, "
           f"{synthetic_run.elapsed:.0f}s (< 600s)")


def test_07_separation_partition(synthetic_run):
    sep = synthetic_run.separated
    doc = synthetic_run.result.document
    ok = sep["n_shade"] + sep["n_light"] == sep["n_illumination"]
    ok = ok and len(doc.shade) == sep["n_shade"]
    ok = ok and len(doc.light) <= sep["n_light"]  # empty-support drops only
    for p in doc.shade:
        ok = ok and 0.0 <= float(p.fill_color.min())
        ok = ok and float(p.fill_color.max()) <= 1.0
    for p in doc.light:
        ok = ok and float(p.fill_color.min()) >= 0.0
    n_random = 0
    for seed in range(10):
        rng = np.random.default_rng(700 + seed)
        illum = [random_path(rng, 20, 20, tag="illumination", color_hi=1.6)
                 for _ in range(int(rng.integers(1, 8)))]
        shade, light, _, _ = separate_layers(
            illum, [path_coverage(p, 20, 20, RasterizerConfig()) for p in illum])
        n_random += len(illum)
        ok = ok and len(shade) + len(light) == len(illum)
        geoms = sorted(p.control_points.tobytes() for p in shade + light)
        ok = ok and geoms == sorted(p.control_points.tobytes() for p in illum)
        for p in shade:
            ok = ok and 0.0 <= float(p.fill_color.min())
            ok = ok and float(p.fill_color.max()) <= 1.0
        for p in light:
            ok = ok and float(p.fill_color.min()) >= 0.0 and p.opacity == 1.0
    record(7, ok,
           f"scene split {sep['n_illumination']} = {sep['n_shade']} shade + "
           f"{sep['n_light']} light; 10 random documents ({n_random} paths) "
           f"partition with shade in [0,1], light >= 0")


# ---------------------------------------------------------------------------
# 8. refinement never touches frozen parameters


def _params_digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.control_points.tobytes())
        h.update(p.fill_color.tobytes())
        h.update(np.float64(p.opacity).tobytes())
        h.update(p.layer_tag.encode())
    return h.hexdigest()


def test_08_refinement_freeze():
    rcfg = RasterizerConfig()
    albedo = [square_path(0, 0, 32, 32, color=(0.75, 0.7, 0.62)),
              disk_path(10, 9, 5.0, color=(0.35, 0.5, 0.8))]
    target = layer_forward(albedo, WHITE, 32, 32, rcfg).image.copy()
    spots = [(2, 2, 0.45), (2, 24, 0.52), (24, 2, 0.58), (24, 24, 0.65),
             (13, 13, 0.5)]
    for y0, x0, factor in spots:
        target[y0:y0 + 6, x0:x0 + 6] *= factor
    cfg = Schedule(refine_rounds=1, refine_iters=15)
    illum = []
    budget = 8
    frozen_ok = True
    added_total = 0
    for _round in range(5):
        d_albedo = _params_digest(albedo)
        d_existing = _params_digest(illum)
        factor = layer_forward(albedo, WHITE, 32, 32, rcfg).image
        out = refine_layer(illum, factor, target, cfg, rcfg, min(budget, 1)).layer
        frozen_ok = frozen_ok and _params_digest(albedo) == d_albedo
        frozen_ok = frozen_ok and _params_digest(out[:len(illum)]) == d_existing
        added_total += len(out) - len(illum)
        budget -= len(out) - len(illum)
        illum = out
    ok = frozen_ok and added_total >= 3
    record(8, ok,
           f"5 sequential rounds: albedo and pre-round layer digests "
           f"unchanged every round, {added_total} paths added")


# ---------------------------------------------------------------------------
# 9. guided recolor: monotone in K, single-attribute diff at K=1


def test_09_recolor_protocol():
    doc = make_disk_grid_document()
    reference_doc = make_recolor_reference(doc, [2, 5])
    rcfg = RasterizerConfig()
    original = np.clip(render_composite(doc, "three_layer", rcfg), 0.0, 1.0)
    reference = np.clip(render_composite(reference_doc, "three_layer", rcfg),
                        0.0, 1.0)
    mses = []
    k1_doc = None
    for k in (1, 2, 4, 8, 16):
        edited, report = run_edit(doc, original, reference,
                                  EditConfig(top_k=k), rcfg)
        mses.append(report.mse_after)
        if k == 1:
            k1_doc = edited
    monotone = all(b <= a + 1e-12 for a, b in zip(mses, mses[1:]))
    base_lines = emit_svg(doc).split(b"\n")
    k1_lines = emit_svg(k1_doc).split(b"\n")
    diff_idx = [i for i, (a, b) in enumerate(zip(base_lines, k1_lines))
                if a != b]
    fill = re.compile(rb'fill="rgb\(\d+,\d+,\d+\)"')
    single_attr = len(base_lines) == len(k1_lines) and len(diff_idx) == 1
    if single_attr:
        a_line, b_line = base_lines[diff_idx[0]], k1_lines[diff_idx[0]]
        single_attr = (fill.sub(b"", a_line) == fill.sub(b"", b_line)
                       and fill.search(a_line).group()
                       != fill.search(b_line).group())
    ok = monotone and single_attr
    record(9, ok,
           f"K sweep 1/2/4/8/16 reference MSE {', '.join(f'{m:.2e}' for m in mses)} "
           f"non-increasing: {monotone}; K=1 byte diff is exactly one fill "
           f"attribute: {single_attr}")


# ---------------------------------------------------------------------------
# 10. vectorization is deterministic at fixed seed


def test_10_determinism(tmp_path):
    icon = tmp_path / "icon.png"
    write_png(icon, make_icon_scene())
    outputs = []
    for run in (1, 2):
        out = tmp_path / f"run{run}.svg"
        trace = tmp_path / f"run{run}.csv"
        rc = cli_main(["vectorize", str(icon), "-o", str(out),
                       "--mode", "albedo-only", "--paths", "6",
                       "--warmup", "8", "--joint", "8", "--rounds", "2",
                       "--iters", "15", "--seed", "7", "--trace", str(trace)])
        assert rc == 0
        outputs.append((out.read_bytes(), trace.read_bytes()))
    ok = outputs[0] == outputs[1]
    record(10, ok,
           f"two identical runs: SVG ({len(outputs[0][0])} bytes) and trace "
           f"CSV ({len(outputs[0][1])} bytes) byte-identical: {ok}")


# ---------------------------------------------------------------------------
# 11. albedo-only preset on a small icon


def test_11_albedo_only_mode(tmp_path):
    icon = tmp_path / "icon.png"
    write_png(icon, make_icon_scene())
    out = tmp_path / "icon.svg"
    rc = cli_main(["vectorize", str(icon), "-o", str(out),
                   "--mode", "albedo-only", "--paths", "8"])
    assert rc == 0
    parsed = parse_svg(out.read_bytes())
    rcfg = RasterizerConfig()
    rendered = np.clip(render_composite(parsed, "three_layer", rcfg), 0.0, 1.0)
    mse = float(np.mean((rendered - read_image(icon)) ** 2))
    empty_illum = parsed.shade == [] and parsed.light == []
    ok = mse < 1e-2 and empty_illum
    record(11, ok,
           f"32x32 icon at budget 8: MSE {mse:.2e} (< 1e-2), emitted shade "
           f"and light groups empty: {empty_illum}")
