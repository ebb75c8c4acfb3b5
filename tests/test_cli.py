"""Command-line surface: help text, defaults, exit codes, file outputs."""

import csv
import dataclasses
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

import covec.pipeline
from covec.cli import build_parser, main
from covec.edit import EditConfig
from covec.gradcheck import GradCheckConfig
from covec.image_io import read_image, write_image, write_label_png
from covec.init_layers import InitError
from covec.model import LayeredDocument, RasterizerConfig
from covec.pipeline import DEFAULT_BUDGET, RunConfig
from covec.svg_io import emit_svg, parse_svg, reference_composite
from covec.synthetic import (make_disk_grid_document, make_icon_scene,
                             make_recolor_reference)

from conftest import dotted_halves, square_path
from oracle_render import oracle_composite

DATA = Path(__file__).parent / "data"


def _run(argv, capsys):
    """main() plus captured stdout; unwraps argparse's SystemExit."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = int(exc.code or 0)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv,golden", [
    (["--help"], "help_main.txt"),
    (["vectorize", "--help"], "help_vectorize.txt"),
    (["render", "--help"], "help_render.txt"),
    (["edit", "--help"], "help_edit.txt"),
    (["gradcheck", "--help"], "help_gradcheck.txt"),
    (["metrics", "--help"], "help_metrics.txt"),
])
def test_help_golden(argv, golden, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, _ = _run(argv, capsys)
    assert code == 0
    assert out == (DATA / golden).read_text()


def test_vectorize_flag_defaults():
    ns = build_parser().parse_args(["vectorize", "in.png", "-o", "out.svg"])
    assert ns.paths is None
    assert ns.mode == "full"
    assert ns.seed == 0
    assert ns.albedo is None and ns.masks is None and ns.trace is None
    assert ns.dp_eps == 2.0
    assert ns.aa_sigma == 1.0
    assert ns.warmup == 50 and ns.joint == 50
    assert ns.rounds == 5 and ns.iters == 100


def test_other_flag_defaults():
    p = build_parser()
    r = p.parse_args(["render", "a.svg", "-o", "b.png"])
    assert r.scale == 1 and r.aa_sigma == 1.0
    e = p.parse_args(["edit", "a.svg", "o.png", "r.png", "-o", "b.svg"])
    assert (e.k, e.tau, e.gamma, e.delta_color) == (1, 0.1, 0.02, 0.25)
    assert e.report is None
    g = p.parse_args(["gradcheck"])
    assert g.probes == 100 and g.seed == 0


# (flag, parsed dest, config field it sets), per command and config
_FLAG_FIELDS = [
    (["vectorize", "in.png", "-o", "out.svg"], RunConfig, [
        ("--paths", "paths", "path_budget"), ("--mode", "mode", "mode"),
        ("--seed", "seed", "seed"), ("--albedo", "albedo", "albedo_path"),
        ("--masks", "masks", "masks_path"), ("--trace", "trace", "trace_path"),
        ("--dp-eps", "dp_eps", "dp_epsilon"), ("--aa-sigma", "aa_sigma", "aa_sigma"),
        ("--warmup", "warmup", "warmup_epochs"), ("--joint", "joint", "joint_epochs"),
        ("--rounds", "rounds", "refine_rounds"), ("--iters", "iters", "refine_iters")]),
    (["edit", "a.svg", "o.png", "r.png", "-o", "b.svg"], EditConfig, [
        ("--k", "k", "top_k"), ("--tau", "tau", "tau_diff"),
        ("--gamma", "gamma", "gamma_iou"), ("--delta-color", "delta_color", "delta_color")]),
    (["gradcheck"], GradCheckConfig, [
        ("--probes", "probes", "n_probes"), ("--seed", "seed", "seed")]),
    (["render", "a.svg", "-o", "b.png"], RasterizerConfig, [
        ("--aa-sigma", "aa_sigma", "aa_sigma")]),
]


def _help_entry(text: str, flag: str) -> str:
    """The whitespace-joined ``--help`` entry of ``flag``: the flag, its
    metavar or choices, and its help string."""
    options = " ".join(text.split()).split(" options: ", 1)[1]
    entries = re.split(r" (?=--?[a-z])", options)
    return next(e for e in entries if e.split()[0] == flag)


@pytest.mark.parametrize("argv, config, flags", _FLAG_FIELDS,
                         ids=[argv[0] for argv, _, _ in _FLAG_FIELDS])
def test_flag_defaults_are_config_defaults(argv, config, flags, capsys,
                                           monkeypatch):
    # a default changed on only one side, the config or the CLI, fails here
    if config is not RasterizerConfig:  # these configs are exactly the flags
        names = {f.name for f in dataclasses.fields(config)}
        assert names - {"input_path", "output_path"} == {f for _, _, f in flags}
    ns = build_parser().parse_args(argv)
    monkeypatch.setenv("COLUMNS", "80")
    code, text, _ = _run([argv[0], "--help"], capsys)
    assert code == 0
    for flag, dest, name in flags:
        parsed = getattr(ns, dest)
        want = getattr(config, name)
        if isinstance(parsed, str):  # mode names use "-" on the CLI
            assert parsed.replace("-", "_") == want, flag
        else:
            assert parsed == want and type(parsed) is type(want), flag
        entry = _help_entry(text, flag)
        if flag == "--paths":
            budgets = [f"{n} {m.replace('_', '-')}" for m, n in DEFAULT_BUDGET.items()]
            assert entry.endswith(f"(default: {', '.join(budgets)})"), entry
        elif parsed is not None:
            assert entry.endswith(f"(default: {parsed})"), entry


def test_missing_input_exits_2(tmp_path, capsys):
    code, _, err = _run(["vectorize", str(tmp_path / "nope.png"),
                         "-o", str(tmp_path / "out.svg")], capsys)
    assert code == 2
    assert "error:" in err


def test_edit_bad_k_exits_2(tmp_path, capsys):
    code, _, err = _run(["edit", "a.svg", "o.png", "r.png",
                         "-o", str(tmp_path / "b.svg"), "--k", "0"], capsys)
    assert code == 2
    assert "--k" in err


def test_bad_svg_exits_4(tmp_path, capsys):
    bad = tmp_path / "bad.svg"
    bad.write_bytes(b"<svg>not the expected structure</svg>")
    code, _, err = _run(["render", str(bad),
                         "-o", str(tmp_path / "o.png")], capsys)
    assert code == 4
    assert "error:" in err


@pytest.mark.parametrize("command", ["render", "edit"])
def test_non_finite_svg_coordinate_exits_4(tmp_path, capsys, command):
    svg = tmp_path / "inf.svg"
    emit_svg(LayeredDocument(width=8, height=8,
                             albedo=[square_path(1, 1, 6, 6)]), svg)
    svg.write_bytes(svg.read_bytes().replace(b"C 2.667 1.000", b"C 1e999 1.000"))
    out = str(tmp_path / "out.png")
    argv = {"render": ["render", str(svg), "-o", out],
            "edit": ["edit", str(svg), "o.png", "r.png", "-o", out]}[command]
    code, _, err = _run(argv, capsys)
    assert code == 4
    assert "non-finite coordinate" in err


def test_init_failure_exits_3(tmp_path, capsys, monkeypatch):
    img = tmp_path / "in.png"
    write_image(img, make_icon_scene(12))

    def boom(*a, **k):
        raise InitError("no albedo masks")

    import covec.pipeline as pipeline
    monkeypatch.setattr(pipeline, "paths_for_groups", boom)
    code, _, err = _run(["vectorize", str(img),
                         "-o", str(tmp_path / "out.svg")], capsys)
    assert code == 3
    assert "no albedo masks" in err


def test_metrics_identical_and_mismatch(tmp_path, capsys):
    a = tmp_path / "a.png"
    b = tmp_path / "b.png"
    c = tmp_path / "c.png"
    img = make_icon_scene(10)
    write_image(a, img)
    write_image(b, img)
    write_image(c, img[:5])
    code, out, _ = _run(["metrics", str(a), str(b)], capsys)
    assert code == 0
    assert "mse 0.00000000" in out
    assert "psnr inf" in out
    code, _, err = _run(["metrics", str(a), str(c)], capsys)
    assert code == 2
    assert "shapes differ" in err


def test_metrics_corrupt_png_exits_2(tmp_path, capsys):
    a = tmp_path / "a.png"
    bad = tmp_path / "bad.png"
    write_image(a, make_icon_scene(4))
    data = a.read_bytes()
    idat = data.index(b"IDAT") + 4
    bad.write_bytes(data[:idat] + b"\x00" * 4 + data[idat + 4:])
    code, _, err = _run(["metrics", str(bad), str(a)], capsys)
    assert code == 2
    assert "corrupt PNG" in err and "Traceback" not in err


def test_metrics_nonzero(tmp_path, capsys):
    a = tmp_path / "a.png"
    b = tmp_path / "b.png"
    write_image(a, np.zeros((4, 4, 3)))
    write_image(b, np.full((4, 4, 3), 0.5))
    code, out, _ = _run(["metrics", str(a), str(b)], capsys)
    assert code == 0
    mse_line = [l for l in out.splitlines() if l.startswith("mse ")][0]
    # 0.5 lands on 128/255 after 8-bit quantization
    assert float(mse_line.split()[1]) == pytest.approx((128 / 255) ** 2,
                                                       abs=1e-6)


def test_render_empty_doc_white(tmp_path, capsys):
    svg = tmp_path / "doc.svg"
    emit_svg(LayeredDocument(width=6, height=4, albedo=[], illumination=[],
                             shade=[], light=[]), svg)
    out_png = tmp_path / "flat.png"
    code, out, _ = _run(["render", str(svg), "-o", str(out_png)], capsys)
    assert code == 0
    img = read_image(out_png)
    assert img.shape == (4, 6, 3)
    assert np.array_equal(img, np.ones((4, 6, 3)))
    assert "6x4" in out


def test_render_scale(tmp_path, capsys):
    svg = tmp_path / "doc.svg"
    emit_svg(LayeredDocument(width=6, height=4,
                             albedo=[square_path(1, 1, 5, 3,
                                                 color=(0.8, 0.2, 0.2))],
                             illumination=[], shade=[], light=[]), svg)
    out_png = tmp_path / "big.png"
    code, _, _ = _run(["render", str(svg), "-o", str(out_png),
                       "--scale", "3"], capsys)
    assert code == 0
    assert read_image(out_png).shape == (12, 18, 3)


def test_render_scale_4_matches_oracle(tmp_path, capsys):
    # covec render draws with the production rasterizer; the independent
    # oracle renders the same edited document to the same 8-bit PNG
    doc = make_recolor_reference(make_disk_grid_document(), [2, 5])
    svg = tmp_path / "doc.svg"
    emit_svg(doc, svg)
    out_png = tmp_path / "render.png"
    code, _, _ = _run(["render", str(svg), "-o", str(out_png),
                       "--scale", "4"], capsys)
    assert code == 0
    parsed = parse_svg(svg.read_bytes())
    oracle = oracle_composite(parsed, scale=4)
    assert np.max(np.abs(reference_composite(parsed, scale=4) - oracle)) <= 1e-6
    write_image(tmp_path / "oracle.png", np.clip(oracle, 0.0, 1.0))
    assert out_png.read_bytes() == (tmp_path / "oracle.png").read_bytes()


def test_render_oversized_scale_exits_2(tmp_path, capsys):
    # 128000 x 128000 px at supersample 2 would need hundreds of GiB
    svg = tmp_path / "doc.svg"
    emit_svg(make_disk_grid_document(), svg)
    out_png = tmp_path / "big.png"
    code, out, err = _run(["render", str(svg), "-o", str(out_png),
                           "--scale", "2000"], capsys)
    assert code == 2
    assert "128000x128000" in err and "supersample 2" in err
    assert "Traceback" not in err and out == ""
    assert not out_png.exists()


def test_render_scale_above_sample_limit_exits_2(tmp_path, capsys):
    # 2112 x 2112 px at supersample 2 is above MAX_REFERENCE_SAMPLES
    svg = tmp_path / "doc.svg"
    emit_svg(make_disk_grid_document(), svg)
    out_png = tmp_path / "big.png"
    code, _, err = _run(["render", str(svg), "-o", str(out_png),
                         "--scale", "33"], capsys)
    assert code == 2
    assert "2112x2112" in err
    assert not out_png.exists()


def test_render_non_finite_aa_sigma_exits_2(tmp_path, capsys):
    svg = tmp_path / "doc.svg"
    emit_svg(LayeredDocument(width=6, height=4,
                             albedo=[square_path(1, 1, 5, 3)]), svg)
    out_png = tmp_path / "o.png"
    code, _, err = _run(["render", str(svg), "-o", str(out_png),
                         "--aa-sigma", "nan"], capsys)
    assert code == 2
    assert "aa_sigma" in err
    assert not out_png.exists()


def test_edit_non_finite_tau_exits_2_before_reading(tmp_path, capsys):
    # the inputs do not exist: the setting is rejected before they are read
    code, _, err = _run(["edit", "a.svg", "o.png", "r.png",
                         "-o", str(tmp_path / "b.svg"), "--tau", "nan"], capsys)
    assert code == 2
    assert "tau_diff" in err


def test_vectorize_deterministic_outputs(tmp_path, capsys):
    img_path = tmp_path / "icon.png"
    write_image(img_path, make_icon_scene(20))
    blobs = []
    for tag in ("a", "b"):
        svg = tmp_path / f"{tag}.svg"
        code, out, _ = _run(["vectorize", str(img_path), "-o", str(svg),
                             "--mode", "albedo-only", "--paths", "6",
                             "--warmup", "3", "--joint", "3",
                             "--rounds", "1", "--iters", "3"], capsys)
        assert code == 0
        assert "wrote" in out and "mse" in out
        blobs.append((svg.read_bytes(),
                      (tmp_path / f"{tag}.csv").read_bytes()))
    assert blobs[0][0] == blobs[1][0]
    assert blobs[0][1] == blobs[1][1]


def test_vectorize_full_mode_with_only_dust_dark_parts(tmp_path, capsys, monkeypatch):
    # every dark part is single pixels, below init's 2 px area floor, so
    # warm-up, joint and refinement start from an empty illumination layer
    img_path = tmp_path / "dots.png"
    write_image(img_path, dotted_halves()[0])
    started = []
    real_structural = covec.pipeline.run_structural
    real_refine = covec.pipeline.refine_layer

    def structural(albedo_groups, illum_groups, *args):
        started.append(("structural", [len(g) for g in illum_groups]))
        return real_structural(albedo_groups, illum_groups, *args)

    def refining(layer, *args, **kwargs):
        started.append(("refine", len(layer)))
        return real_refine(layer, *args, **kwargs)

    monkeypatch.setattr(covec.pipeline, "run_structural", structural)
    monkeypatch.setattr(covec.pipeline, "refine_layer", refining)
    svg = tmp_path / "dots.svg"
    code, _, _ = _run(["vectorize", str(img_path), "-o", str(svg),
                       "--warmup", "2", "--joint", "2",
                       "--rounds", "1", "--iters", "3"], capsys)
    assert code == 0
    assert started == [("structural", [0]), ("refine", 0)]
    doc = parse_svg(svg.read_bytes())
    assert len(doc.albedo) == 2
    with open(tmp_path / "dots.csv", newline="") as fh:
        stages = [row["stage"] for row in csv.DictReader(fh)]
    assert stages == ["warmup"] * 2 + ["joint"] * 2 + ["refine"]


def test_vectorize_albedo_only_rejects_albedo_file(tmp_path, capsys):
    img_path = tmp_path / "icon.png"
    write_image(img_path, make_icon_scene(8))
    svg = tmp_path / "doc.svg"
    code, _, err = _run(["vectorize", str(img_path), "-o", str(svg),
                         "--mode", "albedo-only", "--albedo", str(img_path)],
                        capsys)
    assert code == 2
    assert "error:" in err and "full mode" in err
    assert not svg.exists()


@pytest.mark.parametrize("field,value", [
    ("refine_rounds", -1), ("refine_iters", 0), ("warmup_epochs", -1),
    ("joint_epochs", -1), ("dp_epsilon", -1.0), ("aa_sigma", 0.0),
    ("seed", -1), ("dp_epsilon", float("nan")), ("dp_epsilon", float("inf")),
    ("aa_sigma", float("nan")), ("aa_sigma", float("inf")), ("output_path", "out.csv"),
    ("trace_path", "out.svg"),
])
def test_run_config_rejects_invalid_values(field, value):
    with pytest.raises(ValueError):
        RunConfig(**{"input_path": "in.png", "output_path": "out.svg", field: value})


def test_run_config_rejects_hard_linked_trace(tmp_path):
    # a hard link names the input's file under another path
    img = tmp_path / "in.png"
    write_image(img, make_icon_scene(8))
    os.link(img, tmp_path / "link.csv")
    with pytest.raises(ValueError, match="would overwrite"):
        RunConfig(input_path=str(img), output_path=str(tmp_path / "out.svg"),
                  trace_path=str(tmp_path / "link.csv"))


@pytest.mark.parametrize("flag", [
    ["--rounds", "-1"], ["--iters", "0"], ["--warmup", "-1"],
    ["--joint", "-1"], ["--dp-eps", "-1"], ["--aa-sigma", "0"],
    ["--seed", "-1"], ["--dp-eps", "nan"], ["--paths", "0"],
    ["--aa-sigma", "inf"],
])
def test_vectorize_invalid_value_exits_2_before_any_work(flag, tmp_path, capsys,
                                                         monkeypatch):
    img_path = tmp_path / "icon.png"
    write_image(img_path, make_icon_scene(8))

    def never(cfg):
        raise AssertionError("the pipeline started")

    import covec.cli as cli
    monkeypatch.setattr(cli, "run", never)
    svg = tmp_path / "doc.svg"
    code, _, err = _run(["vectorize", str(img_path), "-o", str(svg), *flag], capsys)
    assert code == 2
    assert "error:" in err
    # the value is refused, not the flag or its type: argparse's own
    # errors also exit 2 with "error:"
    assert "unrecognized arguments" not in err
    assert not re.search(r"invalid \w+ value", err), err
    assert not svg.exists()


def _never(*args, **kwargs):
    raise AssertionError("the work started")


@pytest.mark.parametrize("extra", [["-o", "{d}/out.csv"],
                                   ["-o", "{d}/doc.svg", "--trace", "{d}/doc.svg"],
                                   ["-o", "{d}/missing/doc.svg"],
                                   ["-o", "{d}/doc.svg", "--trace", "{d}/missing/t.csv"]])
def test_vectorize_bad_outputs_exit_2_before_any_work(extra, tmp_path, capsys,
                                                      monkeypatch):
    # a trace over the SVG, or a missing output directory, is rejected
    # before the pipeline runs, and nothing is written
    img_path = tmp_path / "icon.png"
    write_image(img_path, make_icon_scene(8))
    import covec.cli as cli
    monkeypatch.setattr(cli, "run", _never)
    argv = ["vectorize", str(img_path), *(x.format(d=tmp_path) for x in extra)]
    code, out, err = _run(argv, capsys)
    assert code == 2
    assert "error:" in err and out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["icon.png"]


@pytest.mark.parametrize("extra", [["-o", "{d}/x.json"],
                                   ["-o", "{d}/x.svg", "--report", "{d}/x.svg"],
                                   ["-o", "{d}/missing/x.svg"],
                                   ["-o", "{d}/x.svg", "--report", "{d}/missing/r.json"]])
def test_edit_bad_outputs_exit_2_before_any_work(extra, tmp_path, capsys,
                                                 monkeypatch):
    svg = tmp_path / "in.svg"
    emit_svg(LayeredDocument(width=8, height=8,
                             albedo=[square_path(2, 2, 6, 6)]), svg)
    img = tmp_path / "img.png"
    write_image(img, np.ones((8, 8, 3)))
    import covec.cli as cli
    monkeypatch.setattr(cli, "run_edit", _never)
    argv = ["edit", str(svg), str(img), str(img),
            *(x.format(d=tmp_path) for x in extra)]
    code, out, err = _run(argv, capsys)
    assert code == 2
    assert "error:" in err and out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["img.png", "in.svg"]


@pytest.mark.parametrize("output", ["out.jpg", "out", "missing/out.png"])
def test_render_bad_output_exits_2_before_rendering(output, tmp_path, capsys,
                                                    monkeypatch):
    svg = tmp_path / "doc.svg"
    emit_svg(make_disk_grid_document(), svg)
    import covec.cli as cli
    monkeypatch.setattr(cli, "reference_composite", _never)
    code, out, err = _run(["render", str(svg), "-o", str(tmp_path / output),
                           "--scale", "8"], capsys)
    assert code == 2
    assert "error:" in err and out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["doc.svg"]


@pytest.mark.parametrize("argv", [
    ["vectorize", "in.png", "-o", "in.svg", "--trace", "in.png"],
    ["vectorize", "in.png", "-o", "in.png", "--trace", "out.csv"],
    ["vectorize", "in.png", "-o", "out.svg", "--masks", "labels.png",
     "--trace", "labels.png"],
    ["vectorize", "in.png", "-o", "out.svg", "--albedo", "ref.png",
     "--trace", "ref.png"],
    ["edit", "doc.svg", "in.png", "ref.png", "-o", "in.png"],
    ["edit", "doc.svg", "in.png", "ref.png", "-o", "doc.svg"],
    ["edit", "doc.svg", "in.png", "ref.png", "-o", "out.svg", "--report", "ref.png"],
    ["render", "svg.png", "-o", "svg.png"],
    ["vectorize", "in.png", "-o", "out.svg", "--trace", "in_link.png"],
    ["edit", "doc.svg", "in.png", "ref.png", "-o", "in_link.png"],
    ["edit", "doc.svg", "in.png", "ref.png", "-o", "out.svg",
     "--report", "ref_link.png"],
    ["render", "svg.png", "-o", "svg_link.png"],
    ["render", "svg.png", "-o", "svg_symlink.png"],
])
def test_output_over_an_input_exits_2_and_leaves_it(argv, tmp_path, capsys,
                                                     monkeypatch):
    # no output may be an input's file, under its own path, a hard link or
    # a symlink; the inputs keep their bytes
    write_image(tmp_path / "in.png", make_icon_scene(8))
    write_image(tmp_path / "ref.png", np.full((8, 8, 3), 0.5))
    write_label_png(tmp_path / "labels.png", np.zeros((8, 8), dtype=np.int64))
    doc = LayeredDocument(width=8, height=8, albedo=[square_path(2, 2, 6, 6)])
    emit_svg(doc, tmp_path / "doc.svg")
    emit_svg(doc, tmp_path / "svg.png")  # an SVG under an image's name
    for name in ("in", "ref", "svg"):
        os.link(tmp_path / f"{name}.png", tmp_path / f"{name}_link.png")
    (tmp_path / "svg_symlink.png").symlink_to("svg.png")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    import covec.cli as cli
    for name in ("run", "run_edit", "reference_composite"):
        monkeypatch.setattr(cli, name, _never)
    monkeypatch.chdir(tmp_path)
    code, out, err = _run(argv, capsys)
    assert code == 2
    assert "would overwrite" in err and out == ""
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("argv", [
    ["vectorize", "in.png", "-o", "d.svg"],
    ["vectorize", "in.png", "-o", "out.svg", "--trace", "d.svg"],
    ["edit", "doc.svg", "in.png", "in.png", "-o", "out.svg", "--report", "d.svg"],
    ["render", "doc.svg", "-o", "d.png"],
])
def test_existing_directory_as_output_exits_2_before_any_work(argv, tmp_path,
                                                              capsys, monkeypatch):
    write_image(tmp_path / "in.png", make_icon_scene(8))
    emit_svg(LayeredDocument(width=8, height=8, albedo=[square_path(2, 2, 6, 6)]),
             tmp_path / "doc.svg")
    (tmp_path / "d.svg").mkdir()
    (tmp_path / "d.png").mkdir()
    import covec.cli as cli
    for name in ("run", "run_edit", "reference_composite"):
        monkeypatch.setattr(cli, name, _never)
    monkeypatch.chdir(tmp_path)
    code, out, err = _run(argv, capsys)
    assert code == 2
    assert "is a directory" in err and out == ""
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["d.png", "d.svg",
                                                          "doc.svg", "in.png"]


def test_vectorize_trace_schema(tmp_path, capsys):
    img_path = tmp_path / "icon.png"
    write_image(img_path, make_icon_scene(16))
    svg = tmp_path / "doc.svg"
    trace = tmp_path / "trace.csv"
    code, _, _ = _run(["vectorize", str(img_path), "-o", str(svg),
                       "--mode", "albedo-only", "--paths", "4",
                       "--warmup", "2", "--joint", "2", "--rounds", "1",
                       "--iters", "2", "--trace", str(trace)], capsys)
    assert code == 0
    with open(trace, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "stage", "loss", "paths_added",
                       "paths_removed"]
    stages = [r[1] for r in rows[1:]]
    assert set(stages) <= {"warmup", "joint", "refine"}
    assert stages[:4] == ["warmup", "warmup", "joint", "joint"]
    for row in rows[1:]:
        assert float(row[2]) >= 0.0
        int(row[0])


def test_edit_noop_reemits_identical_svg(tmp_path, capsys):
    doc = LayeredDocument(width=16, height=16,
                          albedo=[square_path(2, 2, 9, 9,
                                              color=(0.2, 0.4, 0.8)),
                                  square_path(10, 10, 15, 15,
                                              color=(0.8, 0.3, 0.2))],
                          illumination=[], shade=[], light=[])
    svg_in = tmp_path / "in.svg"
    emit_svg(doc, svg_in)
    img = np.clip(reference_composite(doc), 0.0, 1.0)
    orig = tmp_path / "orig.png"
    write_image(orig, img)
    svg_out = tmp_path / "out.svg"
    code, out, _ = _run(["edit", str(svg_in), str(orig), str(orig),
                         "-o", str(svg_out)], capsys)
    assert code == 0
    assert svg_out.read_bytes() == svg_in.read_bytes()
    report = json.loads((tmp_path / "out.json").read_text())
    assert report["n_candidates"] == 0
    assert report["selected"] == []
    assert report["shortfall"] == 1
    assert "edited 0 of 0" in out


def test_edit_default_report_in_dotted_directory(tmp_path, capsys):
    doc = LayeredDocument(width=8, height=8,
                          albedo=[square_path(2, 2, 6, 6, color=(0.2, 0.4, 0.8))],
                          illumination=[], shade=[], light=[])
    svg_in = tmp_path / "in.svg"
    emit_svg(doc, svg_in)
    orig = tmp_path / "orig.png"
    write_image(orig, np.ones((8, 8, 3)))
    out_dir = tmp_path / "out.d"
    out_dir.mkdir()
    code, out, _ = _run(["edit", str(svg_in), str(orig), str(orig),
                         "-o", str(out_dir / "edited")], capsys)
    assert code == 0
    assert (out_dir / "edited.json").is_file()
    assert not (tmp_path / "out.json").exists()
    assert str(out_dir / "edited.json") in out


def test_edit_custom_report_path(tmp_path, capsys):
    doc = LayeredDocument(width=12, height=12,
                          albedo=[square_path(2, 2, 10, 10,
                                              color=(0.3, 0.3, 0.9))],
                          illumination=[], shade=[], light=[])
    svg_in = tmp_path / "in.svg"
    emit_svg(doc, svg_in)
    img = np.clip(reference_composite(doc), 0.0, 1.0)
    orig = tmp_path / "orig.png"
    ref = tmp_path / "ref.png"
    write_image(orig, img)
    edited = img.copy()
    edited[3:9, 3:9] = (0.9, 0.5, 0.1)
    write_image(ref, edited)
    report_path = tmp_path / "custom_report.json"
    code, _, _ = _run(["edit", str(svg_in), str(orig), str(ref),
                       "-o", str(tmp_path / "out.svg"),
                       "--report", str(report_path),
                       "--delta-color", "1.0"], capsys)
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["n_candidates"] >= 1
    assert report["selected"][0]["path_index"] == 0


def test_gradcheck_zero_probes_vacuous(capsys):
    code, out, _ = _run(["gradcheck", "--probes", "0"], capsys)
    assert code == 0
    assert "0 probes" in out


def test_gradcheck_negative_probes_exits_2(capsys):
    code, out, err = _run(["gradcheck", "--probes", "-3"], capsys)
    assert code == 2
    assert "n_probes" in err and "PASS" not in out


def test_gradcheck_negative_seed_exits_2(capsys):
    code, out, err = _run(["gradcheck", "--seed", "-1"], capsys)
    assert code == 2
    assert "seed must be nonnegative" in err and "PASS" not in out


def test_gradcheck_small_run_passes(capsys):
    code, out, _ = _run(["gradcheck", "--probes", "2", "--seed", "5"], capsys)
    assert code == 0
    assert "0 failures" in out


def test_gradcheck_detects_corruption(capsys, monkeypatch):
    import covec.optimize as opt
    real_backward = opt.layer_backward

    def flip_color(*args):
        grads = real_backward(*args)
        for g in grads:
            g.d_fill_color = -g.d_fill_color
        return grads

    monkeypatch.setattr(opt, "layer_backward", flip_color)
    code, out, _ = _run(["gradcheck", "--probes", "2", "--seed", "5"], capsys)
    assert code == 1
    assert "probe" in out
