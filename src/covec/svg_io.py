"""Canonical SVG serialization of layered documents, and their render.

The emitted file is a strict structural subset of SVG 1.1 plus CSS blend
modes: one isolated wrapper group holding three layer groups in fixed
order (albedo with a white background rectangle, shade with
mix-blend-mode:multiply, light with mix-blend-mode:plus-lighter).  The
serializer is canonical: parsing its output and emitting again reproduces
the bytes exactly.  ``reference_composite``, what ``covec render`` draws,
renders a document at an integer scale with the optimizer's rasterizer;
the independent renderer that cross-checks that rasterizer is the test
oracle ``tests/oracle_render.py``.

Colors quantize to rgb() integers, so fills outside [0, 1] cannot survive
a file round trip; documents meant for files should carry displayable
colors (light paths get residual-derived colors within range in practice).
"""

from __future__ import annotations

import math
import re
import xml.etree.ElementTree as ET

import numpy as np

# Unused here; the name stays bound because perfbench/selftest.py's
# check_patching looks up svg_io.flatten_bezier.
from .geometry import flatten_bezier  # noqa: F401
from .image_io import quantize
from .model import FILL_RULE, LayeredDocument, RasterizerConfig, VectorPath
from .raster import render_composite

SVG_NS = "http://www.w3.org/2000/svg"

_LAYER_ORDER = ("albedo", "shade", "light")
_GROUP_STYLE = {
    "albedo": None,
    "shade": "mix-blend-mode:multiply",
    "light": "mix-blend-mode:plus-lighter",
}


# Largest supersample canvas (output pixels times supersample squared)
# that reference_composite renders.  The production rasterizer peaks at
# about 33 bytes per supersample above the process's baseline: the
# 2048 x 2048 px render at supersample 2, at the limit, took peak RSS
# from 57 to 586 MB (numpy 2.4, Linux x86-64).
MAX_REFERENCE_SAMPLES = 2 ** 24


class SvgParseError(ValueError):
    """Raised when input is outside the supported SVG subset."""


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _color_attr(color: np.ndarray) -> str:
    q = quantize(np.asarray(color, dtype=np.float64), 255)
    return f"rgb({int(q[0])},{int(q[1])},{int(q[2])})"


def _path_d(path: VectorPath) -> str:
    pts = path.control_points
    k = path.n_segments
    parts = [f"M {_fmt(pts[0, 0])} {_fmt(pts[0, 1])}"]
    for i in range(k):
        c1 = pts[3 * i + 1]
        c2 = pts[3 * i + 2]
        end = pts[(3 * i + 3) % (3 * k)]
        parts.append("C " + " ".join(_fmt(v) for v in (*c1, *c2, *end)))
    parts.append("Z")
    return " ".join(parts)


def emit_svg(doc: LayeredDocument, out=None) -> bytes:
    """Serialize a three-layer document to canonical SVG bytes.

    Writes the albedo, shade and light layers, empty ones as empty
    groups; a document still carrying unseparated illumination paths is
    rejected.  When ``out`` names a file, the bytes are also written there.
    """
    if doc.illumination:
        raise ValueError("document still has unseparated illumination paths")
    w, h = int(doc.width), int(doc.height)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="{SVG_NS}" width="{w}" height="{h}" viewBox="0 0 {w} {h}">',
        '  <g style="isolation:isolate">',
    ]
    for tag in _LAYER_ORDER:
        style = _GROUP_STYLE[tag]
        attrs = f'id="{tag}"' + (f' style="{style}"' if style else "")
        lines.append(f"    <g {attrs}>")
        if tag == "albedo":
            lines.append(f'      <rect width="{w}" height="{h}" fill="rgb(255,255,255)"/>')
        for path in doc.layer(tag):
            lines.append(
                f'      <path d="{_path_d(path)}" fill="{_color_attr(path.fill_color)}"'
                f' fill-opacity="{path.opacity:.4f}" fill-rule="{FILL_RULE}"/>'
            )
        lines.append("    </g>")
    lines.append("  </g>")
    lines.append("</svg>")
    data = ("\n".join(lines) + "\n").encode("utf-8")
    if out is not None:
        with open(out, "wb") as fh:
            fh.write(data)
    return data


_NUM_RE = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
_RGB_RE = re.compile(r"^rgb\((\d{1,3}),(\d{1,3}),(\d{1,3})\)$")
_CLOSURE_TOL = 2e-3


def _parse_d(d: str, index: int) -> np.ndarray:
    """Parse one canonical path: absolute M, cubic C runs, terminal Z."""
    tokens = d.replace(",", " ").split()
    pos = 0

    def take_cmd(expected: str) -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise SvgParseError(f"path {index}: truncated d attribute")
        tok = tokens[pos]
        pos += 1
        if tok not in expected:
            raise SvgParseError(f"path {index}: unsupported d command {tok!r}")
        return tok

    def take_floats(n: int) -> list[float]:
        nonlocal pos
        vals = []
        for _ in range(n):
            if pos >= len(tokens) or not _NUM_RE.fullmatch(tokens[pos]):
                raise SvgParseError(f"path {index}: malformed coordinate in d")
            v = float(tokens[pos])
            if not math.isfinite(v):
                raise SvgParseError(f"path {index}: non-finite coordinate in d")
            vals.append(v)
            pos += 1
        return vals

    take_cmd("M")
    start = take_floats(2)
    coords: list[list[float]] = [start]
    saw_curve = False
    while True:
        cmd = take_cmd("CZ")
        if cmd == "Z":
            break
        saw_curve = True
        vals = take_floats(6)
        coords.append(vals[0:2])
        coords.append(vals[2:4])
        coords.append(vals[4:6])
    if pos != len(tokens):
        raise SvgParseError(f"path {index}: content after Z in d")
    if not saw_curve:
        raise SvgParseError(f"path {index}: no curve segments in d")
    end = np.asarray(coords[-1])
    if np.max(np.abs(end - np.asarray(start))) > _CLOSURE_TOL:
        raise SvgParseError(f"path {index}: d does not close back to its start")
    return np.asarray(coords[:-1], dtype=np.float64)


def _parse_color(value: str, index: int) -> np.ndarray:
    m = _RGB_RE.fullmatch(value)
    if not m:
        raise SvgParseError(f"path {index}: unsupported fill {value!r}")
    vals = [int(g) for g in m.groups()]
    if max(vals) > 255:
        raise SvgParseError(f"path {index}: rgb component above 255")
    return np.asarray(vals, dtype=np.float64) / 255.0


def _strip_ns(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _check_attrs(elem, allowed: set[str], construct: str) -> None:
    extra = set(elem.attrib) - allowed
    if extra:
        name = sorted(extra)[0]
        raise SvgParseError(f"unsupported attribute {name!r} on {construct}")


def _parse_path_elem(elem, index: int, layer_tag: str) -> VectorPath:
    _check_attrs(elem, {"d", "fill", "fill-opacity", "fill-rule"}, f"path {index}")
    for attr in ("d", "fill", "fill-opacity", "fill-rule"):
        if attr not in elem.attrib:
            raise SvgParseError(f"path {index}: missing attribute {attr!r}")
    if elem.attrib["fill-rule"] != FILL_RULE:
        raise SvgParseError(f"path {index}: unsupported fill-rule "
                            f"{elem.attrib['fill-rule']!r}")
    ctrl = _parse_d(elem.attrib["d"], index)
    if ctrl.shape[0] % 3 != 0:
        raise SvgParseError(f"path {index}: control point count not a multiple of 3")
    color = _parse_color(elem.attrib["fill"], index)
    try:
        opacity = float(elem.attrib["fill-opacity"])
    except ValueError as exc:
        raise SvgParseError(f"path {index}: malformed fill-opacity") from exc
    if not 0.0 <= opacity <= 1.0:
        raise SvgParseError(f"path {index}: fill-opacity outside [0, 1]")
    return VectorPath(control_points=ctrl, fill_color=color,
                      opacity=opacity, layer_tag=layer_tag)


def parse_svg(data: bytes) -> LayeredDocument:
    """Parse canonical (or structurally equivalent) SVG back to a document.

    Anything outside the emitted subset raises SvgParseError naming the
    offending construct.  Coordinates and colors come back with the
    serializer's quantization (3 decimals, 8-bit channels).
    """
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise SvgParseError(f"not well-formed XML: {exc}") from exc
    if _strip_ns(root.tag) != "svg" or not root.tag.startswith("{" + SVG_NS):
        raise SvgParseError("root element is not an svg in the SVG namespace")
    _check_attrs(root, {"width", "height", "viewBox"}, "svg root")
    try:
        width = int(root.attrib["width"])
        height = int(root.attrib["height"])
    except (KeyError, ValueError) as exc:
        raise SvgParseError("svg root needs integer width and height") from exc
    if width <= 0 or height <= 0:
        raise SvgParseError("svg dimensions must be positive")
    if root.attrib.get("viewBox") != f"0 0 {width} {height}":
        raise SvgParseError("viewBox must match width/height from origin")
    wrappers = list(root)
    if len(wrappers) != 1 or _strip_ns(wrappers[0].tag) != "g":
        raise SvgParseError("svg root must contain exactly one wrapper group")
    wrapper = wrappers[0]
    _check_attrs(wrapper, {"style"}, "wrapper group")
    if wrapper.attrib.get("style") != "isolation:isolate":
        raise SvgParseError("wrapper group must set style isolation:isolate")
    groups = list(wrapper)
    if len(groups) != 3:
        raise SvgParseError("wrapper must contain exactly three layer groups")
    layers: dict[str, list[VectorPath]] = {}
    path_index = 0
    for expected, elem in zip(_LAYER_ORDER, groups):
        if _strip_ns(elem.tag) != "g":
            raise SvgParseError(f"unsupported element {_strip_ns(elem.tag)!r} "
                                "in wrapper group")
        _check_attrs(elem, {"id", "style"}, f"{expected} group")
        if elem.attrib.get("id") != expected:
            raise SvgParseError(f"layer group {elem.attrib.get('id')!r} out of order; "
                                f"expected id {expected!r}")
        style = elem.attrib.get("style")
        if style != _GROUP_STYLE[expected]:
            raise SvgParseError(f"{expected} group has unsupported style {style!r}")
        children = list(elem)
        if expected == "albedo":
            if not children or _strip_ns(children[0].tag) != "rect":
                raise SvgParseError("albedo group must start with the background rect")
            rect = children[0]
            _check_attrs(rect, {"width", "height", "fill"}, "background rect")
            if (rect.attrib.get("width") != str(width)
                    or rect.attrib.get("height") != str(height)
                    or rect.attrib.get("fill") != "rgb(255,255,255)"):
                raise SvgParseError("background rect must be full-canvas white")
            children = children[1:]
        paths = []
        for child in children:
            name = _strip_ns(child.tag)
            if name != "path":
                raise SvgParseError(f"unsupported element {name!r} in {expected} group")
            paths.append(_parse_path_elem(child, path_index, expected))
            path_index += 1
        layers[expected] = paths
    return LayeredDocument(width=width, height=height, albedo=layers["albedo"],
                           illumination=[], shade=layers["shade"],
                           light=layers["light"])


def reference_composite(doc: LayeredDocument,
                        config: RasterizerConfig = RasterizerConfig(),
                        scale: int = 1) -> np.ndarray:
    """The albedo * shade + light composite that ``covec render`` writes.

    The optimizer's rasterizer draws it: ``raster.render_composite`` in
    three_layer form, on the document with its control points and canvas
    scaled by the integer ``scale`` (smoothing kept in output-pixel
    units).  Empty layers render as their blend identities (white for
    multiply, black for plus-lighter).  A render of more than
    ``MAX_REFERENCE_SAMPLES`` supersamples raises ValueError before any
    allocation.  The independent reference renderer is the test oracle
    ``tests/oracle_render.py``; this function keeps the name because
    perfbench's tracer and selftest look up ``svg_io.reference_composite``
    and ``cli.reference_composite`` by name.
    """
    if scale < 1:
        raise ValueError("scale must be >= 1")
    w, h = doc.width * scale, doc.height * scale
    samples = w * h * config.supersample ** 2
    if samples > MAX_REFERENCE_SAMPLES:
        raise ValueError(f"render of {w}x{h} px at supersample {config.supersample} "
                         f"needs {samples} samples, above the limit of "
                         f"{MAX_REFERENCE_SAMPLES}")

    def scaled(paths):
        if scale == 1:
            return paths
        return [VectorPath(control_points=p.control_points * scale,
                           fill_color=p.fill_color.copy(), opacity=p.opacity,
                           layer_tag=p.layer_tag) for p in paths]

    big = LayeredDocument(width=w, height=h, albedo=scaled(doc.albedo),
                          shade=scaled(doc.shade), light=scaled(doc.light))
    return render_composite(big, "three_layer", config)
