"""Canonical SVG serialization of layered documents, and a reference renderer.

The emitted file is a strict structural subset of SVG 1.1 plus CSS blend
modes: one isolated wrapper group holding three layer groups in fixed
order (albedo with a white background rectangle, shade with
mix-blend-mode:multiply, light with mix-blend-mode:plus-lighter).  The
serializer is canonical: parsing its output and emitting again reproduces
the bytes exactly.  ``reference_composite`` re-implements the compositing
chain from scratch (per-edge distance loops, crossing counts, explicit
source-over) to cross-check the production rasterizer.

Colors quantize to rgb() integers, so fills outside [0, 1] cannot survive
a file round trip; documents meant for files should carry displayable
colors (light paths get residual-derived colors within range in practice).
"""

from __future__ import annotations

import math
import re
import xml.etree.ElementTree as ET

import numpy as np

from .geometry import flatten_bezier
from .image_io import quantize
from .model import FILL_RULE, LayeredDocument, RasterizerConfig, VectorPath, project_color

SVG_NS = "http://www.w3.org/2000/svg"

_LAYER_ORDER = ("albedo", "shade", "light")
_GROUP_STYLE = {
    "albedo": None,
    "shade": "mix-blend-mode:multiply",
    "light": "mix-blend-mode:plus-lighter",
}


# Sample rows per band of the reference renderer, rounded down to whole
# pixel rows (at least one), so its per-edge buffers stay small: 64 x 512
# samples (256 KiB each) for the benchmark's 256 px render.
_REF_BAND_ROWS = 64

# Largest supersample canvas (output pixels times supersample squared)
# that reference_composite renders: at its peak of about 36 bytes per
# supersample, 2048 x 2048 px at supersample 2 need about 576 MiB.
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
    rejected.
    When ``out`` is given (path or binary file object), bytes are also
    written there.
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
        if hasattr(out, "write"):
            out.write(data)
        else:
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


# ---------------------------------------------------------------------------
# independent reference renderer


def _ref_sigmoid(x: np.ndarray) -> np.ndarray:
    # evaluate the logistic with explicit clipping instead of scipy
    z = np.clip(x, -700.0, 700.0)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _ref_coverage(path: VectorPath, width: int, height: int,
                  config: RasterizerConfig) -> np.ndarray:
    """Coverage via per-edge running minimum and crossing counts.

    Deliberately structured unlike the production rasterizer: no support
    window, no nearest-edge bookkeeping, one pass over edges with a
    running distance minimum and a winding accumulator.  The canvas is
    evaluated in bands of about ``_REF_BAND_ROWS`` sample rows, a whole
    number of pixel rows each, so a band's buffers stay small and each
    pixel averages samples of one band.
    """
    v = flatten_bezier(path, config).vertices
    s = config.supersample
    xs = (np.arange(width * s) + 0.5) / s
    ys = (np.arange(height * s) + 0.5) / s
    band = max(1, _REF_BAND_ROWS // s) * s
    cov = np.empty((height, width))
    for r in range(0, ys.size, band):
        cov[r // s:(r + band) // s] = _ref_band(v, xs, ys[r:r + band], config)
    return cov


def _ref_band(v: np.ndarray, xs: np.ndarray, ys: np.ndarray,
              config: RasterizerConfig) -> np.ndarray:
    """Coverage of the pixel rows whose sample rows sit at heights ``ys``.

    A sample row at height y can only be crossed by an edge with
    ``min(ay, by) <= y < max(ay, by)``, so each edge's crossing test runs
    on those rows alone; an up edge adds where the cross product is
    positive, a down edge subtracts where it is negative.  The distance
    terms ``(gx - ax) * ex`` and ``(gy - ay) * ey`` depend on the column
    and the row only, so they come from 1-D offsets joined by an outer
    sum, and the rest runs in place on three band buffers in the
    operation order of the plain full-canvas expressions, whose bits it
    reproduces.
    """
    n = v.shape[0]
    s = config.supersample
    shape = (ys.size, xs.size)
    min_d2 = np.full(shape, np.inf)
    winding = np.zeros(shape, dtype=np.int64)
    t, dx, dy = np.empty(shape), np.empty(shape), np.empty(shape)
    for e in range(n):
        ax, ay = v[e]
        bx, by = v[(e + 1) % n]
        ex, ey = bx - ax, by - ay
        rx, ry = xs - ax, ys - ay
        denom = ex * ex + ey * ey
        if denom < 1e-24:
            np.add.outer(ry ** 2, rx ** 2, out=dx)
        else:
            # t = clip(((gx - ax) * ex + (gy - ay) * ey) / denom, 0, 1)
            np.add.outer(ry * ey, rx * ex, out=t)
            t /= denom
            np.clip(t, 0.0, 1.0, out=t)
            # d2 = (gx - (ax + t * ex)) ** 2 + (gy - (ay + t * ey)) ** 2
            np.multiply(t, ex, out=dx)
            dx += ax
            np.subtract(xs, dx, out=dx)
            np.square(dx, out=dx)
            np.multiply(t, ey, out=dy)
            dy += ay
            np.subtract(ys[:, None], dy, out=dy)
            np.square(dy, out=dy)
            dx += dy
        np.minimum(min_d2, dx, out=min_d2)
        r0, r1 = np.searchsorted(ys, (min(ay, by), max(ay, by)))
        if r0 < r1:
            cross = np.subtract.outer(ex * ry[r0:r1], ey * rx)
            if ay < by:
                winding[r0:r1] += cross > 0
            else:
                winding[r0:r1] -= cross < 0
    sd = np.sqrt(min_d2, out=min_d2)
    sd[winding != 0] *= -1.0
    sigma = _ref_sigmoid(-sd / config.aa_sigma)
    return sigma.reshape(-1, s, xs.size // s, s).mean(axis=(1, 3))


def _ref_layer(paths: list[VectorPath], background: np.ndarray, width: int,
               height: int, config: RasterizerConfig) -> np.ndarray:
    img = np.broadcast_to(np.asarray(background, dtype=np.float64),
                          (height, width, 3)).copy()
    for path in paths:
        cov = _ref_coverage(path, width, height, config)
        alpha = (cov * path.opacity)[:, :, None]
        color = project_color(path.fill_color, path.layer_tag)
        img = alpha * color + (1.0 - alpha) * img
    return img


def reference_composite(doc: LayeredDocument,
                        config: RasterizerConfig = RasterizerConfig(),
                        scale: int = 1) -> np.ndarray:
    """Independent evaluation of the albedo * shade + light chain.

    Exists purely to cross-check the production rasterizer; shares only
    the Bezier flattening with it.  ``scale`` > 1 renders at an integer
    multiple of the native canvas (geometry scaled, smoothing kept in
    output-pixel units).  Empty layers render as their blend identities
    (white for multiply, black for plus-lighter).  A render of more than
    ``MAX_REFERENCE_SAMPLES`` supersamples raises ValueError before any
    allocation.
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

    a_img = _ref_layer(scaled(doc.albedo), np.ones(3), w, h, config)
    s_img = _ref_layer(scaled(doc.shade), np.ones(3), w, h, config)
    l_img = _ref_layer(scaled(doc.light), np.zeros(3), w, h, config)
    return a_img * s_img + l_img
