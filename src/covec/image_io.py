"""Minimal raster file I/O: PNG (8/16-bit gray, RGB, RGBA) and binary PPM.

The PNG side is a small self-contained codec over zlib: no palette, no
interlacing, filters 0 through 4 on read, filter 0 on write.  16-bit
support exists so float images survive a write/read round trip with error
at most 1/(2*65535) per channel, which 8-bit formats cannot promise.

Float images are (H, W, 3) float64 in [0, 1] (values outside are clamped
at write time).  Quantization rounds half up: q = floor(x * maxval + 0.5).
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np

_PNG_MAGIC = b"\x89PNG\r\n\x1a\n"

# supported color type (gray, RGB, RGBA) -> channel count
_CHANNELS = {0: 1, 2: 3, 6: 4}


class ImageFormatError(ValueError):
    """Raised when a file is not a supported PNG or PPM variant."""


def quantize(img: np.ndarray, maxval: int) -> np.ndarray:
    """Map floats in [0, 1] to integers in [0, maxval], rounding half up."""
    x = np.clip(np.asarray(img, dtype=np.float64), 0.0, 1.0)
    return np.floor(x * maxval + 0.5).astype(np.uint32)


def dequantize(q: np.ndarray, maxval: int) -> np.ndarray:
    """Map integers in [0, maxval] back to floats in [0, 1]."""
    return q.astype(np.float64) / maxval


# ---------------------------------------------------------------------------
# PNG


def _chunk(tag: bytes, payload: bytes) -> bytes:
    crc = zlib.crc32(tag + payload) & 0xFFFFFFFF
    return struct.pack(">I", len(payload)) + tag + payload + struct.pack(">I", crc)


def _png_bytes(scan: np.ndarray, w: int, h: int, bit_depth: int,
               color_type: int) -> bytes:
    """A complete PNG file from (h, row bytes) scanlines, all filter type 0."""
    filtered = np.concatenate([np.zeros((h, 1), np.uint8), scan], axis=1)
    ihdr = struct.pack(">IIBBBBB", w, h, bit_depth, color_type, 0, 0, 0)
    return (_PNG_MAGIC + _chunk(b"IHDR", ihdr)
            + _chunk(b"IDAT", zlib.compress(filtered.tobytes(), 6))
            + _chunk(b"IEND", b""))


def write_png(path, img: np.ndarray, bit_depth: int = 8) -> None:
    """Write an (H, W, 3) float image as truecolor PNG at 8 or 16 bits."""
    if bit_depth not in (8, 16):
        raise ImageFormatError(f"unsupported bit depth {bit_depth}")
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError("image must have shape (H, W, 3)")
    h, w = img.shape[:2]
    maxval = (1 << bit_depth) - 1
    q = quantize(img, maxval)
    if bit_depth == 8:
        raw = q.astype(np.uint8)
        scan = raw.reshape(h, w * 3)
    else:
        raw = q.astype(">u2")
        scan = raw.view(np.uint8).reshape(h, w * 6)
    Path(path).write_bytes(_png_bytes(scan, w, h, bit_depth, 2))


def write_label_png(path, labels: np.ndarray) -> None:
    """Write an integer label map as an 8- or 16-bit grayscale PNG."""
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise ValueError("label map must be 2-D")
    if labels.min() < 0:
        raise ValueError("labels must be nonnegative")
    bit_depth = 8 if labels.max() <= 255 else 16
    h, w = labels.shape
    if bit_depth == 8:
        scan = labels.astype(np.uint8).reshape(h, w)
    else:
        if labels.max() > 65535:
            raise ValueError("labels above 65535 are unsupported")
        scan = labels.astype(">u2").view(np.uint8).reshape(h, w * 2)
    Path(path).write_bytes(_png_bytes(scan, w, h, bit_depth, 0))


def _paeth(a: int, b: int, c: int) -> int:
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    if pa <= pb and pa <= pc:
        return a
    if pb <= pc:
        return b
    return c


def _unfilter(raw: bytes, width: int, height: int, bpp: int) -> np.ndarray:
    """Undo per-scanline PNG filtering; returns (height, width*bpp) bytes."""
    stride = width * bpp
    if len(raw) != height * (stride + 1):
        raise ImageFormatError("decompressed PNG data has the wrong length")
    out = np.zeros((height, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.uint8)
    for row in range(height):
        pos = row * (stride + 1)
        ftype = raw[pos]
        line = np.frombuffer(raw, np.uint8, stride, pos + 1)
        if ftype == 0:
            out[row] = line
        elif ftype == 1:  # Sub: a running sum along the row per byte of the pixel, mod 256
            out[row] = np.cumsum(line.reshape(width, bpp), axis=0, dtype=np.uint8).ravel()
        elif ftype == 2:  # Up
            out[row] = line + prev
        elif ftype in (3, 4):  # Average / Paeth: a left scan over Python ints
            cur = [0] * bpp + line.tolist()
            up = [0] * bpp + prev.tolist()
            for i in range(bpp, bpp + stride):
                left = cur[i - bpp]
                pred = (left + up[i]) // 2 if ftype == 3 else _paeth(left, up[i], up[i - bpp])
                cur[i] = (cur[i] + pred) & 0xFF
            out[row] = cur[bpp:]
        else:
            raise ImageFormatError(f"unknown PNG filter type {ftype}")
        prev = out[row]
    return out


def _read_png_planes(path) -> tuple[np.ndarray, int, int]:
    """Decode a PNG into (H, W, channels) integer samples plus depth/type.

    Every chunk up to IEND must be whole and pass its CRC-32 over type and
    data; a damaged or truncated one raises ImageFormatError.
    """
    data = Path(path).read_bytes()
    if not data.startswith(_PNG_MAGIC):
        raise ImageFormatError("not a PNG file")
    pos = len(_PNG_MAGIC)
    ihdr = None
    idat = bytearray()
    while pos + 8 <= len(data):
        length, tag = struct.unpack(">I4s", data[pos:pos + 8])
        end = pos + 8 + length
        name = tag.decode("latin-1")
        if end + 4 > len(data):
            raise ImageFormatError(f"corrupt PNG: {name} chunk truncated")
        payload = data[pos + 8:end]
        if zlib.crc32(tag + payload) != struct.unpack(">I", data[end:end + 4])[0]:
            raise ImageFormatError(f"corrupt PNG: {name} chunk fails its CRC check")
        pos = end + 4
        if tag == b"IHDR":
            ihdr = payload
        elif tag == b"IDAT":
            idat.extend(payload)
        elif tag == b"IEND":
            break
    if ihdr is None or len(ihdr) != 13:
        raise ImageFormatError("PNG IHDR chunk missing or malformed")
    w, h, depth, ctype, comp, filt, interlace = struct.unpack(">IIBBBBB", ihdr)
    if w < 1 or h < 1:
        raise ImageFormatError(f"PNG size {w}x{h} is empty")
    if depth not in (8, 16):
        raise ImageFormatError(f"unsupported PNG bit depth {depth}")
    if ctype not in _CHANNELS:
        raise ImageFormatError(f"unsupported PNG color type {ctype}")
    if comp != 0 or filt != 0:
        raise ImageFormatError("unsupported PNG compression or filter method")
    if interlace != 0:
        raise ImageFormatError("interlaced PNG is unsupported")
    channels = _CHANNELS[ctype]
    bpp = channels * depth // 8
    expected = h * (w * bpp + 1)
    inflate = zlib.decompressobj()
    try:
        # one byte past the expected length is enough to reject a stream
        # that inflates to more, however much more it would inflate to
        raw = inflate.decompress(bytes(idat), expected + 1)
    except zlib.error as exc:
        raise ImageFormatError(f"corrupt PNG image data: {exc}") from exc
    if not inflate.eof and len(raw) <= expected:
        raise ImageFormatError("corrupt PNG image data: incomplete or truncated stream")
    rows = _unfilter(raw, w, h, bpp)
    samples = rows if depth == 8 else rows.view(">u2")
    return samples.reshape(h, w, channels).astype(np.uint32), depth, ctype


def read_png(path) -> np.ndarray:
    """Read a PNG as (H, W, 3) float64 in [0, 1].

    Grayscale replicates to RGB; RGBA composites over white using
    straight alpha.
    """
    planes, depth, ctype = _read_png_planes(path)
    x = dequantize(planes, (1 << depth) - 1)
    if ctype == 0:
        return np.repeat(x, 3, axis=2)
    if ctype == 2:
        return x
    rgb, alpha = x[:, :, :3], x[:, :, 3:4]
    return rgb * alpha + (1.0 - alpha)


def read_label_png(path) -> np.ndarray:
    """Read a grayscale PNG as raw integer labels (no rescaling)."""
    planes, _depth, ctype = _read_png_planes(path)
    if ctype != 0:
        raise ImageFormatError("label maps must be single-channel grayscale")
    return planes[:, :, 0].astype(np.int64)


# ---------------------------------------------------------------------------
# PPM (binary, P6)


def write_ppm(path, img: np.ndarray, maxval: int = 255) -> None:
    """Write an (H, W, 3) float image as binary PPM (P6)."""
    if not 0 < maxval < 65536:
        raise ImageFormatError(f"invalid PPM maxval {maxval}")
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError("image must have shape (H, W, 3)")
    h, w = img.shape[:2]
    q = quantize(img, maxval)
    header = f"P6\n{w} {h}\n{maxval}\n".encode("ascii")
    if maxval < 256:
        body = q.astype(np.uint8).tobytes()
    else:
        body = q.astype(">u2").tobytes()
    Path(path).write_bytes(header + body)


def _ppm_token(data: bytes, pos: int) -> tuple[bytes, int]:
    while pos < len(data):
        c = data[pos:pos + 1]
        if c == b"#":
            while pos < len(data) and data[pos:pos + 1] != b"\n":
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < len(data) and not data[pos:pos + 1].isspace():
        pos += 1
    if start == pos:
        raise ImageFormatError("truncated PPM header")
    return data[start:pos], pos


def read_ppm(path) -> np.ndarray:
    """Read a binary PPM (P6, maxval up to 65535) as float64 in [0, 1]."""
    data = Path(path).read_bytes()
    magic, pos = _ppm_token(data, 0)
    if magic != b"P6":
        raise ImageFormatError("not a binary PPM (P6) file")
    w_tok, pos = _ppm_token(data, pos)
    h_tok, pos = _ppm_token(data, pos)
    m_tok, pos = _ppm_token(data, pos)
    if not (w_tok.isdigit() and h_tok.isdigit() and m_tok.isdigit()):
        raise ImageFormatError("PPM width, height and maxval must be decimal numbers")
    w, h, maxval = int(w_tok), int(h_tok), int(m_tok)
    if w < 1 or h < 1:
        raise ImageFormatError(f"PPM size {w}x{h} is empty")
    if not 0 < maxval < 65536:
        raise ImageFormatError(f"invalid PPM maxval {maxval}")
    pos += 1  # single whitespace byte after maxval
    need = w * h * 3 * (1 if maxval < 256 else 2)
    if len(data) - pos < need:
        raise ImageFormatError("truncated PPM pixel data")
    dtype = np.uint8 if maxval < 256 else np.dtype(">u2")
    raw = np.frombuffer(data, dtype, w * h * 3, pos).astype(np.uint32)
    return dequantize(raw.reshape(h, w, 3), maxval)


# ---------------------------------------------------------------------------
# dispatch by extension: the format each file suffix reads and writes
_FORMATS = {".png": "png", ".ppm": "ppm", ".pnm": "ppm"}


def image_format(path) -> str:
    """The format read_image and write_image use for ``path``'s suffix."""
    suffix = Path(path).suffix.lower()
    if suffix not in _FORMATS:
        raise ImageFormatError(f"unsupported image extension {suffix!r}")
    return _FORMATS[suffix]


def read_image(path) -> np.ndarray:
    """Read PNG or PPM by extension as (H, W, 3) float64 in [0, 1]."""
    if image_format(path) == "png":
        return read_png(path)
    return read_ppm(path)


def write_image(path, img: np.ndarray, bit_depth: int = 8) -> None:
    """Write PNG or PPM by extension."""
    if image_format(path) == "png":
        write_png(path, img, bit_depth=bit_depth)
    else:
        write_ppm(path, img, maxval=(1 << bit_depth) - 1)


def read_label_map(path) -> np.ndarray:
    """Read an integer label map from a grayscale PNG."""
    return read_label_png(path)
