"""PNG and PPM codecs: quantization bounds, filters, error handling."""

import itertools
import struct
import tempfile
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covec.image_io import (ImageFormatError, _read_png_planes, dequantize, quantize,
                            read_image, read_label_map, read_label_png,
                            read_png, read_ppm, write_image, write_label_png,
                            write_png, write_ppm)


def test_quantize_rounds_half_up():
    assert quantize(np.array(0.5), 255) == 128
    assert quantize(np.array(127.4 / 255.0), 255) == 127
    assert quantize(np.array(0.0), 255) == 0
    assert quantize(np.array(1.0), 65535) == 65535
    assert quantize(np.array(1.7), 255) == 255
    assert quantize(np.array(-0.3), 255) == 0


@given(st.floats(0.0, 1.0), st.sampled_from([255, 65535]))
def test_quantize_roundtrip_bound(x, maxval):
    back = dequantize(quantize(np.array(x), maxval), maxval)
    assert abs(float(back) - x) <= 1.0 / (2.0 * maxval) + 1e-12


def test_png_8bit_roundtrip(tmp_path, rng):
    img = rng.uniform(0, 1, (7, 5, 3))
    p = tmp_path / "a.png"
    write_png(p, img, bit_depth=8)
    back = read_png(p)
    assert np.array_equal(quantize(img, 255), quantize(back, 255))
    assert np.abs(back - img).max() <= 1.0 / 510.0 + 1e-12


def test_png_16bit_roundtrip_tight(tmp_path, rng):
    img = rng.uniform(0, 1, (9, 11, 3))
    p = tmp_path / "b.png"
    write_png(p, img, bit_depth=16)
    back = read_png(p)
    assert np.abs(back - img).max() <= 1.0 / 131070.0 + 1e-12


def test_png_16bit_big_endian_layout(tmp_path):
    img = np.zeros((1, 2, 3))
    img[0, 0] = [1.0, 0.0, 0.0]
    img[0, 1] = [0.0, 258.0 / 65535.0, 0.0]
    p = tmp_path / "c.png"
    write_png(p, img, bit_depth=16)
    data = p.read_bytes()
    start = data.index(b"IDAT") + 4
    end = data.index(b"IEND") - 8
    raw = zlib.decompress(data[start:end])
    # filter byte 0 then 16-bit big-endian samples
    assert raw[0] == 0
    samples = struct.unpack(">6H", raw[1:13])
    assert samples == (65535, 0, 0, 0, 258, 0)


def _chunk(tag, payload):
    body = tag + payload
    return (struct.pack(">I", len(payload)) + body
            + struct.pack(">I", zlib.crc32(body) & 0xFFFFFFFF))


def _png_bytes(width, height, bit_depth, color_type, idat,
               interlace=0) -> bytes:
    ihdr = struct.pack(">IIBBBBB", width, height, bit_depth, color_type,
                       0, 0, interlace)
    return (b"\x89PNG\r\n\x1a\n" + _chunk(b"IHDR", ihdr)
            + _chunk(b"IDAT", zlib.compress(idat)) + _chunk(b"IEND", b""))


def _paeth_ref(a, b, c):
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    if pa <= pb and pa <= pc:
        return a
    if pb <= pc:
        return b
    return c


def _apply_filter(ftype, row, prev, bpp):
    out = bytearray()
    for i, x in enumerate(row):
        a = row[i - bpp] if i >= bpp else 0
        b = prev[i] if prev is not None else 0
        c = prev[i - bpp] if (prev is not None and i >= bpp) else 0
        if ftype == 0:
            out.append(x)
        elif ftype == 1:
            out.append((x - a) & 0xFF)
        elif ftype == 2:
            out.append((x - b) & 0xFF)
        elif ftype == 3:
            out.append((x - (a + b) // 2) & 0xFF)
        else:
            out.append((x - _paeth_ref(a, b, c)) & 0xFF)
    return bytes(out)


@pytest.mark.parametrize("ftype", [0, 1, 2, 3, 4, "mixed"])
def test_png_filters_decode(tmp_path, ftype, rng):
    # encode each row with one filter type (or rows of all five types, in
    # an order that puts each after another) and expect exact recovery of
    # the samples, at every byte width: gray, RGB and RGBA at 8 and 16 bits
    h, w = 5, 4
    rows = [ftype] * h if ftype != "mixed" else [2, 4, 1, 3, 0]
    for depth, (ctype, channels) in itertools.product((8, 16), ((0, 1), (2, 3), (6, 4))):
        samples = rng.integers(0, 1 << depth, (h, w, channels))
        scan = samples.astype(">u2").view(np.uint8) if depth == 16 else samples.astype(np.uint8)
        bpp = channels * depth // 8
        raw = bytearray()
        prev = None
        for y, row_type in enumerate(rows):
            row = scan[y].tobytes()
            raw.append(row_type)
            raw.extend(_apply_filter(row_type, row, prev, bpp))
            prev = row
        p = tmp_path / f"f{ftype}_{depth}_{ctype}.png"
        p.write_bytes(_png_bytes(w, h, depth, ctype, bytes(raw)))
        planes, _depth, _ctype = _read_png_planes(p)
        assert np.array_equal(planes, samples), (depth, ctype)


def test_png_grayscale_replicates_channels(tmp_path):
    raw = bytes([0, 0, 128, 255])
    p = tmp_path / "g.png"
    p.write_bytes(_png_bytes(3, 1, 8, 0, raw))
    img = read_png(p)
    assert img.shape == (1, 3, 3)
    assert np.allclose(img[0, 1], 128 / 255.0)
    assert np.all(img[:, :, 0] == img[:, :, 1])


def test_png_rgba_composites_over_white(tmp_path):
    # one opaque red pixel, one fully transparent, one half red
    raw = bytes([0, 255, 0, 0, 255, 10, 20, 30, 0, 255, 0, 0, 128])
    p = tmp_path / "h.png"
    p.write_bytes(_png_bytes(3, 1, 8, 6, raw))
    img = read_png(p)
    assert np.allclose(img[0, 0], [1.0, 0.0, 0.0])
    assert np.allclose(img[0, 1], [1.0, 1.0, 1.0])
    a = 128 / 255.0
    assert np.allclose(img[0, 2], [a + (1 - a), (1 - a), (1 - a)], atol=1e-12)


def test_png_rejects_unsupported(tmp_path):
    p = tmp_path / "bad.png"
    p.write_bytes(b"NOTAPNG")
    with pytest.raises(ImageFormatError):
        read_png(p)
    p.write_bytes(_png_bytes(2, 1, 4, 0, bytes([0, 0, 0])))
    with pytest.raises(ImageFormatError, match="bit depth"):
        read_png(p)
    p.write_bytes(_png_bytes(2, 1, 8, 3, bytes([0, 0, 0])))
    with pytest.raises(ImageFormatError):
        read_png(p)
    p.write_bytes(_png_bytes(2, 1, 8, 0, bytes([0, 0, 0]), interlace=1))
    with pytest.raises(ImageFormatError, match="interlac"):
        read_png(p)


def test_png_rejects_malformed_header(tmp_path):
    p = tmp_path / "m.png"
    magic = b"\x89PNG\r\n\x1a\n"
    ihdr = struct.pack(">IIBBBBB", 2, 1, 8, 0, 0, 0, 0)
    p.write_bytes(magic + _chunk(b"IHDR", ihdr)
                  + _chunk(b"IDAT", b"not a zlib stream") + _chunk(b"IEND", b""))
    with pytest.raises(ImageFormatError, match="corrupt"):
        read_png(p)
    for width, height in ((0, 1), (2, 0)):
        p.write_bytes(_png_bytes(width, height, 8, 0, b""))
        with pytest.raises(ImageFormatError, match="empty"):
            read_png(p)
    p.write_bytes(magic + _chunk(b"IHDR", ihdr[:12]) + _chunk(b"IEND", b""))
    with pytest.raises(ImageFormatError, match="IHDR"):
        read_png(p)


def test_png_rejects_stale_chunk_crc(tmp_path):
    # another image's IDAT data, which inflates and decodes, under the
    # original chunk's CRC
    data = _png_bytes(2, 1, 8, 0, bytes([0, 10, 20]))
    other = zlib.compress(bytes([0, 200, 100]))
    start = data.index(b"IDAT") + 4
    assert len(other) == len(zlib.compress(bytes([0, 10, 20])))
    p = tmp_path / "stale.png"
    p.write_bytes(data[:start] + other + data[start + len(other):])
    with pytest.raises(ImageFormatError, match="corrupt PNG.*CRC"):
        read_png(p)


def test_png_rejects_truncated_chunk(tmp_path):
    data = _png_bytes(2, 1, 8, 0, bytes([0, 10, 20]))
    crc_end = data.index(b"IEND") - 4
    p = tmp_path / "cut.png"
    # the file ends inside the IDAT chunk's CRC, with its data whole
    p.write_bytes(data[:crc_end - 2])
    with pytest.raises(ImageFormatError, match="corrupt PNG.*truncated"):
        read_png(p)
    # the IDAT chunk declares a length that runs past the end of the file
    length_at = data.index(b"IDAT") - 4
    (length,) = struct.unpack(">I", data[length_at:length_at + 4])
    p.write_bytes(data[:length_at] + struct.pack(">I", length + 64)
                  + data[length_at + 4:])
    with pytest.raises(ImageFormatError, match="corrupt PNG.*truncated"):
        read_png(p)


def test_png_bomb_inflates_only_the_declared_size(tmp_path):
    # 32 MiB of zeros behind an 8x8 grayscale header, which needs 72 bytes
    deflate = zlib.compressobj(9)
    zeros = bytes(1 << 20)
    idat = b"".join(deflate.compress(zeros) for _ in range(32)) + deflate.flush()
    ihdr = struct.pack(">IIBBBBB", 8, 8, 8, 0, 0, 0, 0)
    p = tmp_path / "bomb.png"
    p.write_bytes(b"\x89PNG\r\n\x1a\n" + _chunk(b"IHDR", ihdr)
                  + _chunk(b"IDAT", idat) + _chunk(b"IEND", b""))
    tracemalloc.start()
    try:
        with pytest.raises(ImageFormatError, match="wrong length"):
            read_png(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_png_rejects_zlib_stream_without_checksum(tmp_path):
    # every pixel byte inflates, but the stream stops before its Adler-32
    ihdr = struct.pack(">IIBBBBB", 2, 1, 8, 0, 0, 0, 0)
    idat = zlib.compress(bytes([0, 10, 20]))[:-4]
    p = tmp_path / "cut.png"
    p.write_bytes(b"\x89PNG\r\n\x1a\n" + _chunk(b"IHDR", ihdr)
                  + _chunk(b"IDAT", idat) + _chunk(b"IEND", b""))
    with pytest.raises(ImageFormatError, match="corrupt PNG image data"):
        read_png(p)


def test_label_png_roundtrip(tmp_path):
    labels = np.array([[0, 1, 2], [300, 2, 1]], dtype=np.int64)
    p = tmp_path / "lab.png"
    write_label_png(p, labels)
    assert np.array_equal(read_label_png(p), labels)
    assert np.array_equal(read_label_map(p), labels)


def test_label_png_small_values_use_8bit(tmp_path):
    labels = np.array([[0, 3], [2, 1]])
    p = tmp_path / "lab8.png"
    write_label_png(p, labels)
    assert np.array_equal(read_label_png(p), labels)


def test_label_png_rejects_out_of_range(tmp_path):
    with pytest.raises(ValueError):
        write_label_png(tmp_path / "x.png", np.array([[70000]]))
    with pytest.raises(ValueError):
        write_label_png(tmp_path / "x.png", np.array([[-1]]))


def test_label_read_rejects_color(tmp_path):
    p = tmp_path / "c.png"
    write_png(p, np.zeros((2, 2, 3)))
    with pytest.raises(ImageFormatError):
        read_label_png(p)


def test_ppm_roundtrip(tmp_path, rng):
    img = rng.uniform(0, 1, (6, 4, 3))
    p8 = tmp_path / "a.ppm"
    write_ppm(p8, img, maxval=255)
    assert np.abs(read_ppm(p8) - img).max() <= 1.0 / 510.0 + 1e-12
    p16 = tmp_path / "b.ppm"
    write_ppm(p16, img, maxval=65535)
    assert np.abs(read_ppm(p16) - img).max() <= 1.0 / 131070.0 + 1e-12


def test_ppm_header_comments(tmp_path):
    p = tmp_path / "c.ppm"
    p.write_bytes(b"P6 # comment\n# another\n 2 1\n255\n" + bytes(6))
    img = read_ppm(p)
    assert img.shape == (1, 2, 3)
    assert np.all(img == 0)


def test_ppm_rejects_bad_header(tmp_path):
    p = tmp_path / "d.ppm"
    p.write_bytes(b"P5 2 1 255\n" + bytes(2))
    with pytest.raises(ImageFormatError):
        read_ppm(p)
    p.write_bytes(b"P6 2 1 70000\n" + bytes(12))
    with pytest.raises(ImageFormatError):
        read_ppm(p)
    p.write_bytes(b"P6 2 1 255\n" + bytes(3))
    with pytest.raises(ImageFormatError, match="truncated"):
        read_ppm(p)
    for header in (b"P6 -4 4 255\n", b"P6 4 +4 255\n", b"P6 4 4 2_55\n"):
        p.write_bytes(header + bytes(48))
        with pytest.raises(ImageFormatError, match="decimal"):
            read_ppm(p)
    p.write_bytes(b"P6 0 4 255\n")
    with pytest.raises(ImageFormatError, match="empty"):
        read_ppm(p)


def test_dispatch_by_extension(tmp_path, rng):
    img = rng.uniform(0, 1, (3, 3, 3))
    for name in ("x.png", "x.ppm", "x.pnm"):
        p = tmp_path / name
        write_image(p, img)
        assert read_image(p).shape == (3, 3, 3)
    with pytest.raises(ValueError, match="extension"):
        write_image(tmp_path / "x.bmp", img)
    with pytest.raises(ValueError, match="extension"):
        read_image(tmp_path / "x.gif")


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([8, 16]))
def test_png_roundtrip_property(seed, depth):
    rng = np.random.default_rng(seed)
    img = rng.uniform(0, 1, (int(rng.integers(1, 9)),
                             int(rng.integers(1, 9)), 3))
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "r.png"
        write_png(p, img, bit_depth=depth)
        maxval = (1 << depth) - 1
        assert np.abs(read_png(p) - img).max() <= 1.0 / (2 * maxval) + 1e-12
