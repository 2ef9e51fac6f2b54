"""Image payload codecs (no external image libraries in this container).

The BASELINE.json ``input_hint`` payload is rows of
``(image_id, bytes, w, h, fmt, caption, phash)`` with the per-row
invariant *decoded-pixel PSNR >= 40 dB (lossy) + exact caption
equality*.  Two codecs:

- ``png``  — a real, spec-conformant subset of PNG (8-bit RGB, filter
  types 0-4 on decode, filter 0 on encode) built on zlib.  Lossless.
- ``fjpg`` — a deterministic stand-in for JPEG (libjpeg is not
  available here): uniform quantization (step 4) + zlib.  Lossy with a
  hard error bound of ±2 per channel => PSNR ≈ 46 dB > 40 dB.
  Clearly marked; swap for a real JPEG codec outside the sandbox.

Also: ``phash64`` (8x8 mean-hash over block-averaged grayscale) and
``psnr`` for the invariant tests.  All functions are numpy-vectorized
per image and called from ``map_batches`` stages.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .buffers import byte_view

_PNG_SIG = b"\x89PNG\r\n\x1a\n"


def _chunk_parts(tag: bytes, payload: bytes) -> list:
    # CRC over tag then payload without concatenating them first
    crc = zlib.crc32(payload, zlib.crc32(tag)) & 0xFFFFFFFF
    return [struct.pack(">I", len(payload)) + tag, payload,
            struct.pack(">I", crc)]


def _chunk(tag: bytes, payload: bytes) -> bytes:
    return b"".join(_chunk_parts(tag, payload))


def _png_parts(pixels: np.ndarray, compress_level: int) -> list:
    """PNG file as a list of buffers; joining them is the file's only
    full copy (``encode_page`` joins them into its container directly)."""
    assert pixels.ndim == 3 and pixels.shape[2] == 3 and pixels.dtype == np.uint8
    h, w = pixels.shape[:2]
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    raw = np.empty((h, 1 + w * 3), dtype=np.uint8)
    raw[:, 0] = 0  # filter type None per scanline
    raw[:, 1:] = pixels.reshape(h, w * 3)
    # zlib takes the C-contiguous array via the buffer protocol —
    # .tobytes() would copy the full scanline buffer once more
    idat = zlib.compress(raw, compress_level)
    return [_PNG_SIG, _chunk(b"IHDR", ihdr), *_chunk_parts(b"IDAT", idat),
            _chunk(b"IEND", b"")]


def png_encode(pixels: np.ndarray, compress_level: int = 6) -> bytes:
    """Encode an (h, w, 3) uint8 array as PNG (color type 2, filter 0)."""
    return b"".join(_png_parts(pixels, compress_level))


def _unfilter(raw: np.ndarray, h: int, stride: int, bpp: int) -> np.ndarray:
    rows = raw.reshape(h, 1 + stride)
    ftypes = rows[:, 0]
    if not ftypes.any():
        # filter type 0 on every scanline (what png_encode emits):
        # the payload is already the pixel data
        return np.ascontiguousarray(rows[:, 1:])
    data = rows[:, 1:].astype(np.int32)
    out = np.zeros((h, stride), dtype=np.int32)
    prev = np.zeros(stride, dtype=np.int32)
    for y in range(h):
        ft = ftypes[y]
        cur = data[y].copy()
        if ft == 0:
            pass
        elif ft == 1:  # Sub
            for x in range(bpp, stride):
                cur[x] = (cur[x] + cur[x - bpp]) & 0xFF
        elif ft == 2:  # Up
            cur = (cur + prev) & 0xFF
        elif ft == 3:  # Average
            for x in range(stride):
                left = cur[x - bpp] if x >= bpp else 0
                cur[x] = (cur[x] + ((left + prev[x]) >> 1)) & 0xFF
        elif ft == 4:  # Paeth
            for x in range(stride):
                a = cur[x - bpp] if x >= bpp else 0
                b = prev[x]
                c = prev[x - bpp] if x >= bpp else 0
                p = a + b - c
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa <= pb and pa <= pc) else (b if pb <= pc else c)
                cur[x] = (cur[x] + pred) & 0xFF
        else:
            raise ValueError(f"bad PNG filter type {ft}")
        out[y] = cur
        prev = out[y]
    return out.astype(np.uint8)


def png_decode(data) -> np.ndarray:
    """Decode an 8-bit RGB PNG produced by any conformant encoder.
    ``data`` is any buffer; chunks are read as views of it, and a
    single IDAT chunk (what png_encode writes) is decompressed in place."""
    data = byte_view(data)
    if data[:8] != _PNG_SIG:
        raise ValueError("not a PNG")
    pos, w = 8, None
    idat = []
    while pos < len(data):
        (length,) = struct.unpack_from(">I", data, pos)
        tag = data[pos + 4:pos + 8]
        payload = data[pos + 8:pos + 8 + length]
        pos += 12 + length
        if tag == b"IHDR":
            w, h, depth, ctype = struct.unpack_from(">IIBB", payload, 0)
            if depth != 8 or ctype != 2:
                raise ValueError("only 8-bit RGB PNG supported")
        elif tag == b"IDAT":
            idat.append(payload)
        elif tag == b"IEND":
            break
    if w is None:
        raise ValueError("missing IHDR")
    stream = idat[0] if len(idat) == 1 else b"".join(idat)
    raw = np.frombuffer(zlib.decompress(stream), dtype=np.uint8)
    return _unfilter(raw, h, w * 3, 3).reshape(h, w, 3)


_FJPG_MAGIC = b"FJPG"
_FJPG_Q = 4  # quantization step => max abs error 2 => PSNR ~46 dB


def _fjpg_parts(pixels: np.ndarray, compress_level: int) -> list:
    assert pixels.ndim == 3 and pixels.shape[2] == 3 and pixels.dtype == np.uint8
    h, w = pixels.shape[:2]
    # uint8 floor division is exact: one pass, no widening round trip
    q = np.ascontiguousarray(pixels) // np.uint8(_FJPG_Q)
    return [_FJPG_MAGIC + struct.pack(">IIB", w, h, _FJPG_Q),
            zlib.compress(q, compress_level)]


def fjpg_encode(pixels: np.ndarray, compress_level: int = 6) -> bytes:
    """Deterministic lossy stand-in codec (STUB for real JPEG — see
    module docstring).  Error bound ±(Q/2) per channel."""
    return b"".join(_fjpg_parts(pixels, compress_level))


def fjpg_decode(data) -> np.ndarray:
    data = byte_view(data)
    if data[:4] != _FJPG_MAGIC:
        raise ValueError("not an FJPG payload")
    w, h, q = struct.unpack_from(">IIB", data, 4)
    raw = np.frombuffer(zlib.decompress(data[13:]), dtype=np.uint8)
    # min(v*q + q//2, 255) in place in uint8, with no widened copy: a
    # level above the last one that fits wrapped, and is set to 255
    pix = raw * np.uint8(q)
    pix += np.uint8(q // 2)
    pix[raw > (255 - q // 2) // max(q, 1)] = 255
    return pix.reshape(h, w, 3)


def encode_image_parts(pixels: np.ndarray, fmt: str,
                       compress_level: int = 6) -> list:
    """The encoded image as a list of buffers, for callers that embed it
    in a larger container with one join."""
    if fmt == "png":
        return _png_parts(pixels, compress_level)
    if fmt in ("jpeg", "fjpg"):
        return _fjpg_parts(pixels, compress_level)
    raise ValueError(f"unknown image format {fmt!r}")


def encode_image(pixels: np.ndarray, fmt: str,
                 compress_level: int = 6) -> bytes:
    return b"".join(encode_image_parts(pixels, fmt, compress_level))


def decode_image(data) -> np.ndarray:
    """Decode png or fjpg from any buffer (bytes, memoryview, numpy
    uint8 view, ``pa.Buffer``) without copying the encoded bytes."""
    data = byte_view(data)
    if data[:8] == _PNG_SIG:
        return png_decode(data)
    if data[:4] == _FJPG_MAGIC:
        return fjpg_decode(data)
    raise NotImplementedError(
        "real JPEG/WebP decode requires an image library not present in "
        "this container; payloads here are png or fjpg")


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB between two uint8 images."""
    diff = a.astype(np.float64) - b.astype(np.float64)
    mse = float(np.mean(diff * diff))
    if mse == 0:
        return float("inf")
    return 10.0 * np.log10(255.0 ** 2 / mse)


def resize_bilinear(px: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Vectorized bilinear resize of an (h, w, c) or (h, w) uint8 image
    — half-pixel-center sampling (the OpenCV/PIL convention), edge
    clamp, all numpy fancy-indexing (no Python per-pixel loop).  Real
    (not stubbed): the sandbox codecs hand back real pixel arrays."""
    squeeze = px.ndim == 2
    if squeeze:
        px = px[:, :, None]
    h, w = px.shape[:2]
    ys = (np.arange(out_h, dtype=np.float64) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w, dtype=np.float64) + 0.5) * (w / out_w) - 0.5
    y0 = np.clip(np.floor(ys).astype(np.int64), 0, h - 1)
    x0 = np.clip(np.floor(xs).astype(np.int64), 0, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = np.clip(ys - y0, 0.0, 1.0)[:, None, None]
    wx = np.clip(xs - x0, 0.0, 1.0)[None, :, None]
    p = px.astype(np.float64)
    top = p[y0][:, x0] * (1.0 - wx) + p[y0][:, x1] * wx
    bot = p[y1][:, x0] * (1.0 - wx) + p[y1][:, x1] * wx
    out = top * (1.0 - wy) + bot * wy
    out = np.clip(np.rint(out), 0, 255).astype(np.uint8)
    return out[:, :, 0] if squeeze else out


def _block_mean_8x8(gray: np.ndarray) -> np.ndarray:
    """Downsample an (h, w) array to 8x8 by rectangular block means."""
    h, w = gray.shape
    ys = np.linspace(0, h, 9).astype(int)
    xs = np.linspace(0, w, 9).astype(int)
    if h >= 8 and w >= 8:
        # every linspace step is >= 1 so the cut points are strictly
        # increasing — one reduceat per axis replaces 64 tiny .mean()s
        sums = np.add.reduceat(np.add.reduceat(gray, ys[:-1], axis=0),
                               xs[:-1], axis=1)
        return sums / np.outer(np.diff(ys), np.diff(xs))
    out = np.empty((8, 8), dtype=np.float64)
    for i in range(8):
        for j in range(8):
            out[i, j] = gray[ys[i]:max(ys[i + 1], ys[i] + 1),
                             xs[j]:max(xs[j + 1], xs[j] + 1)].mean()
    return out


def phash64(pixels: np.ndarray) -> int:
    """64-bit mean-hash: 8x8 block means vs their overall mean, row-major
    MSB-first, returned as signed int64 (Arrow-friendly).

    Block means are LINEAR in the channels, so the hot path sums the
    uint8 planes exactly (int64 reduceat, touching the image bytes
    once) and applies the gray weights on the 8x8 block sums — the
    obvious ``gray = pixels @ weights`` first materializes a float64
    plane 8x the image's bytes, which at multi-MPix page scales made
    pHash the single largest memory-traffic source in the crawl
    worker."""
    w8 = np.array([0.299, 0.587, 0.114])
    h, w = pixels.shape[:2]
    exact_int = pixels.dtype == np.uint8   # integer fast paths assume
    #                                        non-negative whole values
    if exact_int and pixels.ndim == 3 and h % 8 == 0 and w % 8 == 0 \
            and h and w:
        # 8-aligned dims (every synth page): two staged single-axis
        # reductions run at memory speed (a fused multi-axis
        # sum(axis=(1,3)) is ~23x slower — numpy promotes per element)
        a = np.ascontiguousarray(pixels).reshape(8, h // 8, w * 3).sum(
            axis=1, dtype=np.uint32)
        s = a.reshape(8, 8, w // 8, 3).sum(axis=2, dtype=np.int64)
        blocks = (s @ w8) / ((h // 8) * (w // 8))
    elif exact_int and pixels.ndim == 3 and h >= 8 and w >= 8:
        ys = np.linspace(0, h, 9).astype(int)
        xs = np.linspace(0, w, 9).astype(int)
        s = np.add.reduceat(pixels, ys[:-1], axis=0, dtype=np.int64)
        s = np.add.reduceat(s, xs[:-1], axis=1)
        blocks = (s @ w8) / np.outer(np.diff(ys), np.diff(xs))
    else:
        gray = pixels.astype(np.float64) @ w8
        blocks = _block_mean_8x8(gray)
    bits = (blocks > blocks.mean()).flatten()
    value = 0
    for bit in bits:
        value = (value << 1) | int(bit)
    if value >= 1 << 63:
        value -= 1 << 64
    return value
