"""Deterministic synthetic web (FIXTURES.md F1/F2/F4).

Replaces pyspider's random bench page generator
(pyspider/webui/bench_test.py:18-31 — ``show`` random links out of a
``total`` id space) with a seeded, vectorized hash graph so that crawl
order and the URL-seen set are bit-for-bit reproducible:

    children(url_id) = mix64(SEED, url_id, k) % total   for k < show

Everything derives from ``url_id``; the synthetic fetcher materializes
page payloads (image bytes + caption) on the fly from the id, so the
10^10-id frontier never needs a pre-built table.
"""

from __future__ import annotations

import struct

import numpy as np

from .buffers import byte_view
from .imaging import encode_image, encode_image_parts, phash64

SEED = 42
DEFAULT_SHOW = 20

_WORDS = ("alpha bravo charlie delta echo foxtrot golf hotel india juliet "
          "kilo lima mike november oscar papa quebec romeo sierra tango "
          "uniform victor whiskey xray yankee zulu").split()


def mix64(*parts: np.ndarray | int) -> np.ndarray:
    """SplitMix64-style avalanche over the sum of inputs; vectorized."""
    acc = np.uint64(0x9E3779B97F4A7C15)
    with np.errstate(over="ignore"):
        for p in parts:
            acc = acc + np.asarray(p, dtype=np.uint64) * np.uint64(0xBF58476D1CE4E5B9)
            acc ^= acc >> np.uint64(30)
            acc = acc * np.uint64(0x94D049BB133111EB)
            acc ^= acc >> np.uint64(31)
    return acc


def child_ids(url_ids: np.ndarray, total: int, show: int = DEFAULT_SHOW,
              seed: int = SEED) -> np.ndarray:
    """(n, show) int64 matrix of link targets for each url_id."""
    ids = np.asarray(url_ids, dtype=np.uint64).reshape(-1, 1)
    ks = np.arange(show, dtype=np.uint64).reshape(1, -1)
    return (mix64(seed, ids, ks) % np.uint64(total)).astype(np.int64)


def host_of(url_ids: np.ndarray, n_hosts: int = 5, skew: bool = False) -> np.ndarray:
    """Host assignment; ``skew`` routes ~30% of ids to host 0
    (hot-host-splitting fixture, FIXTURES.md F4)."""
    ids = np.asarray(url_ids, dtype=np.uint64)
    base = (ids % np.uint64(n_hosts)).astype(np.int64)
    if skew:
        hot = (mix64(7, ids) % np.uint64(10)) < np.uint64(3)
        base = np.where(hot, 0, base)
    return base


def url_of(url_id: int, host_id: int) -> str:
    return f"http://site{host_id}.test/page/{url_id}"


def urls_of(url_ids: np.ndarray, n_hosts: int = 5, skew: bool = False) -> list[str]:
    hosts = host_of(url_ids, n_hosts, skew)
    return [url_of(int(u), int(h)) for u, h in zip(url_ids, hosts)]


def parse_url_id(url: str) -> int:
    return int(url.rsplit("/", 1)[1])


# -- per-id payload (FIXTURES.md F1) ----------------------------------------

def page_dims(url_id: int, scale: int = 1) -> tuple[int, int]:
    return (32 + (url_id % 5) * 16) * scale, (32 + (url_id % 7) * 16) * scale


def page_fmt(url_id: int) -> str:
    return "png" if url_id % 4 else "jpeg"


def page_pixels(url_id: int, scale: int = 1) -> np.ndarray:
    """The page's RGB pixels: the byte stream of
    ``rng.integers(0, 256, (h, w, 3), uint8)``, read straight off the
    PCG64 words (uint8 draws hand out each 64-bit word's bytes low
    first): 0.24-0.27 instead of 0.60-0.62 ms per ``page_scale=6`` page
    on a 4-vCPU x86 host.  Every page is a whole number of words, as 16
    divides both dims."""
    w, h = page_dims(url_id, scale)
    n = h * w * 3
    assert n % 8 == 0, (url_id, scale)
    rng = np.random.default_rng(SEED ^ url_id)
    words = rng.bit_generator.random_raw(n // 8).astype("<u8", copy=False)
    return words.view(np.uint8).reshape(h, w, 3)


def page_etags(url_ids) -> list[str]:
    """Deterministic content tags for conditional fetches (J5)."""
    tags = mix64(np.asarray(url_ids, dtype=np.uint64), 0xE7A6)
    return [f"W/{t:016x}" for t in tags.tolist()]


def page_etag(url_id: int) -> str:
    return page_etags([url_id])[0]


def page_caption(url_id: int) -> str:
    idx = mix64(SEED, url_id, np.arange(8)) % np.uint64(len(_WORDS))
    return f"caption {url_id}: " + " ".join(_WORDS[int(i)] for i in idx)


_PAGE_MAGIC = b"PAGE"


def encode_page(url_id: int, scale: int = 1) -> bytes:
    """Serialized synthetic page: caption + encoded image in one binary
    container (what the synthetic fetcher 'downloads').  ``scale``
    multiplies image dimensions (bench knob for heavier payloads).  The
    encoded image's pieces are joined straight into the container, so
    the container is the only full copy of them."""
    pixels = page_pixels(url_id, scale)
    # compress_level=0: see page_payload
    img = encode_image_parts(pixels, page_fmt(url_id), compress_level=0)
    cap = page_caption(url_id).encode("utf-8")
    return b"".join([_PAGE_MAGIC, struct.pack(">I", len(cap)), cap, *img])


def decode_page(data) -> tuple[str, memoryview]:
    """→ (caption, image bytes).  ``data`` is any buffer; the image is
    returned as a zero-copy unsigned-byte view of it.  Raises on
    non-page payloads."""
    data = byte_view(data)
    if data[:4] != _PAGE_MAGIC:
        raise ValueError("not a synthetic page payload")
    (n,) = struct.unpack_from(">I", data, 4)
    cap = str(data[8:8 + n], "utf-8")
    return cap, data[8 + n:]


def page_payload(url_id: int, scale: int = 1) -> dict:
    """Full fetchable page row (image_id, bytes, w, h, fmt, caption, phash)."""
    pixels = page_pixels(url_id, scale)
    fmt = page_fmt(url_id)
    w, h = page_dims(url_id, scale)
    return {
        "image_id": f"img-{url_id:012d}",
        # compress_level=0 (stored deflate blocks — still spec-conformant
        # PNG/zlib): these pixels are uniform random, hence incompressible;
        # any higher level burns 10-60x CPU in the *simulation* for the
        # same output size.  Real crawls swap in real codecs at real levels.
        "bytes": encode_image(pixels, fmt, compress_level=0),
        "w": w,
        "h": h,
        "fmt": fmt,
        "caption": page_caption(url_id),
        "phash": phash64(pixels),
    }


def robots_body(disallow_prefixes) -> str:
    """Deterministic robots.txt body for a synthetic host — what the
    sandbox 'serves' to the RobotsCache fetcher (T4)."""
    lines = ["User-agent: *"]
    lines += [f"Disallow: {p}" for p in disallow_prefixes]
    return "\n".join(lines) + "\n"
