"""Units for URL canonicalization, image codecs, synthetic web."""

import numpy as np
import pytest

from pyspider_ray.functions import (build_url, canonical_url, curl_to_arguments,
                                    md5_taskid, quote_non_ascii, url_host,
                                    urlhash64)
from pyspider_ray.functions.imaging import (decode_image, encode_image,
                                            fjpg_decode, fjpg_encode,
                                            phash64, png_decode, png_encode,
                                            psnr)
from pyspider_ray.functions import synthweb


class TestUrls:
    def test_build_url_default_path(self):
        assert build_url("http://a.com") == "http://a.com/"

    def test_build_url_params(self):
        assert build_url("http://a.com/x?k=1", {"j": "2"}) == "http://a.com/x?k=1&j=2"

    def test_idna(self):
        assert build_url("http://中文.test/p") == "http://xn--fiq228c.test/p"

    def test_quote_non_ascii(self):
        # reference golden: tests/test_utils-style percent encoding
        assert quote_non_ascii("http://a.com/中") == "http://a.com/%E4%B8%AD"
        assert quote_non_ascii("http://a.com/x") == "http://a.com/x"

    def test_md5_taskid(self):
        # md5string('http://a.com/') — pyspider/libs/utils.py:20
        import hashlib
        assert md5_taskid("http://a.com/") == hashlib.md5(b"http://a.com/").hexdigest()

    def test_urlhash_stable(self):
        assert urlhash64("http://a.com/") == urlhash64("http://a.com/")
        assert urlhash64("http://a.com/") != urlhash64("http://a.com/x")

    def test_host(self):
        assert url_host("http://Site3.Test:99/p/1") == "site3.test:99"

    def test_curl(self):
        kw = curl_to_arguments("curl -X POST -H 'A: b' -d payload http://x.com/")
        assert kw == {"method": "POST", "data": "payload",
                      "urls": ["http://x.com/"], "headers": {"A": "b"}}
        with pytest.raises(TypeError):
            curl_to_arguments("curl")


class TestImaging:
    def test_png_roundtrip_lossless(self):
        rng = np.random.default_rng(1)
        img = rng.integers(0, 256, (48, 80, 3), dtype=np.uint8)
        data = png_encode(img)
        out = png_decode(data)
        assert np.array_equal(img, out)
        assert psnr(img, out) == float("inf")

    def test_png_filters_decode(self):
        # hand-build a Sub-filtered PNG and check the generic unfilter path
        import struct
        import zlib
        img = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
        rows = []
        for y in range(2):
            line = img[y].reshape(-1).astype(np.int32)
            enc = line.copy()
            enc[3:] = (line[3:] - line[:-3]) & 0xFF
            rows.append(b"\x01" + enc.astype(np.uint8).tobytes())
        from pyspider_ray.functions.imaging import _PNG_SIG, _chunk
        ihdr = struct.pack(">IIBBBBB", 3, 2, 8, 2, 0, 0, 0)
        data = (_PNG_SIG + _chunk(b"IHDR", ihdr)
                + _chunk(b"IDAT", zlib.compress(b"".join(rows)))
                + _chunk(b"IEND", b""))
        assert np.array_equal(png_decode(data), img)

    def test_fjpg_psnr_above_40(self):
        rng = np.random.default_rng(2)
        img = rng.integers(0, 256, (64, 64, 3), dtype=np.uint8)
        out = fjpg_decode(fjpg_encode(img))
        assert psnr(img, out) >= 40.0
        assert np.max(np.abs(img.astype(int) - out.astype(int))) <= 2

    def test_fjpg_dequantize_matches_widened_reference(self):
        """Every level byte under every step decodes to
        min(v*q + q//2, 255), computed wide: the in-place uint8 decode
        must undo its wraparound exactly."""
        import struct
        import zlib
        from pyspider_ray.functions.imaging import _FJPG_MAGIC
        levels = np.arange(256, dtype=np.uint8).repeat(3).reshape(1, 256, 3)
        for q in range(256):
            data = (_FJPG_MAGIC + struct.pack(">IIB", 256, 1, q)
                    + zlib.compress(levels.tobytes()))
            want = np.minimum(levels.astype(np.int64) * q + q // 2, 255)
            got = fjpg_decode(data)
            assert got.dtype == np.uint8
            assert np.array_equal(got, want), q

    def test_dispatch(self):
        img = np.zeros((8, 8, 3), dtype=np.uint8)
        assert decode_image(encode_image(img, "png")).shape == (8, 8, 3)
        assert decode_image(encode_image(img, "jpeg")).shape == (8, 8, 3)
        with pytest.raises(NotImplementedError):
            decode_image(b"\xff\xd8\xff\xe0 real jpeg not supported")

    def test_resize_bilinear_identity_and_constant(self):
        from pyspider_ray.functions.imaging import resize_bilinear
        rng = np.random.default_rng(3)
        img = rng.integers(0, 256, (40, 56, 3), dtype=np.uint8)
        # same dims => exact identity (weights collapse to the source)
        assert np.array_equal(resize_bilinear(img, 40, 56), img)
        # constant image stays constant at any dims
        flat = np.full((33, 21, 3), 127, dtype=np.uint8)
        out = resize_bilinear(flat, 64, 8)
        assert out.shape == (64, 8, 3) and (out == 127).all()
        # grayscale (2-d) path keeps its shape
        assert resize_bilinear(img[:, :, 0], 16, 16).shape == (16, 16)

    def test_resize_bilinear_downsample_of_upsample_recovers(self):
        """2x upsample then downsample back of a SMOOTH image recovers
        it closely — the interpolation is sane, not just
        shape-correct.  (High-frequency content necessarily blurs
        under bilinear resampling, so the probe is low-frequency.)"""
        from pyspider_ray.functions.imaging import resize_bilinear
        yy, xx = np.mgrid[0:48, 0:64].astype(np.float64)
        img = np.stack([127 + 100 * np.sin(yy / 9) * np.cos(xx / 11),
                        127 + 80 * np.cos(yy / 7),
                        127 + 60 * np.sin(xx / 13)], axis=2)
        img = np.clip(np.rint(img), 0, 255).astype(np.uint8)
        h, w = img.shape[:2]
        up = resize_bilinear(img, 2 * h, 2 * w)
        back = resize_bilinear(up, h, w)
        assert psnr(img, back) >= 30.0

    def test_resize_bilinear_gradient_preserved(self):
        """Resizing a linear ramp keeps it (approximately) a ramp."""
        from pyspider_ray.functions.imaging import resize_bilinear
        ramp = np.tile(np.linspace(0, 255, 128, dtype=np.uint8)
                       [None, :, None], (32, 1, 3))
        out = resize_bilinear(ramp, 16, 64)
        col = out[8, :, 0].astype(np.float64)
        assert np.all(np.diff(col) >= 0)            # monotone
        assert abs(col[0] - 2) <= 3 and abs(col[-1] - 253) <= 3

    def test_phash_properties(self):
        img = synthweb.page_pixels(17)
        h1 = phash64(img)
        assert h1 == phash64(img)
        # lossy roundtrip keeps the perceptual hash close
        lossy = fjpg_decode(fjpg_encode(img))
        xor = (h1 ^ phash64(lossy)) & ((1 << 64) - 1)
        assert bin(xor).count("1") <= 4

    def test_phash_fast_paths_match_float_reference(self):
        # the staged integer block sums (8-aligned dims) and the
        # reduceat path (unaligned) must equal the straightforward
        # float-gray computation bit-for-bit
        def reference(pixels):
            gray = pixels.astype(np.float64) @ np.array(
                [0.299, 0.587, 0.114])
            h, w = gray.shape
            ys = np.linspace(0, h, 9).astype(int)
            xs = np.linspace(0, w, 9).astype(int)
            sums = np.add.reduceat(
                np.add.reduceat(gray, ys[:-1], axis=0), xs[:-1], axis=1)
            blocks = sums / np.outer(np.diff(ys), np.diff(xs))
            bits = (blocks > blocks.mean()).flatten()
            v = 0
            for b in bits:
                v = (v << 1) | int(b)
            return v - (1 << 64) if v >= 1 << 63 else v

        for i in range(40):
            dims = (8 * (1 + i % 13), 8 * (1 + i % 7)) if i % 2 \
                else (51 + i, 37 + 2 * i)        # aligned / unaligned
            im = np.random.default_rng(i).integers(
                0, 256, size=(*dims, 3), dtype=np.uint8)
            assert phash64(im) == reference(im), dims


class TestSynthWeb:
    def test_children_deterministic_in_range(self):
        a = synthweb.child_ids([0, 1, 2], total=1000)
        b = synthweb.child_ids([0, 1, 2], total=1000)
        assert np.array_equal(a, b)
        assert a.shape == (3, 20)
        assert a.min() >= 0 and a.max() < 1000

    def test_host_skew(self):
        ids = np.arange(10_000)
        plain = synthweb.host_of(ids, 5)
        assert set(np.unique(plain)) == set(range(5))
        skewed = synthweb.host_of(ids, 5, skew=True)
        frac0 = float(np.mean(skewed == 0))
        assert 0.35 <= frac0 <= 0.55     # 20% base + ~30% extra hot routing

    def test_payload_deterministic(self):
        p1 = synthweb.page_payload(123)
        p2 = synthweb.page_payload(123)
        assert p1 == p2
        assert p1["image_id"] == "img-000000000123"
        assert p1["fmt"] == "png"
        assert synthweb.page_fmt(124) == "jpeg"
        w, h = synthweb.page_dims(123)
        assert (w, h) == (32 + 3 * 16, 32 + 4 * 16)
        img = decode_image(p1["bytes"])
        assert img.shape == (h, w, 3)
        assert np.array_equal(img, synthweb.page_pixels(123))

    def test_page_bytes_pinned(self):
        # page_pixels reads the generator's words directly; these
        # digests were taken from the rng.integers(0, 256, uint8) stream,
        # so any divergence of the two streams shows here
        import hashlib
        pinned = {
            (0, 1): "dcebcd5ded4363913bf4877e3dce4f5e",
            (1, 2): "f0874c31bfa52f904c112ce5c81d4b63",
            (7, 3): "d1c38b28d1a00399328da69e10f6f9cf",
            (12345, 6): "85fdac08df170cc94031a0960cb7b76b",
            (10 ** 9 + 7, 5): "fdc174e161e59c34aa20cc8b0bb35604",
            (2 ** 40 + 3, 1): "ff46061d324490f534ad6bc042fbb771",
        }
        for (url_id, scale), digest in pinned.items():
            page = synthweb.encode_page(url_id, scale)
            assert hashlib.md5(page).hexdigest() == digest, (url_id, scale)

    def test_url_roundtrip(self):
        urls = synthweb.urls_of(np.array([7, 12]))
        assert urls[0] == "http://site2.test/page/7"
        assert synthweb.parse_url_id(urls[1]) == 12


class TestAsofWideKeys:
    """q_asof_join beyond the packed-key envelope: user ids > 10^9
    (>= 2^11) must take the no-packing merge path and still match
    brute force."""

    def _brute(self, events):
        import collections
        purch = collections.defaultdict(list)
        for e in events:
            if e["event_type"] == "purchase":
                purch[e["user_id"]].append((e["ts_us"], e["event_id"]))
        out = {}
        for e in events:
            if e["event_type"] != "click":
                continue
            best = None
            for ts, pid in purch.get(e["user_id"], []):
                if ts <= e["ts_us"] and (
                        best is None or (ts, pid) > best):
                    best = (ts, pid)
            if best is not None:
                out[e["event_id"]] = best[1]
        return out

    def test_wide_user_ids_match_bruteforce(self, ray_session, tmp_path):
        import numpy as np
        import pyarrow as pa
        import pyarrow.parquet as pq
        from pyspider_ray.queries import q_asof_join
        rng = np.random.RandomState(17)
        users = (rng.randint(0, 50, 600).astype(np.int64)
                 * 7_919_001_337 + 10**9)         # all > 10^9
        ts = rng.randint(0, 10**15, 600).astype(np.int64)
        kinds = rng.choice(["click", "purchase", "view"], 600,
                           p=[0.4, 0.4, 0.2])
        t = pa.table({
            "event_id": pa.array(np.arange(600, dtype=np.int64)),
            "ts": pa.array(ts).cast(pa.timestamp("us")),
            "user_id": pa.array(users),
            "event_type": pa.array(kinds.tolist(), pa.string()),
            "value": pa.array(np.zeros(600))})
        pq.write_table(t, tmp_path / "events.parquet")
        got = {r["event_id"]: r["purchase_id"]
               for r in q_asof_join(str(tmp_path)).take_all()}
        events = [{"event_id": int(i), "ts_us": int(ts[i]),
                   "user_id": int(users[i]), "event_type": str(kinds[i])}
                  for i in range(600)]
        assert got == self._brute(events)

    def test_merge_kernel_matches_packed_path(self, ray_session, sf_dir):
        """Force the merge path on the sf data (in-envelope ids) and
        check it reproduces the packed fast path's exact output."""
        import numpy as np
        from pyspider_ray import queries as q
        fast = sorted((r["event_id"], r["purchase_id"])
                      for r in q.q_asof_join(sf_dir).take_all())
        import pyarrow.parquet as pq
        t = pq.read_table(f"{sf_dir}/events.parquet",
                          columns=["event_id", "user_id", "ts",
                                   "event_type"])
        import pyarrow.compute as pc
        is_c = pc.equal(t["event_type"], "click").to_numpy(
            zero_copy_only=False)
        is_p = pc.equal(t["event_type"], "purchase").to_numpy(
            zero_copy_only=False)
        eid = t["event_id"].to_numpy()
        uid = t["user_id"].to_numpy()
        tsu = t["ts"].cast("int64").to_numpy()
        got_e, got_p = q._asof_merge(
            uid[is_p], tsu[is_p], eid[is_p],
            uid[is_c], tsu[is_c], eid[is_c])
        assert sorted(zip(got_e.tolist(), got_p.tolist())) == fast
