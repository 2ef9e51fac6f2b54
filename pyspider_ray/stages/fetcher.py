"""Synthetic fetch stage — the sandboxed stand-in for pyspider's
HTTP fetcher (S7, tornado_fetcher.py:326-428) as a Ray Data actor-pool
``map_batches`` stage.

Real-network fetching is out of scope in this sealed sandbox; the
architecture is the real part: a callable CLASS (one instance per
actor, constructor cost amortized) that maps an Arrow batch of task
rows to an Arrow batch of fetch results, never raising — every failure
becomes a row with ``status_code=599`` and ``error`` set
(handle_error parity, tornado_fetcher.py:202-216).  ``data:`` URLs are
decoded inline as synthetic 200s (S8, tornado_fetcher.py:178-200).
Page URLs resolve deterministically from the url_id to an
image+caption payload (synthweb), with an optional seeded failure rate
to exercise the retry ladder.

Swap ``SyntheticFetcher`` for an aiohttp/curl actor outside the
sandbox; the stage contract (schema in/out) is unchanged.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions import synthweb
from ..functions.buffers import binary_array


class SyntheticFetcher:
    def __init__(self, fail_permille: int = 0, fail_salt: int = 0xFA11,
                 fail_until_retry: int = 1, page_scale: int = 1,
                 session_cookies: bool = False):
        self.fail_permille = fail_permille
        self.fail_salt = fail_salt
        self.page_scale = page_scale
        # T8: when on, every 200 page response carries a deterministic
        # Set-Cookie (sid bound to the url id) so cookie-session flows
        # are exercisable in the sealed sandbox
        self.session_cookies = session_cookies
        # a failing id returns 503 until the task's ``retried`` count
        # reaches this value — deterministic across any actor-pool layout
        # (no per-actor state), exercising the W4 retry ladder
        self.fail_until_retry = fail_until_retry

    def _fetch_one(self, url: str, retried: int,
                   etag: str = "", fetch_type: str = "") -> tuple[int, bytes, str]:
        if fetch_type in ("js", "phantomjs", "splash", "puppeteer"):
            # S9 — JS-rendering fetchers need a sidecar browser service
            # (tornado_fetcher.py:430-741); out of scope in this sandbox.
            return 501, b"", f"fetch_type={fetch_type!r} not supported here"
        if url.startswith("data:"):
            # S8 — full data-URI codec incl. ;base64 and charset
            # (libs/dataurl.py:40-56 + tornado_fetcher.py:178-200)
            from ..functions.dataurl import decode as dataurl_decode
            try:
                body = dataurl_decode(url) if "," in url else ""
            except Exception:
                return 599, b"", "malformed data URI"
            if isinstance(body, str):
                body = body.encode("utf-8")
            return 200, body, ""
        try:
            url_id = synthweb.parse_url_id(url)
        except (ValueError, IndexError):
            return 599, b"", "malformed synthetic url"
        if self.fail_permille and retried < self.fail_until_retry:
            roll = int(synthweb.mix64(url_id, self.fail_salt) % np.uint64(1000))
            if roll < self.fail_permille:
                return 503, b"", "synthetic transient failure"
        # J5/M8 — conditional fetch: the previous crawl's etag rides on the
        # frontier row (track.fetch headers reuse, tornado_fetcher.py:231-277);
        # unchanged content answers 304 with no body
        if etag and etag == synthweb.page_etag(url_id):
            return 304, b"", ""
        return 200, synthweb.encode_page(url_id, self.page_scale), ""

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        n = len(urls)
        def col(name, default):
            return batch[name].to_pylist() if name in batch.column_names \
                else [default] * n
        retried = col("retried", 0)
        etags = col("etag", "")
        ftypes = col("fetch_type", "")
        codes = np.empty(n, dtype=np.int32)
        contents: list[bytes] = []
        errors: list[str] = []
        headers: list[str] = []
        for i, url in enumerate(urls):
            code, content, err = self._fetch_one(url, retried[i] or 0,
                                                 etags[i] or "",
                                                 ftypes[i] or "")
            codes[i] = code
            contents.append(content)
            errors.append(err)
            if self.session_cookies and code == 200 \
                    and not url.startswith("data:"):
                import json as _json
                uid = synthweb.parse_url_id(url)
                sid = int(synthweb.mix64(uid, 0xC00C1E) %
                          np.uint64(1 << 32))
                headers.append(_json.dumps(
                    {"Set-Cookie": f"sid={sid:08x}; Path=/"}))
            else:
                headers.append("")
        # deterministic pseudo fetch latency (metrics plumbing), derived
        # from the URL so it is independent of batch layout
        tails = [url.rsplit("/", 1)[-1] for url in urls]
        uids = np.asarray([int(t) if t.isdigit() else len(url)
                           for t, url in zip(tails, urls)], dtype=np.uint64)
        times = 0.01 + (synthweb.mix64(uids, 77) % np.uint64(50)
                        ).astype(np.float64) / 1000.0
        return (batch
                .append_column("status_code", pa.array(codes, pa.int32()))
                .append_column("content", binary_array(contents))
                .append_column("fetch_error", pa.array(errors, pa.string()))
                .append_column("resp_headers", pa.array(headers,
                                                        pa.string()))
                .append_column("fetch_time", pa.array(times, pa.float64())))
