"""Real HTTP fetch stage (S7) — stdlib urllib + a per-actor thread
pool, same Arrow batch contract as ``SyntheticFetcher`` so it swaps in
via ``CrawlConfig.fetcher_cls``.

Semantics mirrored from the reference's tornado fetcher
(fetcher/tornado_fetcher.py):

- request construction is ``functions.requests_pack.pack_request``
  (headers merge, conditional GET via etag/last-modified, cookies,
  proxy, redirects, timeouts — :220-287);
- ``handle_error`` parity (:202-216): the stage NEVER raises; HTTP
  errors keep their status code and body, transport errors become
  status 599 rows with the error text;
- 100-way concurrency inside the fetch stage (the reference's
  ``poolsize``, run.py:235) — here a thread pool sized by
  ``pool_size``, amortized per actor;
- gzip bodies are decoded when Content-Encoding says so;
- per-response headers (incl. Set-Cookie) ride the ``resp_headers``
  column into the handler data plane (cookie sessions, T8).

Redirect policy: ``allow_redirects`` (default True) follows up to
``max_redirects`` (default 5) by hand so every hop honors the packed
headers; a redirect overflow yields 599 like the reference's tornado
error path.

No network exists in the build sandbox — tests drive this against a
loopback ``http.server`` (tests/test_http_fetcher.py), which is also
how the robots/conditional-GET behavior is verified end-to-end.
"""

from __future__ import annotations

import gzip
import json
import time
import urllib.error
import urllib.parse
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pyarrow as pa

from ..functions.buffers import binary_array
from ..functions.requests_pack import pack_request


class _NoRedirect(urllib.request.HTTPRedirectHandler):
    def redirect_request(self, req, fp, code, msg, headers, newurl):
        return None


def _parse_set_cookies(headers) -> dict:
    """name→value pairs from every Set-Cookie header of a response."""
    if hasattr(headers, "get_all"):
        raw = headers.get_all("Set-Cookie") or []
    else:
        sc = headers.get("Set-Cookie")
        raw = [sc] if sc else []
    jar = {}
    for line in raw:
        first = line.split(";", 1)[0]
        if "=" in first:
            k, v = first.split("=", 1)
            jar[k.strip()] = v.strip()
    return jar


def _merge_cookie_header(headers: dict, jar: dict) -> None:
    """Fold jar cookies into the request's Cookie header (jar wins on
    name collisions — the latest Set-Cookie is authoritative)."""
    existing: dict = {}
    for h in [h for h in headers if h.lower() == "cookie"]:
        for part in headers.pop(h).split(";"):
            if "=" in part:
                k, v = part.split("=", 1)
                existing[k.strip()] = v.strip()
    merged = {**existing, **jar}
    if merged:
        headers["Cookie"] = "; ".join(f"{k}={v}"
                                      for k, v in merged.items())


class HttpFetcher:
    JS_FIELDS = ("js_script", "js_run_at", "js_viewport_width",
                 "js_viewport_height", "load_images", "fetch_type")

    def __init__(self, user_agent: str = "pyspider-ray/1.0",
                 pool_size: int = 16, timeout: float = 30.0,
                 proxy: str | None = None, js_proxy: str | None = None,
                 **_ignored):
        self.user_agent = user_agent
        self.timeout = timeout
        self.proxy = proxy
        # S9 — JS-rendering sidecar (the reference's phantomjs_proxy,
        # tornado_fetcher.py:430-529): the full request spec POSTs as
        # JSON to this URL and the response body IS the result dict.
        # The rendering engine is external by design; the protocol
        # plumbing here is complete and tested against a fake sidecar.
        self.js_proxy = js_proxy
        self.pool = ThreadPoolExecutor(max_workers=pool_size)
        # redirects are followed manually (per-hop header control)
        self.opener = urllib.request.build_opener(_NoRedirect)

    def _js_fetch(self, url: str, task: dict) -> dict:
        """Sidecar-rendered fetch: POST the packed spec, parse the
        result JSON (status_code/content/headers/time contract)."""
        t0 = time.monotonic()
        if not self.js_proxy:
            return {"code": 501, "content": b"phantomjs is not enabled.",
                    "headers": {}, "error": "", "time": 0.0}
        spec = pack_request(url, task, user_agent=self.user_agent,
                            fetcher_proxy=self.proxy)
        task_fetch = task.get("fetch", {}) or {}
        for k in self.JS_FIELDS:
            if k in task_fetch and k not in spec:
                spec[k] = task_fetch[k]
        try:
            req = urllib.request.Request(
                self.js_proxy, data=json.dumps(spec).encode(),
                headers={"Content-Type": "application/json"},
                method="POST")
            resp = self.opener.open(req, timeout=self.timeout + 1)
            result = json.loads(resp.read().decode("utf-8", "replace"))
            assert "status_code" in result, result
            content = result.get("content", "")
            if isinstance(content, str):
                content = content.encode("utf-8")
            return {"code": int(result["status_code"]),
                    "content": content,
                    "headers": result.get("headers") or {},
                    "error": result.get("error") or "",
                    "time": float(result.get("time",
                                             time.monotonic() - t0))}
        except Exception as exc:
            return {"code": 599, "content": b"", "headers": {},
                    "error": f"js sidecar: {exc}",
                    "time": time.monotonic() - t0}

    def _one_hop(self, spec: dict):
        req = urllib.request.Request(
            spec["url"], data=(spec.get("body") or "").encode() or None,
            headers=spec.get("headers") or {},
            method=spec.get("method", "GET"))
        timeout = min(float(spec.get("request_timeout") or self.timeout),
                      self.timeout)
        return self.opener.open(req, timeout=timeout)

    @staticmethod
    def _body(resp) -> bytes:
        content = resp.read()
        if (resp.headers.get("Content-Encoding") or "").lower() == "gzip":
            try:
                content = gzip.decompress(content)
            except OSError:
                pass
        return content

    def _fetch_one(self, url: str, task: dict) -> dict:
        t0 = time.monotonic()
        ftype = (task.get("fetch") or {}).get("fetch_type") or ""
        if ftype in ("js", "phantomjs", "splash", "puppeteer", "chrome"):
            return self._js_fetch(url, task)
        if url.startswith("data:"):
            # control tasks / inline payloads: the reference's
            # data_fetch path (tornado_fetcher.py:178-200)
            from ..functions.dataurl import decode as dataurl_decode
            try:
                body = dataurl_decode(url) if "," in url else ""
            except Exception as exc:
                return {"code": 599, "content": b"", "headers": {},
                        "error": f"bad data URI: {exc}", "time": 0.0}
            if isinstance(body, str):
                body = body.encode("utf-8")
            return {"code": 200, "content": body, "headers": {},
                    "error": "", "time": 0.0}
        spec = pack_request(url, task, user_agent=self.user_agent,
                            fetcher_proxy=self.proxy)
        hops = 0
        max_redirects = int(spec.get("max_redirects", 5))
        follow = bool(spec.get("follow_redirects", True))
        jar: dict = {}   # cookie jar threaded across redirect hops
        try:
            while True:
                try:
                    resp = self._one_hop(spec)
                except urllib.error.HTTPError as e:
                    if e.code in (301, 302, 303, 307, 308) and follow:
                        loc = e.headers.get("Location")
                        if not loc:
                            raise
                        hops += 1
                        if hops > max_redirects:
                            return {"code": 599, "content": b"",
                                    "headers": {},
                                    "error": "too many redirects",
                                    "time": time.monotonic() - t0}
                        # cookie-jar carry across hops (the reference
                        # threads a RequestsCookieJar through every
                        # redirect, tornado_fetcher.py:337-351, 388):
                        # fold this hop's Set-Cookie into the next hop
                        jar.update(_parse_set_cookies(e.headers))
                        old_host = urllib.parse.urlsplit(
                            spec["url"]).netloc
                        new_url = urllib.parse.urljoin(spec["url"], loc)
                        spec["url"] = new_url
                        if e.code == 303 or (
                                e.code in (301, 302) and
                                (spec.get("method") or "GET").upper()
                                == "POST"):
                            # 303 always; 301/302 POST→GET to match
                            # common client behavior
                            spec["method"] = "GET"
                            spec.pop("body", None)
                        headers = spec.setdefault("headers", {})
                        if urllib.parse.urlsplit(new_url).netloc \
                                != old_host:
                            # never leak credentials cross-host
                            for h in list(headers):
                                if h.lower() in ("cookie",
                                                 "authorization"):
                                    headers.pop(h)
                            jar = {}
                        if jar:
                            _merge_cookie_header(headers, jar)
                        continue
                    # non-redirect HTTP status: keep code + body
                    return {"code": e.code, "content": e.read() or b"",
                            "headers": dict(e.headers or {}),
                            "error": "", "time": time.monotonic() - t0}
                return {"code": resp.status,
                        "content": self._body(resp),
                        "headers": dict(resp.headers),
                        "error": "", "time": time.monotonic() - t0}
        except Exception as exc:   # transport error → 599 (never raise)
            return {"code": 599, "content": b"", "headers": {},
                    "error": str(exc), "time": time.monotonic() - t0}

    def fetch_text(self, url: str) -> str:
        """Convenience for small side-fetches (robots.txt bodies)."""
        out = self._fetch_one(url, {})
        return out["content"].decode("utf-8", "ignore") \
            if out["code"] == 200 else ""

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        n = len(urls)

        def col(name, default):
            return batch[name].to_pylist() if name in batch.column_names \
                else [default] * n
        etags = col("etag", "")
        lms = col("last_modified", "")
        saves = col("save", "")
        ftypes = col("fetch_type", "")
        fjs = col("fetch_json", "")

        tasks = []
        for i in range(n):
            fetch: dict = {}
            if fjs[i]:
                # full stored fetch dict (method/data/headers/cookies/
                # proxy/...) from the control plane — rich crawl() kwargs
                try:
                    decoded = json.loads(fjs[i])
                    if isinstance(decoded, dict):
                        fetch.update(decoded)
                except (TypeError, ValueError):
                    pass
            if ftypes[i]:
                fetch["fetch_type"] = ftypes[i]
            # track-accumulated conditional-fetch values never override
            # an explicit user fetch option (requests_pack precedence)
            if etags[i] and "etag" not in fetch:
                fetch["etag"] = etags[i]
            if lms[i] and "last_modified" not in fetch:
                fetch["last_modified"] = lms[i]
            if saves[i]:
                try:
                    decoded = json.loads(saves[i])
                    if isinstance(decoded, dict) and "fetch" in decoded:
                        fetch.update(decoded["fetch"])
                except (TypeError, ValueError):
                    pass
            tasks.append({"fetch": fetch})
        results = list(self.pool.map(self._fetch_one, urls, tasks))
        return (batch
                .append_column("status_code", pa.array(
                    np.array([r["code"] for r in results], np.int32)))
                .append_column("content", binary_array(
                    [r["content"] for r in results]))
                .append_column("fetch_error", pa.array(
                    [r["error"] for r in results], pa.string()))
                .append_column("resp_headers", pa.array(
                    [json.dumps(r["headers"]) if r["headers"] else ""
                     for r in results], pa.string()))
                .append_column("fetch_time", pa.array(
                    np.array([r["time"] for r in results], np.float64))))
