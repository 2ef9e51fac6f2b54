"""Processor stage — pyspider's processor (M13/M14,
processor/processor.py:102-203) as a Ray Data actor-pool stage.

One instance per actor holds the handler logic (T5's script-cache role:
construction happens once per worker).  Per fetched row it:

- runs the "callback" — here the link-follow handler over the synthetic
  page: decode the container, decode pixels, verify/derive payload
  columns, extract follow links from the deterministic graph (M12);
- dedups follows within the callback (D1, base_handler.py:336-339);
- builds the status pack fields (track.fetch/track.process);
- never raises: a callback error becomes ``process_ok=False``.

Output is one Arrow table carrying BOTH the compact control columns
(status + follows) and the payload result columns; the pipeline splits
it downstream (results → Parquet sink, control → coordinator).  Wide
binary columns never enter a shuffle — the split happens in simple
``map_batches`` projections (SURVEY.md §7.3).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions import synthweb
from ..functions.buffers import binary_array, binary_views
from ..functions.imaging import decode_image, phash64


class ProcessorStage:
    def __init__(self, total: int, show: int = synthweb.DEFAULT_SHOW,
                 n_hosts: int = 5, skew: bool = False,
                 follow_priority: int = 0, verify_payload: bool = False):
        self.total = total
        self.show = show
        self.n_hosts = n_hosts
        self.skew = skew
        self.follow_priority = follow_priority
        self.verify_payload = verify_payload

    def _process_page(self, url_id: int, content, kids: list, hosts: list):
        caption, img_bytes = synthweb.decode_page(content)
        pixels = decode_image(img_bytes)
        h, w = pixels.shape[:2]
        # in-callback follows dedup, preserving first occurrence (D1)
        seen: set[int] = set()
        follows = []
        for k, khost in zip(kids, hosts):
            if k in seen:
                continue
            seen.add(k)
            follows.append(synthweb.url_of(k, khost))
        # canonicalize in-stage so the driver never md5s follow URLs
        # (the M2/M6 work stays in the distributed data plane)
        result = {
            "image_id": f"img-{url_id:012d}",
            "bytes": img_bytes,   # a view into the content column
            "w": w,
            "h": h,
            "fmt": synthweb.page_fmt(url_id),
            "caption": caption,
            "phash": phash64(pixels),
        }
        return follows, result

    def _page_ids(self, urls: list, codes: list) -> dict:
        """row → url id of every 2xx page row whose URL carries one that
        fits the graph's uint64 hash; other page rows fail processing."""
        ids = {}
        for i, (url, code) in enumerate(zip(urls, codes)):
            if 200 <= code < 300 and not url.startswith("data:"):
                try:
                    uid = synthweb.parse_url_id(url)
                except (ValueError, IndexError):
                    continue
                if 0 <= uid < 1 << 64:
                    ids[i] = uid
        return ids

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = len(batch)
        urls = batch["url"].to_pylist()
        codes = batch["status_code"].to_pylist()
        contents = binary_views(batch["content"])
        process_ok = np.zeros(n, dtype=bool)
        process_time = np.full(n, 0.001, dtype=np.float64)
        follows_col: list[list[str]] = []
        res = {k: [] for k in ("image_id", "bytes", "w", "h", "fmt",
                               "caption", "phash")}
        has_result = np.zeros(n, dtype=bool)

        # the synthetic graph and content tags for the whole batch in
        # one vectorized call each, instead of one per page
        ids = self._page_ids(urls, codes)
        id_arr = np.asarray(list(ids.values()), dtype=np.uint64)
        kids = synthweb.child_ids(id_arr, self.total, self.show)
        hosts = synthweb.host_of(kids.ravel(), self.n_hosts, self.skew)
        page_rows = dict(zip(ids, zip(kids.tolist(),
                                      hosts.reshape(kids.shape).tolist())))
        # content tag for the next conditional fetch (J5)
        etags = [""] * n
        for i, tag in zip(ids, synthweb.page_etags(id_arr)):
            etags[i] = tag

        for i in range(n):
            follows: list[str] = []
            result = None
            code = codes[i]
            try:
                if 200 <= code < 300:
                    if urls[i].startswith("data:"):
                        process_ok[i] = True  # control callback: no-op ok
                    else:
                        follows, result = self._process_page(
                            ids[i], contents[i], *page_rows[i])
                        process_ok[i] = True
                elif code == 304:
                    # not-modified skips the callback but succeeds
                    # (base_handler.py:169-171 304 skip)
                    process_ok[i] = True
                else:
                    # raise_for_status path (M15): non-2xx fails the task
                    process_ok[i] = False
            except Exception:
                process_ok[i] = False
            follows_col.append(follows)
            if result is not None:
                has_result[i] = True
                for k, v in result.items():
                    res[k].append(v)
            else:
                res["image_id"].append("")
                res["bytes"].append(b"")
                res["w"].append(0)
                res["h"].append(0)
                res["fmt"].append("")
                res["caption"].append("")
                res["phash"].append(0)

        # batch-level canonicalization of all follow URLs (M2/M6 in-stage)
        from .canonicalize import canonicalize_urls
        flat = [u for fl in follows_col for u in fl]
        canon = canonicalize_urls(flat)
        f_taskid: list[list[str]] = []
        f_urlhash: list[list[int]] = []
        f_host: list[list[str]] = []
        pos = 0
        for fl in follows_col:
            k = len(fl)
            f_taskid.append(canon["taskid"][pos:pos + k])
            f_urlhash.append([int(x) for x in canon["urlhash"][pos:pos + k]])
            f_host.append(canon["host"][pos:pos + k])
            pos += k

        # drop fetch-input-only columns; "etag" is re-emitted fresh below
        drop = [c for c in ("content", "retried", "etag")
                if c in batch.column_names]
        out = batch.drop_columns(drop)
        out = (out
               .append_column("process_ok", pa.array(process_ok))
               .append_column("process_time", pa.array(process_time))
               .append_column("etag", pa.array(etags, pa.string()))
               .append_column("follows", pa.array(follows_col,
                                                  pa.list_(pa.string())))
               .append_column("follows_taskid",
                              pa.array(f_taskid, pa.list_(pa.string())))
               .append_column("follows_urlhash",
                              pa.array(f_urlhash, pa.list_(pa.int64())))
               .append_column("follows_host",
                              pa.array(f_host, pa.list_(pa.string())))
               .append_column("has_result", pa.array(has_result))
               .append_column("image_id", pa.array(res["image_id"], pa.string()))
               .append_column("bytes", binary_array(res["bytes"]))
               .append_column("w", pa.array(res["w"], pa.int32()))
               .append_column("h", pa.array(res["h"], pa.int32()))
               .append_column("fmt", pa.array(res["fmt"], pa.string()))
               .append_column("caption", pa.array(res["caption"], pa.string()))
               .append_column("phash", pa.array(res["phash"], pa.int64())))
        return out


RESULT_COLUMNS = ["taskid", "project", "url", "image_id", "bytes", "w", "h",
                  "fmt", "caption", "phash"]
CONTROL_COLUMNS = ["taskid", "urlhash", "project", "url", "host",
                   "status_code", "fetch_time", "process_ok", "process_time",
                   "etag", "follows", "follows_taskid", "follows_urlhash",
                   "follows_host"]


def ResultBuilder(batch: pa.Table) -> pa.Table:
    """Project payload rows for the result sink (resultdb.save parity,
    result_worker.py:27-39 + F7 schema)."""
    mask = batch["has_result"]
    cols = [c for c in RESULT_COLUMNS if c in batch.column_names]
    if mask.null_count == 0 and pc.all(mask).as_py():
        # every row has a result: a projection, no copy of the payload
        return batch.select(cols)
    return batch.filter(mask).select(cols)


def control_table(batch: pa.Table) -> pa.Table:
    """Compact control projection (status packs + follows) — the only
    part that returns to the driver/coordinator."""
    return batch.select([c for c in CONTROL_COLUMNS if c in batch.column_names])
