"""Pluggable table storage (the reference's URL-scheme backend dispatch,
pyspider/database/__init__.py:12-49, re-expressed as a storage-format
choice): Lance when the ``lance`` package is importable (the
BASELINE.json target layout), Parquet otherwise — same call sites
either way, so swapping storage is a config change, not a code change.

Also: frontier export/load as a *portable columnar taskdb*
(FIXTURES.md F3-flattened): per-shard scheduling state becomes a
Parquet/Lance table with lineage columns, readable by any engine —
the durable-state story of scheduler.py:263-280 (`_load_tasks`) without
a database server.
"""

from __future__ import annotations

import json
import os

import pyarrow as pa
import pyarrow.parquet as pq

try:
    import lance  # noqa: F401
    _HAVE_LANCE = True
except ImportError:
    _HAVE_LANCE = False


def storage_format() -> str:
    return "lance" if _HAVE_LANCE else "parquet"


def write_table(table: pa.Table, uri: str) -> str:
    """Write a table at ``uri`` (extension-less path); returns the path
    actually written."""
    if _HAVE_LANCE:
        import lance
        path = uri + ".lance"
        lance.write_dataset(table, path, mode="overwrite")
        return path
    path = uri + ".parquet"
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = path + ".tmp"
    pq.write_table(table, tmp)
    os.rename(tmp, path)
    return path


def read_table(uri: str) -> pa.Table:
    for ext, reader in ((".lance", "lance"), (".parquet", "parquet")):
        path = uri if uri.endswith(ext) else uri + ext
        if os.path.exists(path):
            if reader == "lance":
                import lance
                return lance.dataset(path).to_table()
            return pq.read_table(path)
    raise FileNotFoundError(uri)


def open_dataset(path: str):
    """Ray Data reader for a results/frontier directory."""
    import ray.data as rd
    if _HAVE_LANCE and path.endswith(".lance"):
        return rd.read_lance(path)
    return rd.read_parquet(path)


FRONTIER_COLUMNS = ("taskid", "urlhash", "project", "url", "host", "status",
                    "priority", "retries", "retried", "exetime", "age",
                    "itag", "auto_recrawl", "seq", "lastcrawltime",
                    "updatetime", "etag")


def frontier_rows_to_table(tasks: list[dict], shard_id: int,
                           n_shards: int) -> pa.Table:
    """Flatten shard store rows into the portable frontier schema with
    per-partition lineage columns."""
    def sched(t, k, default=None):
        return (t.get("schedule") or {}).get(k, default)
    cols: dict[str, list] = {c: [] for c in FRONTIER_COLUMNS}
    for t in tasks:
        cols["taskid"].append(t.get("taskid"))
        cols["urlhash"].append(t.get("urlhash") or 0)
        cols["project"].append(t.get("project"))
        cols["url"].append(t.get("url"))
        cols["host"].append(t.get("host") or "")
        cols["status"].append(t.get("status") or 1)
        cols["priority"].append(sched(t, "priority", 0) or 0)
        cols["retries"].append(sched(t, "retries"))
        cols["retried"].append(sched(t, "retried"))
        cols["exetime"].append(float(sched(t, "exetime", 0) or 0))
        cols["age"].append(sched(t, "age"))
        cols["itag"].append(sched(t, "itag"))
        cols["auto_recrawl"].append(bool(sched(t, "auto_recrawl", False)))
        cols["seq"].append(t.get("seq"))
        cols["lastcrawltime"].append(t.get("lastcrawltime"))
        cols["updatetime"].append(t.get("updatetime"))
        cols["etag"].append(t.get("etag"))
    table = pa.table({
        "taskid": pa.array(cols["taskid"], pa.string()),
        "urlhash": pa.array(cols["urlhash"], pa.int64()),
        "project": pa.array(cols["project"], pa.string()),
        "url": pa.array(cols["url"], pa.string()),
        "host": pa.array(cols["host"], pa.string()),
        "status": pa.array(cols["status"], pa.int8()),
        "priority": pa.array(cols["priority"], pa.int32()),
        "retries": pa.array(cols["retries"], pa.int32()),
        "retried": pa.array(cols["retried"], pa.int32()),
        "exetime": pa.array(cols["exetime"], pa.float64()),
        "age": pa.array(cols["age"], pa.int64()),
        "itag": pa.array(cols["itag"], pa.string()),
        "auto_recrawl": pa.array(cols["auto_recrawl"], pa.bool_()),
        "seq": pa.array(cols["seq"], pa.int64()),
        "lastcrawltime": pa.array(cols["lastcrawltime"], pa.float64()),
        "updatetime": pa.array(cols["updatetime"], pa.float64()),
        "etag": pa.array(cols["etag"], pa.string()),
    })
    meta = {b"shard_id": str(shard_id).encode(),
            b"n_shards": str(n_shards).encode()}
    return table.replace_schema_metadata(meta)


def export_shard(shard, out_dir: str) -> str:
    """Write one FrontierShard's stored tasks as its partition of an
    exported frontier; returns the partition's path."""
    table = frontier_rows_to_table(list(shard.store.values()),
                                   shard.shard_id, shard.n_shards)
    return write_table(
        table, os.path.join(out_dir, f"shard={shard.shard_id:04d}"))


def write_frontier_manifest(out_dir: str, paths: list[str],
                            lineage: dict | None = None) -> str:
    """Publish the manifest that makes ``out_dir``'s shard partitions
    one exported frontier (read back by ``load_frontier``)."""
    manifest = {"format": storage_format(), "partitions": paths,
                "lineage": lineage or {}}
    with open(os.path.join(out_dir, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=1)
    return out_dir


def export_frontier(shards, out_dir: str, lineage: dict | None = None) -> str:
    """One table per shard partition + a manifest with lineage — the
    resumable, engine-portable taskdb snapshot."""
    os.makedirs(out_dir, exist_ok=True)
    return write_frontier_manifest(
        out_dir, [export_shard(s, out_dir) for s in shards], lineage)


def load_frontier(path_or_dir: str) -> pa.Table:
    """Read an exported frontier back as one Arrow table."""
    if os.path.isdir(path_or_dir):
        with open(os.path.join(path_or_dir, "manifest.json")) as f:
            manifest = json.load(f)
        tables = [read_table(p) for p in manifest["partitions"]]
        return pa.concat_tables(tables, promote_options="default")
    return read_table(path_or_dir)


def table_to_frontier_rows(table: pa.Table) -> list[dict]:
    """Inverse of ``frontier_rows_to_table`` — rows ready for
    ``FrontierShard.load_tasks`` (S1 bootstrap)."""
    rows = []
    for r in table.to_pylist():
        sched = {k: r[k] for k in ("priority", "retries", "retried",
                                   "exetime", "age", "itag", "auto_recrawl")
                 if r.get(k) is not None}
        rows.append({
            "taskid": r["taskid"], "urlhash": r["urlhash"],
            "project": r["project"], "url": r["url"], "host": r["host"],
            "status": r["status"], "schedule": sched, "seq": r["seq"],
            "lastcrawltime": r["lastcrawltime"],
            "updatetime": r["updatetime"],
            **({"etag": r["etag"]} if r.get("etag") else {}),
        })
    return rows
