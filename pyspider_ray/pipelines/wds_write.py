"""Resumable WebDataset-style shard packer.

Turns the `wds_shard_plan` manifest math into actual partitioned
Parquet output: documents are packed into size-bounded shards
(shard_id = exclusive prefix sum of n_chars in md5-key order //
SHARD_CHARS) and written as ONE DIRECTORY PER KEY RANGE
(`part=NNN/data.parquet`, rows sorted by key so concatenating the
parts in order reproduces the full deterministic global order), each
with an atomic `_DONE` marker — a killed run re-executes ONLY the
partitions whose marker is missing.

Scale shape (100 TB): pass 1 is the fixed-size distributed prefix sum
from `training_queries.q_wds_shard_plan` (per-batch bucket subtotals
→ a 1024-long driver offset vector); pass 2 range-exchanges full rows
by the key's top bits (the bucket IS the range, so a write partition
is a contiguous key range and shard ids inside it are contiguous),
one write task per partition.  Nothing ever materializes on the
driver except the offset vector and the per-partition marker stats.

Reference parity: the packing rule is Webdataset/tar-shard sharding
as used by LAION-style pipelines; the resume contract mirrors the
crawl pipeline's per-shard checkpoint discipline (crawl.py snapshot
path): atomic tmp→rename publish, stale-parameter rejection.
"""

from __future__ import annotations

import json
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import ray

from ..neardup import _partitioned
from .._io import read_table as _read

SHARD_CHARS = 4096            # shard byte budget (chars stand in)
KEY_BITS = 60                 # md5-high60 hex->BIGINT convention
N_BUCKETS = 1024              # ordered key-range buckets (top 10 bits)

_SCHEMA = pa.schema([("doc_id", pa.int64()), ("key", pa.int64()),
                     ("shard_id", pa.int64()), ("n_chars", pa.int64()),
                     ("text", pa.string())])


def _keyed(b: pa.Table) -> pa.Table:
    """Attach the deterministic order key + range bucket to a batch."""
    import hashlib
    ids = b["doc_id"].to_numpy().astype(np.int64)
    key = np.fromiter(
        (int(hashlib.md5(str(i).encode()).hexdigest()[:15], 16)
         for i in ids), dtype=np.int64, count=len(ids))
    cols = {"doc_id": pa.array(ids), "key": pa.array(key),
            "bucket": pa.array(key >> (KEY_BITS - 10)),
            "n_chars": pa.array(b["n_chars"].to_numpy().astype(np.int64))}
    if "text" in b.column_names:
        cols["text"] = b["text"]
    return pa.table(cols)


def _bucket_partials(b: pa.Table) -> pa.Table:
    sums = np.bincount(b["bucket"].to_numpy(),
                       weights=b["n_chars"].to_numpy(),
                       minlength=N_BUCKETS).astype(np.int64)
    nz = np.flatnonzero(sums)
    return pa.table({"bucket": pa.array(nz.astype(np.int64)),
                     "nbytes": pa.array(sums[nz])})


def bucket_offsets(sf_dir: str) -> np.ndarray:
    """Pass 1: exclusive per-bucket byte offsets (a fixed 1024-long
    vector — the ONLY driver-side state, corpus-size independent)."""
    totals = np.zeros(N_BUCKETS, dtype=np.int64)
    ds = (_read(sf_dir, "documents", ["doc_id", "n_chars"])
          .map_batches(_keyed, batch_format="pyarrow")
          .map_batches(_bucket_partials, batch_format="pyarrow"))
    for part in ds.take_all():
        totals[part["bucket"]] += part["nbytes"]
    return np.concatenate(([0], np.cumsum(totals)))[:-1]


def _range_part(t: pa.Table, n_parts: int) -> np.ndarray:
    """Range exchange routing: n_parts contiguous-bucket ranges
    (part = bucket * P // 1024)."""
    return (t["bucket"].to_numpy() * n_parts) // N_BUCKETS


@ray.remote
def _write_part(p: int, out_dir: str, offsets: np.ndarray,
                *parts) -> dict:
    """Reduce side: assign shard ids (global offsets + local prefix
    sum), sort the partition into global key order, publish
    `part=p/data.parquet` + `_DONE` atomically."""
    import pyarrow.parquet as pq
    parts = [x for x in parts if len(x)]
    t = pa.concat_tables(parts) if parts else None
    pdir = os.path.join(out_dir, f"part={p:04d}")
    tmp = pdir + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    shutil.rmtree(pdir, ignore_errors=True)
    os.makedirs(tmp)
    stats = {"part": p, "rows": 0, "shards": []}
    if t is not None and len(t):
        b = t["bucket"].to_numpy()
        k = t["key"].to_numpy()
        ids = t["doc_id"].to_numpy()
        n = t["n_chars"].to_numpy()
        order = np.lexsort((ids, k, b))
        b, k, ids, n = b[order], k[order], ids[order], n[order]
        cum = np.cumsum(n)
        excl = cum - n
        starts = np.flatnonzero(np.r_[True, b[1:] != b[:-1]])
        runs = np.diff(np.r_[starts, len(b)])
        local = excl - np.repeat(excl[starts], runs)
        shard = (offsets[b] + local) // SHARD_CHARS
        out = pa.table({
            "doc_id": pa.array(ids), "key": pa.array(k),
            "shard_id": pa.array(shard), "n_chars": pa.array(n),
            "text": t["text"].take(pa.array(order))}, schema=_SCHEMA)
        pq.write_table(out, os.path.join(tmp, "data.parquet"))
        stats["rows"] = len(out)
        stats["shards"] = [int(shard.min()), int(shard.max())]
    else:
        pq.write_table(_SCHEMA.empty_table(),
                       os.path.join(tmp, "data.parquet"))
    with open(os.path.join(tmp, "_DONE"), "w") as f:
        json.dump(stats, f)
    os.replace(tmp, pdir)            # atomic publish: _DONE implies data
    return stats


def _part_done(out_dir: str, p: int) -> bool:
    return os.path.exists(os.path.join(out_dir, f"part={p:04d}", "_DONE"))


def run(sf_dir: str, out_dir: str, n_parts: int = 16,
        resume: bool = False) -> dict:
    """Pack the documents table into sorted size-bounded shards under
    ``out_dir``.  With ``resume=True`` only partitions missing their
    `_DONE` marker are re-executed (parameter mismatch with the
    recorded `_PLAN.json` forces a full rebuild — a stale plan must
    not masquerade as this run's output)."""
    t0 = time.perf_counter()
    plan_path = os.path.join(out_dir, "_PLAN.json")
    st = os.stat(os.path.join(sf_dir, "documents.parquet"))
    plan = {"sf_dir": sf_dir, "n_parts": n_parts,
            "shard_chars": SHARD_CHARS,
            # input lineage: a resumed run against a CHANGED input
            # must rebuild — stale partitions would silently mix plans
            "input": [int(st.st_size), int(st.st_mtime_ns)]}
    if resume and os.path.exists(plan_path):
        with open(plan_path) as f:
            if json.load(f) != plan:
                resume = False
    elif resume:
        resume = False
    if not resume:
        shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir, exist_ok=True)
    with open(plan_path, "w") as f:
        json.dump(plan, f)

    todo = [p for p in range(n_parts)
            if not (resume and _part_done(out_dir, p))]
    skipped = n_parts - len(todo)
    # test-only fault injection: publish the first N partitions, then
    # die exactly as a driver crash between scheduling waves would —
    # the kill-resume drill (tests/test_wds_write.py) uses this to
    # exercise the REAL subprocess resume path deterministically
    fail_after = int(os.environ.get("GRAFT_WDS_FAIL_AFTER", "0"))
    crash = 0 < fail_after < len(todo)
    if crash:
        todo = todo[:fail_after]
    stats = []
    if todo:
        offsets = bucket_offsets(sf_dir)
        full = (_read(sf_dir, "documents", ["doc_id", "n_chars", "text"])
                .map_batches(_keyed, batch_format="pyarrow"))
        parts = _partitioned((full, _range_part), P=n_parts)
        stats = ray.get([_write_part.remote(p, out_dir, offsets,
                                            *parts[p][0])
                         for p in todo])
    if crash:
        raise RuntimeError(f"injected crash after {fail_after} "
                           "partitions (GRAFT_WDS_FAIL_AFTER)")
    rows_written = sum(s["rows"] for s in stats)
    return {"sf_dir": sf_dir, "out_dir": out_dir, "n_parts": n_parts,
            "written_parts": len(todo), "skipped_parts": skipped,
            "rows_written": rows_written,
            "sec": round(time.perf_counter() - t0, 3)}


def read_packed(out_dir: str, shard_lo: int | None = None,
                shard_hi: int | None = None,
                columns: list[str] | None = None):
    """Source side of the packer: stream the packed output back as a
    Dataset, PRUNED at the partition level — every `part=NNNN/_DONE`
    marker records its [min, max] shard range, so a read of shards
    [lo, hi) opens ONLY the part directories whose range intersects
    (at 100 TB that's the difference between touching 3 files and
    30,000), then one vectorized shard_id filter trims the straddling
    edges.  ``columns`` prunes at the parquet read.

    Refuses incomplete output: every partition named by `_PLAN.json`
    must carry its `_DONE` marker (a killed run must be `--resume`d to
    completion first — half-published output must never be readable as
    if whole).  Rows within each part are already in global key order;
    consumers needing the total order stream parts in part order (or
    sort by `key`)."""
    import ray.data as rd

    plan_path = os.path.join(out_dir, "_PLAN.json")
    if not os.path.exists(plan_path):
        raise FileNotFoundError(f"no _PLAN.json under {out_dir}")
    with open(plan_path) as f:
        n_parts = json.load(f)["n_parts"]
    paths = []
    for p in range(n_parts):
        pdir = os.path.join(out_dir, f"part={p:04d}")
        done = os.path.join(pdir, "_DONE")
        if not os.path.exists(done):
            raise RuntimeError(
                f"partition {p} has no _DONE marker — incomplete "
                f"output under {out_dir}; rerun with --resume")
        with open(done) as f:
            stats = json.load(f)
        if not stats["rows"]:
            continue
        lo, hi = stats["shards"]
        if shard_lo is not None and hi < shard_lo:
            continue
        if shard_hi is not None and lo >= shard_hi:
            continue
        paths.append(os.path.join(pdir, "data.parquet"))
    if not paths:
        cols = columns or _SCHEMA.names
        return rd.from_arrow(_SCHEMA.empty_table().select(cols))
    need = list(columns) if columns else None
    if need is not None and (shard_lo is not None
                             or shard_hi is not None):
        read_cols = need if "shard_id" in need else need + ["shard_id"]
    else:
        read_cols = need
    ds = rd.read_parquet(paths, columns=read_cols)
    if shard_lo is not None or shard_hi is not None:
        lo = -1 if shard_lo is None else shard_lo
        hi = np.iinfo(np.int64).max if shard_hi is None else shard_hi
        keep = list(need) if need else None

        def trim(b: pa.Table) -> pa.Table:
            s = b["shard_id"].to_numpy()
            out = b.filter(pa.array((s >= lo) & (s < hi)))
            return out.select(keep) if keep else out

        ds = ds.map_batches(trim, batch_format="pyarrow")
    return ds


def _main() -> int:
    import argparse
    import ray

    ap = argparse.ArgumentParser(description="resumable shard packer")
    ap.add_argument("sf_dir")
    ap.add_argument("out_dir")
    ap.add_argument("--n-parts", type=int, default=16)
    ap.add_argument("--resume", action="store_true")
    args = ap.parse_args()
    if not ray.is_initialized():
        ray.init(address="local",
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "8")),
                 include_dashboard=False, logging_level="ERROR")
    m = run(args.sf_dir, args.out_dir, n_parts=args.n_parts,
            resume=args.resume)
    print(json.dumps(m))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(_main())
