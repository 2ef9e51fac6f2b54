"""Persisted exact-dedup artifact — the prior-run state an incremental
corpus refresh loads INSTEAD of re-reading history.

`q_dedup_incremental` (training_queries.py) documents its scale story
as "the per-bucket cuckoo/digest tables are the persisted artifact of
the previous run"; this module makes that real:

    build    corpus -> per-bucket sorted digest tables (parquet) +
             serialized cuckoo filters, versioned + atomically
             published (the crawl checkpoint pattern,
             pipelines/crawl.py: tmp dir -> rename -> LATEST pointer)
    refresh  stream ONLY the new batch: digest -> co-partition by
             bucket -> each reduce task loads ITS bucket's artifact
             once (cuckoo prefilter: a miss proves never-seen; only
             maybes pay the exact 128-bit np.isin), first-wins within
             the batch, and writes the bucket's UPDATED digest table +
             filter into the next version — history text is never
             read again
    publish  untouched buckets hard-link into the new version; the
             version dir renames into place and LATEST flips last

Scale shape: every phase is partition-parallel over the bucket hash
(the same `neardup.group_apply` sort-free exchange the dedup queries
use); nothing corpus-sized lands on the driver — survivors stream out
as a Dataset and bucket files are written by the reduce tasks
themselves.  On a multi-node cluster the artifact dir is shared
storage (same assumption as the crawl checkpoints).

Reference parity: pyspider's taskdb IS this artifact for URLs — the
scheduler dedups new tasks against persisted history without
re-crawling it (`pyspider/scheduler/scheduler.py:813-887`); this is
that semantics for content digests at corpus scale.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import shutil
import sys
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

_N_BUCKETS = 64


# -- digesting ---------------------------------------------------------------

def _digest_batch(b: pa.Table, n_buckets: int) -> pa.Table:
    h1 = np.empty(len(b), np.int64)
    h2 = np.empty(len(b), np.int64)
    for i, t in enumerate(b["text"].to_pylist()):
        d = hashlib.md5(t.encode()).digest()
        h1[i] = int.from_bytes(d[:8], "big", signed=True)
        h2[i] = int.from_bytes(d[8:], "big", signed=True)
    return pa.table({"doc_id": b["doc_id"],
                     "h1": pa.array(h1), "h2": pa.array(h2),
                     "bucket": pa.array(h1 % n_buckets)})


def _sorted_unique(h1: np.ndarray, h2: np.ndarray):
    order = np.lexsort((h2, h1))
    a, b = h1[order], h2[order]
    if len(a):
        first = np.ones(len(a), dtype=bool)
        first[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
        a, b = a[first], b[first]
    return a, b


def _isin_pairs(a1, a2, s1, s2) -> np.ndarray:
    """Vectorized membership of (a1,a2) digest rows in the (s1,s2)
    table (the np.rec form q_dedup_incremental uses)."""
    if not len(s1) or not len(a1):
        return np.zeros(len(a1), dtype=bool)
    a = np.rec.fromarrays([a1, a2], names="a,b")
    s = np.rec.fromarrays([s1, s2], names="a,b")
    return np.isin(a, s)


# -- artifact I/O ------------------------------------------------------------

def _latest_version(artifact_dir: str) -> int:
    p = os.path.join(artifact_dir, "LATEST")
    if not os.path.exists(p):
        return -1
    with open(p) as f:
        return int(f.read().strip())


def _version_dir(artifact_dir: str, version: int) -> str:
    return os.path.join(artifact_dir, f"version={version:05d}")


def _bucket_paths(vdir: str, bucket: int) -> tuple[str, str]:
    return (os.path.join(vdir, f"bucket={bucket:04d}.parquet"),
            os.path.join(vdir, f"bucket={bucket:04d}.cuckoo.pkl"))


def _write_bucket(vdir: str, bucket: int,
                  h1: np.ndarray, h2: np.ndarray) -> int:
    """Write one bucket's digest table + cuckoo filter (idempotent:
    fixed names, the version dir publishes atomically)."""
    from ..state.cuckoo import CuckooFilter
    pqp, cfp = _bucket_paths(vdir, bucket)
    pq.write_table(pa.table({"h1": pa.array(h1, pa.int64()),
                             "h2": pa.array(h2, pa.int64())}), pqp)
    cf = CuckooFilter(max(len(h1), 16))
    cf.add_many(h1.view(np.uint64))
    with open(cfp, "wb") as f:
        pickle.dump(cf.snapshot(), f)
    return len(h1)


def _load_bucket(vdir: str, bucket: int):
    from ..state.cuckoo import CuckooFilter
    pqp, cfp = _bucket_paths(vdir, bucket)
    if not os.path.exists(pqp):
        return (np.zeros(0, np.int64), np.zeros(0, np.int64),
                CuckooFilter(16))
    t = pq.read_table(pqp)
    with open(cfp, "rb") as f:
        cf = CuckooFilter.restore(pickle.load(f))
    return t["h1"].to_numpy(), t["h2"].to_numpy(), cf


def _publish(artifact_dir: str, tmp_vdir: str, version: int,
             manifest: dict) -> None:
    """Atomic publish: manifest inside the version dir, rename the
    tmp dir into place, flip LATEST last (the crawl checkpoint
    protocol — a crash mid-publish leaves the previous version
    authoritative)."""
    with open(os.path.join(tmp_vdir, "manifest.json"), "w") as f:
        json.dump(manifest, f)
    final = _version_dir(artifact_dir, version)
    # a crash AFTER the dir rename but BEFORE the LATEST flip leaves a
    # published-but-unreferenced version dir; the retry re-targets the
    # same number and os.replace cannot overwrite a non-empty dir —
    # clear the orphan (LATEST never pointed at it, so it's garbage)
    shutil.rmtree(final, ignore_errors=True)
    os.replace(tmp_vdir, final)
    tmp = os.path.join(artifact_dir, "LATEST.tmp")
    with open(tmp, "w") as f:
        f.write(str(version))
    os.replace(tmp, os.path.join(artifact_dir, "LATEST"))


# -- build -------------------------------------------------------------------

def build(ds, artifact_dir: str, n_buckets: int = _N_BUCKETS,
          source: str = "") -> dict:
    """One-time history build: stream the corpus, digest, and let each
    bucket's reduce task write its own artifact files.  ``ds`` is a
    Dataset with (doc_id, text)."""
    import functools

    from ..neardup import group_apply

    os.makedirs(artifact_dir, exist_ok=True)
    version = _latest_version(artifact_dir) + 1
    tmp_vdir = _version_dir(artifact_dir, version) + ".tmp"
    shutil.rmtree(tmp_vdir, ignore_errors=True)   # stale crashed .tmp
    os.makedirs(tmp_vdir)

    def write_group(g: pa.Table, vdir: str) -> pa.Table:
        bucket = int(g["bucket"][0].as_py())
        h1, h2 = _sorted_unique(g["h1"].to_numpy(), g["h2"].to_numpy())
        n = _write_bucket(vdir, bucket, h1, h2)
        return pa.table({"bucket": pa.array([bucket], pa.int64()),
                         "n_keys": pa.array([n], pa.int64())})

    digested = ds.map_batches(
        functools.partial(_digest_batch, n_buckets=n_buckets),
        batch_format="pyarrow")
    stats = group_apply(
        digested, "bucket",
        functools.partial(write_group, vdir=tmp_vdir),
        pa.schema([("bucket", pa.int64()),
                   ("n_keys", pa.int64())])).take_all()

    manifest = {
        "version": version, "n_buckets": n_buckets, "source": source,
        "n_keys": int(sum(r["n_keys"] for r in stats)),
        "buckets_written": len(stats), "prior_version": None,
        "built_at": time.time()}
    _publish(artifact_dir, tmp_vdir, version, manifest)
    return manifest


# -- refresh -----------------------------------------------------------------

def refresh(new_ds, artifact_dir: str, update: bool = True):
    """Dedup a NEW batch against the persisted artifact (history is
    never re-read) and, when ``update`` is set, publish version N+1
    whose buckets include the survivors — so the next refresh sees
    them.  Returns (survivors Dataset-as-table, manifest).

    Survivor schema matches q_dedup_incremental: (doc_id,
    content_hash) with first-wins-within-batch semantics."""
    import functools

    from ..neardup import group_apply

    version = _latest_version(artifact_dir)
    if version < 0:
        raise FileNotFoundError(f"no published artifact in {artifact_dir}")
    vdir = _version_dir(artifact_dir, version)
    with open(os.path.join(vdir, "manifest.json")) as f:
        prior = json.load(f)
    n_buckets = prior["n_buckets"]

    new_version = version + 1
    tmp_vdir = _version_dir(artifact_dir, new_version) + ".tmp"
    if update:
        # a stale .tmp from a crashed refresh would make the hard-link
        # carry-forward below raise FileExistsError on untouched
        # buckets (and mix two runs' partial writes) — start clean
        shutil.rmtree(tmp_vdir, ignore_errors=True)
        os.makedirs(tmp_vdir)

    def refresh_group(g: pa.Table, vdir: str, new_vdir: str | None) \
            -> pa.Table:
        bucket = int(g["bucket"][0].as_py())
        s1, s2, cf = _load_bucket(vdir, bucket)
        ids = g["doc_id"].to_numpy()
        h1 = g["h1"].to_numpy()
        h2 = g["h2"].to_numpy()
        maybe = cf.contains_many(h1.view(np.uint64))
        dup = np.zeros(len(ids), dtype=bool)
        if maybe.any():
            dup[maybe] = _isin_pairs(h1[maybe], h2[maybe], s1, s2)
        ids, h1, h2 = ids[~dup], h1[~dup], h2[~dup]
        # first-wins within the batch: min doc_id per content
        o = np.lexsort((ids, h2, h1))
        ids, h1, h2 = ids[o], h1[o], h2[o]
        first = np.ones(len(ids), dtype=bool)
        if len(ids) > 1:
            first[1:] = (h1[1:] != h1[:-1]) | (h2[1:] != h2[:-1])
        ids, h1, h2 = ids[first], h1[first], h2[first]
        if new_vdir is not None:
            m1, m2 = _sorted_unique(np.concatenate([s1, h1]),
                                    np.concatenate([s2, h2]))
            _write_bucket(new_vdir, bucket, m1, m2)
        hashes = [(int(a).to_bytes(8, "big", signed=True)
                   + int(b2).to_bytes(8, "big", signed=True)).hex()
                  for a, b2 in zip(h1, h2)]
        return pa.table({"doc_id": pa.array(ids.astype(np.int64)),
                         "content_hash": pa.array(hashes, pa.string()),
                         "bucket": pa.array(
                             np.full(len(ids), bucket, np.int64))})

    digested = new_ds.map_batches(
        functools.partial(_digest_batch, n_buckets=n_buckets),
        batch_format="pyarrow")
    survivors = group_apply(
        digested, "bucket",
        functools.partial(refresh_group, vdir=vdir,
                          new_vdir=tmp_vdir if update else None),
        pa.schema([("doc_id", pa.int64()),
                   ("content_hash", pa.string()),
                   ("bucket", pa.int64())])).materialize()

    manifest = dict(prior)
    if update:
        # buckets the new batch never touched carry forward by hard
        # link — no digest bytes move for them (a bucket whose reduce
        # ran, even with zero survivors, already wrote its merged
        # files into the new version)
        n_new = 0
        for b in survivors.iter_batches(batch_format="pyarrow"):
            n_new += len(b)
        rewritten = 0
        for bucket in range(n_buckets):
            pqp, cfp = _bucket_paths(vdir, bucket)
            new_pqp, new_cfp = _bucket_paths(tmp_vdir, bucket)
            if os.path.exists(new_pqp):
                rewritten += 1
            elif os.path.exists(pqp):
                os.link(pqp, new_pqp)
                os.link(cfp, new_cfp)
        manifest = {
            "version": new_version, "n_buckets": n_buckets,
            "source": prior.get("source", ""),
            "n_keys": prior["n_keys"] + n_new,
            "buckets_written": rewritten,
            "prior_version": version, "built_at": time.time()}
        _publish(artifact_dir, tmp_vdir, new_version, manifest)

    def drop_bucket(b: pa.Table) -> pa.Table:
        return b.drop_columns(["bucket"])

    return survivors.map_batches(drop_bucket,
                                 batch_format="pyarrow"), manifest


# -- CLI ---------------------------------------------------------------------

def _read_docs(path: str, id_filter: str | None):
    """(doc_id, text) Dataset from a documents.parquet (or a dir
    holding one); optional `mod,rem` filter selects doc_id % mod ==
    rem — the split knob the tests/benchmarks use."""
    import ray.data as rd
    if os.path.isdir(path):
        path = os.path.join(path, "documents.parquet")
    ds = rd.read_parquet(path, columns=["doc_id", "text"])
    if id_filter:
        mod, rem = (int(x) for x in id_filter.split(","))

        def f(b: pa.Table) -> pa.Table:
            keep = b["doc_id"].to_numpy() % mod == rem
            return b.filter(pa.array(keep))
        ds = ds.map_batches(f, batch_format="pyarrow")
    return ds


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    pb = sub.add_parser("build", help="build the artifact from history")
    pb.add_argument("--docs", required=True)
    pb.add_argument("--artifact", required=True)
    pb.add_argument("--buckets", type=int, default=_N_BUCKETS)
    pb.add_argument("--id-filter", default=None,
                    help="mod,rem: keep doc_id %% mod == rem")
    pr = sub.add_parser("refresh", help="dedup a new batch vs the artifact")
    pr.add_argument("--docs", required=True)
    pr.add_argument("--artifact", required=True)
    pr.add_argument("--id-filter", default=None)
    pr.add_argument("--no-update", action="store_true",
                    help="report survivors without publishing N+1")
    pr.add_argument("--out", default=None,
                    help="write survivors parquet here")
    args = p.parse_args(argv)

    import ray
    owns = not ray.is_initialized()
    if owns:
        ray.init(address="local", include_dashboard=False,
                 logging_level="ERROR")
    try:
        if args.cmd == "build":
            manifest = build(_read_docs(args.docs, args.id_filter),
                             args.artifact, n_buckets=args.buckets,
                             source=args.docs)
        else:
            survivors, manifest = refresh(
                _read_docs(args.docs, args.id_filter), args.artifact,
                update=not args.no_update)
            manifest = dict(manifest)
            manifest["survivors"] = survivors.count()
            if args.out:
                survivors.write_parquet(args.out)
    finally:
        if owns:
            ray.shutdown()
    print(json.dumps(manifest))
    return 0


if __name__ == "__main__":
    sys.exit(main())
