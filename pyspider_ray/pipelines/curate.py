"""Corpus-curation job — the batch surface that turns a raw document
table into a training-ready corpus, end to end and streaming:

    read parquet
    -> curate_corpus gates (normalize / holdout / quality / language /
       decontaminate / exact-dedup — training_queries.q_curate_corpus)
    -> MinHash-Jaccard near-dup collapse (cluster losers dropped via
       the payload-carrying hash-exchange anti-join)
    -> hash-partitioned parquet (doc_id-bucket dirs + manifest)

Reference parity: pyspider's result_worker + webui result dump
(`pyspider/result/result_worker.py`, `pyspider/webui/result.py`) is
the surface users run to export processed results; this is that
surface re-expressed as a distributed curation job over the document
corpus.

Scale notes: every stage streams (the one full materialization is the
near-dup pair machinery's own exchange, object-store resident); the
final write partitions by a coarse doc_id hash bucket so downstream
consumers get stable shards and a re-run with ``--resume`` skips a
finished output wholesale (the ``_DONE`` manifest is written only
after every partition landed — partition-grained resume-with-lineage
lives in the crawl pipeline's checkpoint machinery, pipelines/crawl.py).
The CLI owns the Ray session (guarded init); library callers pass an
already-initialised Ray.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

import numpy as np
import pyarrow as pa


def curated_dataset(sf_dir: str, collapse_near_dups: bool = True,
                    n_parts: int = 16):
    """The full lazy curation pipeline (adds the ``part`` column used
    for the partitioned write)."""
    from .. import neardup
    from .. import training_queries as tq
    from ..queries import _membership_filter

    curated = tq.q_curate_corpus(sf_dir)
    if collapse_near_dups:
        # both curated and comp are consumed twice below — pin their
        # blocks in the object store instead of re-running the lineage
        curated = curated.materialize()
        comp = tq.q_near_dup_components(sf_dir).materialize()
        if comp.count() > 0:
            # Keep the minimum SURVIVING member of each near-dup
            # cluster (the raw component representative may itself have
            # been dropped by the curation gates — dropping every
            # member != raw-rep would then lose the cluster's content
            # entirely).  Three small id-table exchanges: label the
            # survivors that appear in the pair graph with their
            # component, take the min surviving id per component, and
            # drop the rest via the payload-carrying anti-join.
            def ids_only(b: pa.Table) -> pa.Table:
                return pa.table({"doc_id": b["doc_id"]})

            labeled = neardup.attach_column(
                curated.map_batches(ids_only, batch_format="pyarrow"),
                comp, "component", "doc_id", "component")
            winners = neardup.min_by_key(labeled, "component", "doc_id")

            def as_key(b: pa.Table) -> pa.Table:
                return pa.table({"doc_id": b["component"],
                                 "winner": b["doc_id"]})

            labeled_w = neardup.attach_column(
                labeled,
                winners.map_batches(as_key, batch_format="pyarrow"),
                "winner", "component", "winner")

            def losers(b: pa.Table) -> pa.Table:
                ids = b["doc_id"].to_numpy().astype(np.int64)
                win = b["winner"].to_numpy().astype(np.int64)
                return pa.table({"doc_id": pa.array(ids[ids != win])})

            curated = _membership_filter(
                curated, "doc_id",
                labeled_w.map_batches(losers, batch_format="pyarrow"),
                "doc_id", negate=True)

    def with_part(b: pa.Table) -> pa.Table:
        from ..functions.synthweb import mix64
        ids = b["doc_id"].to_numpy().astype(np.int64)
        part = (mix64(ids.view(np.uint64), 0xC0DE) % n_parts).astype(np.int64)
        return b.append_column("part", pa.array(part))

    return curated.map_batches(with_part, batch_format="pyarrow")


def _written_rows(out_dir: str) -> int:
    import pyarrow.parquet as pq
    total = 0
    for root, _dirs, files in os.walk(out_dir):
        for f in files:
            if f.endswith(".parquet"):
                total += pq.read_metadata(os.path.join(root, f)).num_rows
    return total


def run(sf_dir: str, out_dir: str, n_parts: int = 16,
        collapse_near_dups: bool = True, resume: bool = False) -> dict:
    done = os.path.join(out_dir, "_DONE")
    if resume and os.path.exists(done):
        with open(done) as f:
            manifest = json.load(f)
        # only skip when the finished output was built with the SAME
        # parameters — a stale manifest from a different configuration
        # must not masquerade as this run's result
        same = (manifest.get("sf_dir") == sf_dir
                and manifest.get("n_parts") == n_parts
                and manifest.get("collapse_near_dups") == collapse_near_dups)
        if same:
            manifest["skipped"] = True
            return manifest

    import pyarrow.parquet as pq
    t0 = time.perf_counter()
    rows_in = pq.read_metadata(
        os.path.join(sf_dir, "documents.parquet")).num_rows

    shutil.rmtree(out_dir, ignore_errors=True)
    ds = curated_dataset(sf_dir, collapse_near_dups=collapse_near_dups,
                         n_parts=n_parts)
    ds.write_parquet(out_dir, partition_cols=["part"])
    os.makedirs(out_dir, exist_ok=True)   # zero-row corpus: no files

    manifest = {
        "sf_dir": sf_dir,
        "out_dir": out_dir,
        "rows_in": int(rows_in),
        "rows_out": _written_rows(out_dir),
        "n_parts": n_parts,
        "collapse_near_dups": collapse_near_dups,
        "sec": round(time.perf_counter() - t0, 3),
    }
    tmp = done + ".tmp"
    with open(tmp, "w") as f:
        json.dump(manifest, f)
    os.replace(tmp, done)      # atomic publish: _DONE implies all parts
    return manifest


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    p.add_argument("--out", required=True)
    p.add_argument("--parts", type=int, default=16)
    p.add_argument("--no-collapse", action="store_true",
                   help="skip the MinHash near-dup collapse stage")
    p.add_argument("--resume", action="store_true",
                   help="skip the job when the output's _DONE manifest "
                        "already exists")
    args = p.parse_args(argv)

    import ray
    owns = not ray.is_initialized()
    if owns:
        ray.init(address="local", include_dashboard=False,
                 logging_level="ERROR")
    try:
        manifest = run(args.sf_dir, args.out, n_parts=args.parts,
                       collapse_near_dups=not args.no_collapse,
                       resume=args.resume)
    finally:
        if owns:
            ray.shutdown()
    print(json.dumps(manifest))
    return 0


if __name__ == "__main__":
    sys.exit(main())
