"""Persisted NEAR-dup artifact — the MinHash/LSH band index a
continuously-refreshed corpus keeps between runs so a new crawl batch
can be near-dup-checked against ALL history without re-reading or
re-tokenizing a byte of history text.

    build    corpus -> (a) the LSH band index (band, key, doc_id),
             ~24 B per band row, partitioned by the SAME
             (band, key)-hash the banding exchange routes on, and
             (b) the per-doc sorted word-hash blobs the exact-Jaccard
             verifier needs, partitioned by doc-id hash; manifest +
             atomic tmp->rename publish (the crawl checkpoint
             pattern).
    refresh  stream ONLY the new batch's text: new band rows tagged
             is_q=1 union the artifact's compact index rows (is_q=0),
             the bipartite banding exchange emits new-vs-history
             candidates, and the exact verifier joins word blobs from
             the new batch + the artifact — tau decides.  History
             TEXT is never touched; what re-flows is the fixed-width
             index (<<1% of corpus bytes).  The on-disk buckets use
             the banding exchange's routing hash at P = n_buckets,
             so they match the exchange's partitions only when the
             exchange sizes itself to that P (64 by default: inputs
             of 64 x ``neardup._PARTITION_BYTES`` or more); only then
             could a bucket-pinned scheduler skip the re-route.

Same banding parameters as `q_jaccard_near_dup` (21 bands x 6 rows:
per-pair miss probability ~1.3e-7 at tau=0.9, so refresh output
equals the exact new-vs-history pair set — the DuckDB oracle checks
exactly that).  Reference parity: pyspider's taskdb-backed dedup of
new tasks against persisted history (scheduler.py:813-887), here for
near-duplicate CONTENT instead of exact URLs.
"""

from __future__ import annotations

import functools
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import ray

from ..neardup import (_band_part, _key_part, _partitioned,
                       bipartite_candidate_pairs, join_signatures)

N_BUCKETS = 64


@ray.remote
def _write_bucket(path: str, schema: pa.Schema, *parts) -> int:
    import pyarrow.parquet as pq
    parts = [x for x in parts if len(x)]
    t = pa.concat_tables(parts) if parts else schema.empty_table()
    pq.write_table(t, path)
    return len(t)


def _write_partitioned(ds, out_dir: str, part_of, schema: pa.Schema,
                       P: int = N_BUCKETS) -> int:
    os.makedirs(out_dir, exist_ok=True)
    rows = ray.get([_write_bucket.remote(
        os.path.join(out_dir, f"bucket={p:04d}.parquet"), schema, *parts)
        for p, (parts,) in enumerate(_partitioned((ds, part_of), P=P))])
    return sum(rows)


def build(ds, art_dir: str, n_buckets: int = N_BUCKETS) -> dict:
    """Build the artifact from a (doc_id, text) Dataset.  Atomic:
    everything lands in ``art_dir + '.tmp'`` and renames into place."""
    from .. import training_queries as tq

    tmp = art_dir + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    # the LIVE artifact stays untouched until the swap at the end — a
    # rebuild that dies mid-flight must leave the old history intact
    # (deleting it up front meant a crash destroyed BOTH versions)

    words = (ds.map_batches(tq._word_lists, batch_format="pyarrow")
             .materialize())
    bands = words.map_batches(tq._minhash_bands_from_words,
                              batch_format="pyarrow")

    band_schema = pa.schema([("doc_id", pa.int64()),
                             ("band", pa.int32()), ("key", pa.int64())])
    words_schema = pa.schema([("doc_id", pa.int64()),
                              ("words", pa.binary())])
    n_band_rows = _write_partitioned(
        bands, os.path.join(tmp, "bands"), _band_part, band_schema,
        n_buckets)
    n_docs = _write_partitioned(
        words, os.path.join(tmp, "words"),
        functools.partial(_key_part, "doc_id"), words_schema, n_buckets)
    manifest = {"n_buckets": n_buckets, "n_docs": n_docs,
                "n_band_rows": n_band_rows,
                "bands": "21x6 minhash tau=0.9"}
    with open(os.path.join(tmp, "_MANIFEST.json"), "w") as f:
        json.dump(manifest, f)
    _swap_in(tmp, art_dir)
    return manifest


def _swap_in(tmp: str, art_dir: str) -> None:
    """Replace the live artifact with ``tmp``: live → .old, tmp →
    live, drop .old.  The completed-build marker (_MANIFEST.json,
    written last) makes the crash windows recoverable:
    ``_recover_live`` restores .old if a crash left no live dir."""
    old = art_dir + ".old"
    shutil.rmtree(old, ignore_errors=True)
    if os.path.exists(art_dir):
        os.replace(art_dir, old)
    os.replace(tmp, art_dir)
    shutil.rmtree(old, ignore_errors=True)


def _recover_live(art_dir: str) -> None:
    """If a crash between _swap_in's two renames left no live dir,
    restore the displaced previous version."""
    old = art_dir + ".old"
    if not os.path.exists(os.path.join(art_dir, "_MANIFEST.json")) \
            and os.path.exists(os.path.join(old, "_MANIFEST.json")):
        shutil.rmtree(art_dir, ignore_errors=True)
        os.replace(old, art_dir)


def refresh(new_ds, art_dir: str):
    """Near-dup-check a new (doc_id, text) batch against the artifact.
    Returns a Dataset of (new_doc, hist_doc) exact-Jaccard >= tau
    pairs.  Only the new batch's text is read; history contributes
    its precomputed index + blobs."""
    import ray.data as rd

    from .. import training_queries as tq
    from .._io import rd as _rd

    _recover_live(art_dir)                   # crashed-swap recovery
    with open(os.path.join(art_dir, "_MANIFEST.json")) as f:
        json.load(f)                         # existence/shape check

    new_words = (new_ds.map_batches(tq._word_lists,
                                    batch_format="pyarrow")
                 .materialize())

    def tag_q(b: pa.Table) -> pa.Table:
        return b.append_column(
            "is_q", pa.array(np.ones(len(b), dtype=np.int8)))

    def tag_c(b: pa.Table) -> pa.Table:
        return b.append_column(
            "is_q", pa.array(np.zeros(len(b), dtype=np.int8)))

    new_bands = (new_words
                 .map_batches(tq._minhash_bands_from_words,
                              batch_format="pyarrow")
                 .map_batches(tag_q, batch_format="pyarrow"))
    hist_bands = (_rd().read_parquet(os.path.join(art_dir, "bands"))
                  .map_batches(tag_c, batch_format="pyarrow"))
    pairs = bipartite_candidate_pairs(new_bands.union(hist_bands))

    hist_words = _rd().read_parquet(os.path.join(art_dir, "words"))
    all_words = new_words.union(hist_words)
    joined = join_signatures(pairs, all_words, "words")

    def rename(b: pa.Table) -> pa.Table:
        return pa.table({"new_doc": b["doc_a"], "hist_doc": b["doc_b"]})

    return (joined.map_batches(tq._jaccard_verify_vec,
                               batch_format="pyarrow", batch_size=65536)
            .map_batches(rename, batch_format="pyarrow"))
