"""Distributed candidate-pair machinery for banded near-dup dedup
(MinHash+LSH, SimHash multi-index, pHash multi-index).

The scale shape (SURVEY.md §2.7 + the 100 TB brief):

1. signatures are computed per batch in an actor/task stage;
2. each doc emits (band, key) rows — ``flat_map``-style fan-out;
3. candidate generation co-locates complete (band, key) buckets by a
   coarse deterministic hash, then expands runs vectorized
   (``np.triu_indices`` over lexsorted runs);
4. pair dedup across bands is a second hash exchange keyed on the
   (lo, hi) pair values, deduplicated as one packed uint64 word when
   doc ids fit 32 bits and as (lo, hi) rows beyond that (the
   10^10-doc envelope);
5. exact verification re-joins the pair table against the signature /
   document table on doc_a then doc_b — a partitioned hash join; no
   stage broadcasts the corpus.

The exchanges run as a MANUAL two-stage hash shuffle on raw Ray tasks
(the SURVEY's case-(c) escape hatch) rather than
``groupby().map_groups``: one primitive, ``_partitioned``, splits every
input block group into P partition sub-tables by a partition-id
function; one reduce task per partition concats its slices and
processes them.  Two reasons, both measured at sf0.1:

- Ray Data's sort-based groupby spent ~70 s sorting the 37 M-row pair
  table that hash partitioning moves without any sort;
- these tasks unpickle ``pyspider_ray``, whose import applies the
  package's allocator tuning (``_malloc.tune_malloc``) — on virtualized
  hosts the first-touch page faults of fresh numpy/Arrow pages are the
  dominant cold-run cost, and Ray Data's internal shuffle tasks can't
  be tuned from library code.

It is the package's one grouping shuffle: every per-key step of the
query layer runs on ``partition_apply`` / ``group_apply`` (int or
string keys) or on the two-sided ``_apply`` form of ``hash_join``, and
every aggregate on ``combine`` (an Arrow group-by per batch, then one
per partition); no module calls ``groupby().map_groups`` or Ray
Data's ``groupby().aggregate``, whose range sort costs seconds of
orchestration even on a few hundred rows.

Exchanges chain on object refs.  An exchange returns an
``ExchangeOutput``: its reduce refs, each reduce's (rows, bytes) stats
and the declared schema.  The next exchange takes those refs as its
input blocks, sized by the stats, so no Dataset is built and nothing
is copied between two exchanges; a pyarrow ``map_batches`` on the
output runs one task per partition on the same refs.  Ray Data comes
in only at a query's two ends: the read, and the result, where a
caller uses the output as a Dataset and one is built, once, with
``from_arrow_refs``.  ``exchange_log()`` reads each call's P, input
size and partition skew from the same stats.

Partitioning contract: every (band, key) bucket lands WHOLLY in one
reduce partition (the hash is over the bucket key, never the doc), so
pair expansion sees complete buckets; P bounds per-reduce-task memory
at O(rows/P + hottest bucket).  P is not a caller's knob: the driver
sizes it from the input's block bytes, one partition per
``_PARTITION_BYTES`` (clamped to [1, 64]), so a small input runs as one
reduce task with no split at all and a large one fans out to 64
partitions.  Object transfer is the plasma store exactly as a Dataset
shuffle would use it.

Skew note: a degenerate band key (e.g. the empty-document signature)
produces a quadratic bucket; callers cap buckets with ``max_bucket``
the way production MinHash dedup drops stop-buckets.  Drops are never
silent: the expand task logs (count, member rows, hottest size) per
partition through the ``pyspider_ray.neardup`` logger.
"""

from __future__ import annotations

import collections
import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

_GOLD = np.uint64(0x9E3779B97F4A7C15)
_GOLD2 = np.uint64(0xC2B2AE3D27D4EB4F)


def _expand_runs(band: np.ndarray, key: np.ndarray, doc: np.ndarray,
                 max_bucket: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized within-bucket pair expansion over lexsorted triples;
    returns (lo, hi) int64 pair columns (lo < hi).  Works for the full
    int64 doc-id space — packing into one word, when the ids allow it,
    is the dedup step's concern (``_pack_pairs``)."""
    if len(band) == 0:
        e = np.empty(0, dtype=np.int64)
        return e, e
    order = np.lexsort((doc, key, band))
    band, key = band[order], key[order]
    doc_s = doc[order].astype(np.int64)
    new_run = np.ones(len(band), dtype=bool)
    new_run[1:] = (band[1:] != band[:-1]) | (key[1:] != key[:-1])
    starts = np.flatnonzero(new_run)
    ends = np.append(starts[1:], len(band))
    sizes = ends - starts
    if max_bucket:
        keepable = sizes <= max_bucket
        dropped = sizes[~keepable]
        if len(dropped):
            # stop-bucket cap accounting: dropped buckets are LOGGED,
            # never silent (the 100 TB skew contract) — the count and
            # the hottest size tell the operator whether the cap bit
            import logging
            logging.getLogger("pyspider_ray.neardup").warning(
                "max_bucket=%d dropped %d hot bucket(s) "
                "(%d member rows, hottest %d)",
                max_bucket, len(dropped), int(dropped.sum()),
                int(dropped.max()))
        starts, sizes = starts[keepable], sizes[keepable]
    total = int((sizes.astype(np.int64) * (sizes - 1) // 2).sum())
    lo_out = np.empty(total, dtype=np.int64)
    hi_out = np.empty(total, dtype=np.int64)
    pos = 0
    for m in np.unique(sizes):
        if m < 2:
            continue
        runs = starts[sizes == m]
        ii, jj = np.triu_indices(int(m), k=1)
        a = doc_s[(runs[:, None] + ii[None, :]).ravel()]
        b = doc_s[(runs[:, None] + jj[None, :]).ravel()]
        n = a.size
        lo_out[pos:pos + n] = np.minimum(a, b)
        hi_out[pos:pos + n] = np.maximum(a, b)
        pos += n
    return lo_out, hi_out


_NARROW_MAX = np.int64(1) << np.int64(32)


def _pack_pairs(lo: np.ndarray, hi: np.ndarray):
    """Dedup format for a pair column: packed uint64 (lo<<32 | hi)
    when every doc id fits 32 bits (one-word np.unique), else a
    C-contiguous (n, 2) int64 array — the >2^32-doc fallback for
    10^10-URL frontiers.  Partition routing hashes (lo, hi) VALUES
    (``_pair_hash``), never the packed word, so narrow and wide pairs
    route identically."""
    if len(hi) == 0 or (hi.max() < _NARROW_MAX and lo.max() < _NARROW_MAX
                        and min(lo.min(), hi.min()) >= 0):
        u = lo.astype(np.uint64) << np.uint64(32)
        return u | hi.astype(np.uint64)
    return np.ascontiguousarray(np.stack([lo, hi], axis=1))


def _unpack_pairs(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if p.ndim == 2:
        return p[:, 0], p[:, 1]
    return ((p >> np.uint64(32)).astype(np.int64),
            (p & np.uint64(0xFFFFFFFF)).astype(np.int64))


def _pair_hash(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Partition hash over pair VALUES — identical whichever dedup
    representation the pair had."""
    with np.errstate(over="ignore"):
        h = (lo.astype(np.uint64) * _GOLD) ^ (hi.astype(np.uint64) * _GOLD2)
        h ^= h >> np.uint64(29)
    return h


def _dedup_pairs(lo: np.ndarray, hi: np.ndarray):
    """Distinct (lo, hi) rows via lexsort + adjacent-diff (the wide-id
    path's np.unique equivalent); returns sorted pairs."""
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    keep = np.ones(len(lo), dtype=bool)
    keep[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    return lo[keep], hi[keep]


def _band_hash(band: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Routing hash of a (band, key) bucket: the banding exchange and
    the persisted near-dup artifact's bucket layout both use it."""
    with np.errstate(over="ignore"):
        h = (band.astype(np.uint64) * _GOLD) ^ (key.astype(np.uint64)
                                                * _GOLD2)
        h ^= h >> np.uint64(29)
    return h


# -- partition-id functions: ``part_of(table, P)`` → int64 ids in [0, P) ---

def _key_part(col: str, t: pa.Table, P: int) -> np.ndarray:
    """Partition of each row's ``col`` value: a golden-ratio multiply
    for numeric keys; pandas' fixed-key SipHash for strings and other
    values — the same in every worker process, unlike the salted
    built-in ``hash()``, so one key never splits across partitions."""
    k = t[col].to_numpy()
    if k.dtype.kind in "biuf":
        with np.errstate(over="ignore"):
            h = (k.astype(np.uint64) * _GOLD) >> np.uint64(31)
    else:
        import pandas as pd
        h = pd.util.hash_array(k)
    return (h % np.uint64(P)).astype(np.int64)


def _band_part(t: pa.Table, P: int) -> np.ndarray:
    h = _band_hash(t["band"].to_numpy(), t["key"].to_numpy())
    return (h % np.uint64(P)).astype(np.int64)


def _pair_part(t: pa.Table, P: int) -> np.ndarray:
    h = _pair_hash(t["doc_a"].to_numpy(), t["doc_b"].to_numpy())
    return (h % np.uint64(P)).astype(np.int64)


def _concat(parts) -> pa.Table | None:
    """One table of the non-empty parts, or None when there are none."""
    parts = [p for p in parts if len(p)]
    return pa.concat_tables(parts) if parts else None


def _arrow_schema(ds) -> pa.Schema:
    if isinstance(ds, ExchangeOutput):
        return ds.declared
    s = ds.schema()
    return pa.schema(list(zip(s.names, s.types)))


class ExchangeOutput:
    """What every exchange returns: one Arrow-table ref per reduce
    partition, a ref to each partition's stats tuple ``(rows, bytes,
    rows_in, bytes_in)`` and the declared schema.  The next exchange
    takes the refs as they are, sized by the stats; nothing is copied
    and no Dataset is built between two exchanges.

    It stays refs until a caller uses it as a Dataset: any Dataset
    method (``to_pandas``, ``take_all``, ``iter_batches``, ``sort``,
    ``union``, ...) builds one, once, with ``from_arrow_refs``.
    ``schema()`` answers from the declared schema, ``count()`` from the
    stats and ``materialize()`` waits for the stats and returns the
    output itself.  A plain
    pyarrow ``map_batches`` runs as one task per partition on the refs
    (``_nd_map``) and returns another ExchangeOutput."""

    def __init__(self, refs: list, stats: list, schema: pa.Schema):
        self.refs, self.stats = refs, stats
        self.declared = schema.remove_metadata()
        self._ds = None
        self._sizes = None

    def sizes(self) -> list[tuple]:
        """Each partition's (rows, bytes, rows_in, bytes_in), fetched
        once; waiting on them surfaces a failed partition fn here."""
        if self._sizes is None:
            self._sizes = ray.get(self.stats)
        return self._sizes

    def dataset(self):
        if self._ds is None:
            import ray.data as rd
            self._ds = rd.from_arrow_refs(self.refs)
        return self._ds

    def schema(self):
        from ray.data import DataContext
        from ray.data.dataset import Schema
        return Schema(self.declared, data_context=DataContext.get_current())

    def count(self) -> int:
        return sum(s[0] for s in self.sizes())

    def materialize(self):
        """The output itself, once every partition exists (as with a
        Dataset, a caller may then remove what the tasks read)."""
        self.sizes()
        return self

    def map_batches(self, fn, *, batch_format="default", batch_size=None,
                    fn_kwargs=None, **kw):
        """Ray Data's ``map_batches``.  A pyarrow map of a plain
        function runs what Ray Data would run over these blocks —
        ``fn`` on each whole partition, or on its ``batch_size``-row
        slices — as one task per partition, with no executor; its
        output schema is ``fn``'s output on an empty input.  Anything
        else (other formats or options, callable classes, object-store
        refs in ``fn_kwargs``, a fn that rejects an empty input) goes
        to the Dataset."""
        fn_kwargs = fn_kwargs or {}
        schema = None
        if batch_format == "pyarrow" and not kw and \
                not isinstance(fn, type) and \
                (batch_size is None or isinstance(batch_size, int)) and \
                not any(isinstance(v, ray.ObjectRef)
                        for v in fn_kwargs.values()):
            try:
                probe = fn(self.declared.empty_table(), **fn_kwargs)
            except Exception:                          # noqa: BLE001
                # no schema to declare: Ray Data runs fn instead, and
                # raises whatever fn raises on real batches
                probe = None
            if isinstance(probe, pa.Table) and \
                    not any(pa.types.is_null(t) for t in probe.schema.types):
                schema = probe.schema.remove_metadata()
        if schema is None:
            return self.dataset().map_batches(
                fn, batch_format=batch_format, batch_size=batch_size,
                fn_kwargs=fn_kwargs, **kw)
        outs = [_nd_map.remote(fn, batch_size, fn_kwargs, schema, ref)
                for ref in self.refs]
        return ExchangeOutput([o[0] for o in outs], [o[1] for o in outs],
                              schema)

    def __getattr__(self, name):
        # only names this class does not define reach here; its own
        # must not recurse through dataset() before __init__ set them
        if name.startswith("__") or name in ("refs", "stats", "declared",
                                             "_ds", "_sizes"):
            raise AttributeError(name)
        return getattr(self.dataset(), name)

    def __repr__(self) -> str:
        return (f"ExchangeOutput(partitions={len(self.refs)}, "
                f"schema={self.declared})")


# -- the exchange (module-level tasks: registered once, unpickled with the
#    package, whose import applies the tune_malloc allocator setting) -------

# input bytes per reduce partition: a partition's fixed cost (~3.5 ms)
# is 10% of the reduce work of ~8 MB (partition_apply, ~4 ms/MB, 1 CPU)
_PARTITION_BYTES = 8 << 20
_MAX_PARTITIONS = 64
# small blocks coalesce into map tasks of about this size: a split task
# per tiny block drowns the exchange in per-object overhead (2x at sf0.1)
_MAP_GROUP_BYTES = 64 << 20


def _is_materialized(ds) -> bool:
    from ray.data.dataset import MaterializedDataset
    return isinstance(ds, (ExchangeOutput, MaterializedDataset))


def _materialized(ds):
    """``ds`` itself when its blocks already exist, else materialized."""
    return ds if _is_materialized(ds) else ds.materialize()


def _blocks(ds) -> tuple[list, list]:
    """Non-empty block refs of an input and their byte sizes.  An
    exchange's output gives its partition refs, sized by the stats its
    reduce returned; a Dataset is materialized unless it already is
    (the exchange needs the complete block list; blocks stay in the
    object store, nothing lands on the driver)."""
    if isinstance(ds, ExchangeOutput):
        # empty partitions carry nothing: skip them
        return ([r for r, s in zip(ds.refs, ds.sizes()) if s[0]],
                [s[1] for s in ds.sizes() if s[0]])
    refs, sizes = [], []
    for bundle in _materialized(ds).iter_internal_ref_bundles():
        for ref, meta in zip(bundle.block_refs, bundle.metadata):
            if meta.num_rows == 0:
                # empty blocks carry a ZERO-COLUMN schema (Ray Data
                # skips the map fn on empty batches), and a concat of
                # only-empty blocks would be a columnless table — drop
                # them; they contribute nothing anyway
                continue
            refs.append(ref)
            sizes.append(meta.size_bytes or 0)
    return refs, sizes


def _map_groups(refs: list, sizes: list, P: int) -> list[list]:
    """Greedy largest-first grouping of block refs into map-task work
    lists: at least P groups, at most one per block, and none much
    above ``_MAP_GROUP_BYTES``."""
    n = min(len(refs), max(P, -(-sum(sizes) // _MAP_GROUP_BYTES)))
    groups: list[list] = [[] for _ in range(n)]
    load = np.zeros(n)
    for i in np.argsort(sizes)[::-1]:
        g = int(np.argmin(load))
        groups[g].append(refs[i])
        load[g] += sizes[i]
    return [g for g in groups if g]


@ray.remote
def _nd_split(part_of, P: int, *blocks) -> tuple:
    """Map side of every exchange: one block group → P sub-tables
    (one stable argsort by partition id + P zero-copy slices)."""
    t = pa.concat_tables(blocks)
    ids = part_of(t, P)
    order = np.argsort(ids, kind="stable")
    bounds = np.searchsorted(ids[order], np.arange(P + 1))
    t = t.take(pa.array(order)).combine_chunks()
    return tuple(t.slice(int(bounds[p]), int(bounds[p + 1] - bounds[p]))
                 for p in range(P))


def _partitioned(*sides, P: int = 0) -> list[list[list]]:
    """The hash exchange behind every wide step here.  ``sides`` are
    (Dataset, part_of) pairs; rows of every side go to partition
    ``part_of(table, P)``.  Returns, for each partition, one list of
    Arrow-table refs per side: the caller's reduce task takes them.

    P is decided here, on the driver, from the inputs' total block
    bytes — ceil(bytes / _PARTITION_BYTES) clamped to [1, 64] — unless
    a persisted layout pins it.  At P = 1 the reduce gets the input
    blocks themselves and no split task runs."""
    blocks = [_blocks(ds) for ds, _ in sides]
    if not P:
        total = sum(sum(sizes) for _, sizes in blocks)
        P = int(min(_MAX_PARTITIONS, max(1, -(-total // _PARTITION_BYTES))))
    if P == 1:
        return [[refs for refs, _ in blocks]]
    splits = [[_nd_split.options(num_returns=P).remote(part_of, P, *g)
               for g in _map_groups(refs, sizes, P)]
              for (refs, sizes), (_, part_of) in zip(blocks, sides)]
    return [[[s[p] for s in side] for side in splits] for p in range(P)]


# -- per-partition functions and the reduce task -------------------------

_PAIR_SCHEMA = pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64())])


def _pair_table(lo: np.ndarray, hi: np.ndarray) -> pa.Table:
    """Distinct (lo, hi) rows as a (doc_a, doc_b) table: one-word
    np.unique over the packed pair when every id fits 32 bits, lexsort
    dedup beyond that."""
    packed = _pack_pairs(lo, hi)
    if packed.ndim == 1:
        lo, hi = _unpack_pairs(np.unique(packed))
    else:
        lo, hi = _dedup_pairs(lo, hi)
    return pa.table({"doc_a": pa.array(lo, pa.int64()),
                     "doc_b": pa.array(hi, pa.int64())})


def _expand_pairs(max_bucket: int, bipartite: bool,
                  t: pa.Table) -> pa.Table:
    """Partition fn of the banding exchange: expand this partition's
    complete (band, key) buckets into locally deduplicated pairs —
    (lo, hi), or ordered (query, corpus) when ``bipartite``."""
    cols = [t[c].to_numpy().astype(np.int64)
            for c in ("band", "key", "doc_id")]
    if bipartite:
        return _pair_table(*_expand_bipartite_runs(
            *cols, t["is_q"].to_numpy().astype(bool),
            max_bucket=max_bucket))
    return _pair_table(*_expand_runs(*cols, max_bucket=max_bucket))


def _unique_pairs(t: pa.Table) -> pa.Table:
    """Partition fn of the pair exchange: a pair's hash pins it to
    exactly one partition, so partition-local dedup is global."""
    return _pair_table(t["doc_a"].to_numpy(), t["doc_b"].to_numpy())


def _expand_bipartite_runs(band: np.ndarray, key: np.ndarray,
                           doc: np.ndarray, isq: np.ndarray,
                           max_bucket: int = 0
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Within-bucket query x corpus expansion over lexsorted rows
    (queries sort to each run's tail); returns ORDERED (query, corpus)
    int64 pair columns, self-pairs excluded.  Full int64 id space —
    packing is ``_pack_pairs``' concern.  The Python loop runs only
    over buckets that contain a query."""
    qs = np.empty(0, dtype=np.int64)
    cs = np.empty(0, dtype=np.int64)
    if not len(band):
        return qs, cs
    order = np.lexsort((doc, isq, key, band))       # queries sort last
    band, key = band[order], key[order]
    doc, isq = doc[order], isq[order]
    new_run = np.ones(len(band), dtype=bool)
    new_run[1:] = (band[1:] != band[:-1]) | (key[1:] != key[:-1])
    starts = np.flatnonzero(new_run)
    ends = np.append(starts[1:], len(band))
    nq = np.add.reduceat(isq, starts).astype(np.int64)
    nc = (ends - starts) - nq
    produce = (nq > 0) & (nc > 0)
    if max_bucket:
        hot = produce & (nc > max_bucket)
        if hot.any():
            import logging
            logging.getLogger("pyspider_ray.neardup").warning(
                "max_bucket=%d dropped %d hot bipartite bucket(s) "
                "(%d corpus rows, hottest %d)",
                max_bucket, int(hot.sum()), int(nc[hot].sum()),
                int(nc[hot].max()))
            produce &= ~hot
    q_parts, c_parts = [], []
    for s, e, k in zip(starts[produce], ends[produce], nq[produce]):
        corpus = doc[s:e - k]
        queries = doc[e - k:e]
        q_parts.append(np.repeat(queries, len(corpus)))
        c_parts.append(np.tile(corpus, int(k)))
    if q_parts:
        qs = np.concatenate(q_parts)
        cs = np.concatenate(c_parts)
        keep = qs != cs                              # no self-match
        qs, cs = qs[keep], cs[keep]
    return qs, cs


def _stats(out: pa.Table, sides) -> tuple:
    """(rows, bytes) of a reduce's output, then of its input."""
    return (len(out), out.nbytes, sum(len(t) for t in sides),
            sum(t.nbytes for t in sides))


@ray.remote(num_returns=2)
def _nd_apply(fn, schema: pa.Schema, counts: tuple, *parts) -> tuple:
    """Reduce side of every exchange: ``fn`` applied ONCE to the whole
    partition, one concatenated table per side (``counts`` parts each;
    None for a side with no rows) — fn must itself handle a mix of keys,
    e.g. a per-key pandas merge/groupby inside.  The partition hash
    pins every key to exactly one partition, so partition-local
    per-key results are global.  An empty first side or result comes
    back as the declared ``schema``.  Returns the table and its
    ``_stats``."""
    bounds = np.cumsum((0,) + counts)
    sides = [_concat(parts[i:j]) for i, j in zip(bounds[:-1], bounds[1:])]
    out = fn(*sides) if sides[0] is not None else None
    out = out if out is not None and len(out) else schema.empty_table()
    return out, _stats(out, [t for t in sides if t is not None])


@ray.remote(num_returns=2)
def _nd_map(fn, batch_size, fn_kwargs: dict, schema: pa.Schema,
            t: pa.Table) -> tuple:
    """``ExchangeOutput.map_batches`` on one partition: ``fn`` on the
    whole table or on its ``batch_size``-row slices, skipped on an
    empty one as Ray Data skips it; the output is cast to ``schema``
    where it differs (a loud error if it cannot be)."""
    step = batch_size or max(1, len(t))
    outs = [fn(t.slice(i, step), **fn_kwargs) for i in range(0, len(t), step)]
    outs = [o if o.schema.equals(schema) else o.cast(schema)
            for o in outs if len(o)]
    out = pa.concat_tables(outs) if outs else schema.empty_table()
    return out, _stats(out, [t])


# the last few exchange calls: (partition fn, P, stats refs, job id)
_EXCHANGE_LOG: collections.deque = collections.deque(maxlen=8)


def _fn_name(fn) -> str:
    while isinstance(fn, functools.partial):
        fn = fn.func
    return getattr(fn, "__qualname__", repr(fn))


def exchange_log() -> list[dict]:
    """The last few exchange calls of this Ray job, oldest first: the
    partition fn, P, the input's rows and bytes, the output's rows and
    bytes, and the largest and the median bytes one partition carried
    into its reduce task (``part_bytes_max`` well above
    ``part_bytes_median`` is a skewed key).  Read from the stats each
    reduce returns anyway, fetched here and not on the query path.
    A call whose partition fn raised has no stats and is left out: its
    query already failed with that exception."""
    job = ray.get_runtime_context().get_job_id()
    out = []
    for fn, P, stats, rec_job in list(_EXCHANGE_LOG):
        if rec_job != job:
            continue
        try:
            got = np.array(ray.get(stats), dtype=np.int64).reshape(-1, 4)
        except ray.exceptions.RayTaskError:
            continue
        out.append({"fn": fn, "P": P,
                    "rows_in": int(got[:, 2].sum()),
                    "bytes_in": int(got[:, 3].sum()),
                    "rows_out": int(got[:, 0].sum()),
                    "bytes_out": int(got[:, 1].sum()),
                    "part_bytes_max": int(got[:, 3].max()),
                    "part_bytes_median": int(np.median(got[:, 3]))})
    return out


def _apply(fn, schema: pa.Schema, *sides) -> ExchangeOutput:
    """``fn`` on each partition of the (input, part_of) ``sides``; the
    reduce refs come back as they are, in an ``ExchangeOutput``."""
    outs = [_nd_apply.remote(fn, schema, tuple(map(len, parts)),
                             *sum(parts, []))
            for parts in _partitioned(*sides)]
    stats = [o[1] for o in outs]
    _EXCHANGE_LOG.append((_fn_name(fn), len(outs), stats,
                          ray.get_runtime_context().get_job_id()))
    return ExchangeOutput([o[0] for o in outs], stats, schema)


def partition_apply(ds, key_col: str, fn, schema: pa.Schema):
    """Like group_apply, but ``fn`` runs once per hash PARTITION, not
    once per key group — for vectorized fns that already group
    internally (pandas merge / groupby).  High-cardinality keys (a
    vocabulary) pay 1 fn call per partition instead of 1 per key.
    Returns an ``ExchangeOutput``: the reduce refs, used as they are
    by a next exchange and as a Dataset once a caller needs one."""
    return _apply(fn, schema, (ds, functools.partial(_key_part, key_col)))


def _apply_runs(key_col: str, fn, t: pa.Table) -> pa.Table:
    """group_apply's partition fn: one stable argsort of the key's
    dense codes (in key order, so int and string keys sort alike), then
    ``fn`` on each contiguous same-key run — a whole group, since the
    key hash pins every key to one partition."""
    import pandas as pd
    codes = pd.factorize(t[key_col].to_numpy(), sort=True)[0]
    order = np.argsort(codes, kind="stable")
    t = t.take(pa.array(order)).combine_chunks()
    ks = codes[order]
    bounds = np.flatnonzero(ks[1:] != ks[:-1]) + 1
    starts = np.concatenate(([0], bounds))
    ends = np.concatenate((bounds, [len(ks)]))
    return pa.concat_tables([fn(t.slice(int(s), int(e - s)))
                             for s, e in zip(starts, ends)])


def group_apply(ds, key_col: str, fn, schema: pa.Schema):
    """Sort-free distributed map_groups over an int or string key with
    a DECLARED output schema: ``partition_apply`` whose partition fn
    applies ``fn`` to every whole group.  Unlike
    Dataset.groupby().map_groups() this never range-sorts the dataset
    and never emits schema-less empty blocks (Ray's sort shuffle
    produces those whenever partitions outnumber distinct keys,
    tripping the RefBundle schema warning)."""
    return partition_apply(ds, key_col,
                           functools.partial(_apply_runs, key_col, fn),
                           schema)


# a partial row's fold: counts of rows add up, the rest fold as they are
_FOLD = {"sum": "sum", "count": "sum", "min": "min", "max": "max"}


def _group_by(keys: list, aggs: dict, raw: bool,
              schema: pa.Schema | None, t: pa.Table) -> pa.Table:
    """One Arrow hash group-by of ``t`` on ``keys``: the aggregate of
    ``raw`` rows, or else the fold of partial rows.  Columns come back
    as ``keys`` then ``aggs`` in order, cast to ``schema`` when one is
    given."""
    spec = [([], "count_all") if how == "count" and raw
            else (col, how if raw else _FOLD[how])
            for col, how in aggs.items()]
    g = t.group_by(keys, use_threads=False).aggregate(spec)
    cols = [g[k] for k in keys] + [
        g["count_all" if not c else f"{c}_{how}"] for c, how in spec]
    out = pa.table(cols, names=keys + list(aggs))
    return out if schema is None else out.cast(schema)


def combine(ds, keys: list, aggs: dict, schema: pa.Schema):
    """Distributed GROUP BY ``keys`` with ``aggs`` ({column: "sum" |
    "count" | "min" | "max"}; a "count" column counts rows and needs
    no input column) — the query layer's one aggregate.  Each input
    batch collapses to one partial row per key (Arrow's hash
    group-by, no per-row Python), the hash exchange on ``keys[0]``
    co-locates each key's partials and one group-by per partition
    folds them: counts add, sums add exactly in int64 (never through
    float64), min/max fold as themselves.  Returns the declared
    ``schema`` (keys, then the aggregates), also for an empty input.

    An input that is already materialized (an exchange's output)
    skips the per-batch pass: its blocks go straight to the exchange,
    whose reduce aggregates whole keys at once — a per-batch map
    there would cost one more Ray Data execution for nothing."""
    raw = _is_materialized(ds)
    if not raw:
        ds = ds.map_batches(
            functools.partial(_group_by, keys, aggs, True, None),
            batch_format="pyarrow")
    return partition_apply(
        ds, keys[0], functools.partial(_group_by, keys, aggs, raw, schema),
        schema)


def min_by_key(ds, key_col: str, val_col: str):
    """Distributed groupby-min over (key, value) int64 rows: the
    ``combine`` aggregate.  Returns a Dataset with one row per
    distinct key.  Per-reduce memory is O(rows/P)."""
    return combine(ds, [key_col], {val_col: "min"},
                   pa.schema([(key_col, pa.int64()),
                              (val_col, pa.int64())]))


def _join_tables(left_on: str, right_on: str, how: str, suffix: str,
                 schema: pa.Schema, lt: pa.Table, rt) -> pa.Table | None:
    """Partition fn of ``hash_join``: one pandas merge resolves the
    whole partition (``rt`` is None when no right row landed here)."""
    import pandas as pd

    def _pdf(t):
        # int64/float64 → pandas nullable dtypes: a left-join miss must
        # become <NA>, never NaN — float promotion silently corrupts
        # int payloads > 2^53 (doc-id hashes span the full int64
        # range), and a NaN would come back as a value, not a null
        return t.to_pandas(types_mapper={
            pa.int64(): pd.Int64Dtype(),
            pa.float64(): pd.Float64Dtype()}.get)

    if how in ("semi", "anti"):
        # left rows verbatim: filter the Arrow table, no pandas trip
        keys = (pc.drop_null(rt[right_on]).to_numpy(zero_copy_only=False)
                if rt is not None else np.empty(0, np.int64))
        hit = np.isin(lt[left_on].to_numpy(), np.unique(keys))
        return lt.filter(pa.array(hit != (how == "anti")))
    ldf = _pdf(lt)
    if rt is None:
        if how == "inner":
            return None
        out = ldf.copy()                        # left join, no matches
        for name in schema.names:
            if name not in out.columns:
                out[name] = None
    else:
        rdf = _pdf(rt)
        out = ldf.merge(rdf, how=how, left_on=left_on,
                        right_on=right_on, suffixes=("", suffix))
        if right_on != left_on:
            # the merged right-key column kept its name unless it
            # collided with a LEFT column and took the suffix —
            # dropping the bare name there would delete left data
            merged_key = (right_on + suffix
                          if right_on in ldf.columns else right_on)
            out = out.drop(columns=[merged_key])
    arrays = [pa.Array.from_pandas(out[name], type=typ)
              for name, typ in zip(schema.names, schema.types)]
    return pa.Table.from_arrays(arrays, schema=schema)


def hash_join(left, right, left_on: str, right_on: str | None = None,
              how: str = "inner", suffix: str = "_r"):
    """General co-partitioned hash join of two Datasets with
    ARBITRARY (different) schemas on an int64 key — the library
    primitive behind the repo's tagged-union join queries, exposed
    directly: ``hash_join(orders, customer, "o_custkey", "c_custkey")``.

    ``how``: 'inner' | 'left' | 'semi' | 'anti'.  Inner/left emit
    left columns + right payload columns (right key dropped when
    named differently; clashing payload names get ``suffix``); with
    'left', unmatched right-side int and float columns surface as
    Arrow nulls (never NaN — the output schema is pinned from the
    input schemas, identical across partitions).  Semi/anti emit left
    rows verbatim.

    Scale shape: one sort-free hash exchange for both sides (each
    input block splits by key hash; reduce p merges both sides'
    p-slices with one vectorized pandas merge) — no broadcast, no
    global sort; per-reduce memory is O(rows/P + matches/P).  Skew
    caveat: a key's ENTIRE match set lands in one reduce —
    pre-aggregate hot keys (the per-batch-combiner pattern) before
    joining, as the repo's reporting queries do."""
    if how not in ("inner", "left", "semi", "anti"):
        raise ValueError(f"unsupported how={how!r}")
    right_on = right_on or left_on
    left, right = _materialized(left), _materialized(right)

    lschema = _arrow_schema(left)
    if how in ("semi", "anti"):
        out_schema = lschema
    else:
        rs = _arrow_schema(right)
        fields = list(zip(lschema.names, lschema.types))
        taken = {n for n, _ in fields}
        for name, typ in zip(rs.names, rs.types):
            if name == right_on:
                continue
            out = name if name not in taken else name + suffix
            if out in taken:
                # pandas would raise MergeError mid-task; fail fast
                # with the fix spelled out instead
                raise ValueError(
                    f"hash_join column collision: right column "
                    f"{name!r} suffixes to {out!r}, which the left "
                    f"side already has — rename a column or pass a "
                    f"different suffix")
            fields.append((out, typ))
            taken.add(out)
        out_schema = pa.schema(fields)

    return _apply(functools.partial(_join_tables, left_on, right_on, how,
                                    suffix, out_schema), out_schema,
                  (left, functools.partial(_key_part, left_on)),
                  (right, functools.partial(_key_part, right_on)))


def _attach(side: str, sig_col: str, out_col: str, pairs: pa.Table,
            sigs) -> pa.Table | None:
    """Partition fn of ``attach_column``: attach ``sig_col`` of the
    ``side`` doc onto each pair row (inner-join semantics: pairs
    whose key is absent from the signature side are dropped)."""
    if sigs is None:
        return None
    keys = sigs["doc_id"].to_numpy()
    order = np.argsort(keys)
    ks = keys[order]
    vals = sigs[sig_col].combine_chunks().take(pa.array(order))
    pk = pairs[side].to_numpy()
    idx = np.searchsorted(ks, pk)
    ok = idx < len(ks)
    idx = np.minimum(idx, len(ks) - 1)
    ok &= ks[idx] == pk
    out = pairs.filter(pa.array(ok))
    return out.append_column(out_col, vals.take(pa.array(idx[ok])))


# -- public API -------------------------------------------------------------

def _pairs_exchange(sig_ds, max_bucket: int, bipartite: bool):
    """Banding exchange (complete (band, key) buckets meet and expand)
    then pair exchange (pairs found in several bands meet and dedup)."""
    expand = functools.partial(_expand_pairs, max_bucket, bipartite)
    pairs = _apply(expand, _PAIR_SCHEMA, (sig_ds, _band_part))
    return _apply(_unique_pairs, _PAIR_SCHEMA, (pairs, _pair_part))


def candidate_pairs(sig_ds, max_bucket: int = 0):
    """(band, key, doc_id) Dataset → distinct candidate-pair Dataset
    with columns (doc_a, doc_b).

    Two hash exchanges (module docstring): the first co-locates
    complete (band, key) buckets and expands them vectorized; the
    second dedups pairs that surfaced in several bands with one
    np.unique per pair partition.  Nothing touches the driver and no
    task holds more than one partition.  ``max_bucket`` drops
    degenerate hot buckets (stop-bucket capping under skew)."""
    return _pairs_exchange(sig_ds, max_bucket, bipartite=False)


def bipartite_candidate_pairs(sig_ds, max_bucket: int = 0):
    """(band, key, doc_id, is_q) Dataset → distinct ORDERED candidate
    pairs (doc_a = query, doc_b = corpus member) — the asymmetric
    variant of :func:`candidate_pairs` for many-queries ANN search:
    query and corpus signature rows meet in co-located (band, key)
    buckets; each bucket emits its query x corpus cross product
    (self-pairs excluded); the second exchange dedups pairs that
    collided in several tables.  Same partitioning contract, same
    stop-bucket cap (``max_bucket`` bounds the CORPUS side of a
    bucket), nothing touches the driver."""
    return _pairs_exchange(sig_ds, max_bucket, bipartite=True)


def attach_column(pair_ds, sig_ds, sig_col: str, side: str, out_col: str):
    """Partitioned hash join: bring ``sig_col`` of the ``side`` doc onto
    each pair row.  Both sides split by the same coarse key hash; each
    join task sees one co-partition (state O(rows/P), never a broadcast
    key set).  Inner-join semantics: pairs whose key is absent from
    sig_ds are dropped.  Output: the pair table's columns + ``out_col``,
    also when either side is empty."""
    pair_ds, sig_ds = _materialized(pair_ds), _materialized(sig_ds)
    schema = _arrow_schema(pair_ds).append(
        _arrow_schema(sig_ds).field(sig_col).with_name(out_col))
    return _apply(functools.partial(_attach, side, sig_col, out_col),
                  schema,
                  (pair_ds, functools.partial(_key_part, side)),
                  (sig_ds, functools.partial(_key_part, "doc_id")))


def join_signatures(pair_ds, sig_ds, sig_col: str):
    """Attach a per-doc signature column to both sides of a pair table
    via two partitioned hash joins (the no-broadcast verify path)."""
    sig_ds = _materialized(sig_ds)   # read once, feed both attaches
    a = attach_column(pair_ds, sig_ds, sig_col, "doc_a", f"{sig_col}_a")
    return attach_column(a, sig_ds, sig_col, "doc_b", f"{sig_col}_b")


def hamming_band_keys(values: np.ndarray, n_bands: int,
                      composite: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Multi-index Hamming banding: split 64 bits into ``n_bands``
    near-equal bands, then key every ``composite``-subset of bands
    (pigeonhole: distance ≤ d touches ≤ d bands, so any pair with
    n_bands - d ≥ composite shares one clean composite key — choose
    n_bands ≥ d + composite for a zero-miss guarantee).

    Returns (band_idx, key) arrays of shape (n, C(n_bands, composite)).
    """
    from itertools import combinations
    v = values.astype(np.uint64)
    widths = np.full(n_bands, 64 // n_bands, dtype=np.uint64)
    widths[:64 % n_bands] += np.uint64(1)
    shifts = np.concatenate([[0], np.cumsum(widths)[:-1]]).astype(np.uint64)
    masks = (np.uint64(1) << widths) - np.uint64(1)
    bands = (v[:, None] >> shifts[None, :]) & masks[None, :]   # (n, B)
    combos = list(combinations(range(n_bands), composite))
    n = len(v)
    band_idx = np.repeat(np.arange(len(combos), dtype=np.int64)[None, :],
                         n, axis=0)
    keys = np.empty((n, len(combos)), dtype=np.int64)
    for ci, combo in enumerate(combos):
        k = np.zeros(n, dtype=np.uint64)
        for b in combo:
            k = (k << widths[b]) | bands[:, b]
        keys[:, ci] = k.astype(np.int64)
    return band_idx, keys
