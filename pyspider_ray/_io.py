"""Shared Ray Data helpers for the query families.

One owner for the parquet-read hygiene and the broadcast-state fetch
both ``queries.py`` and ``training_queries.py`` rely on.
"""

from __future__ import annotations

import pyarrow as pa


def rd():
    """ray.data with progress bars off (bench/test hygiene)."""
    import ray.data as _rd
    _rd.DataContext.get_current().enable_progress_bars = False
    return _rd


def read_table(sf_dir: str, table: str, columns=None):
    """``read_parquet`` of ``sf_dir/table.parquet`` sized by its bytes.

    One driver-side footer read (``pq.read_metadata``) gives both:

    - a METADATA-FREE schema: the test files carry pandas schema
      metadata (an unhashable dict) that otherwise rides in on every
      block and defeats Ray Data's block-schema dedup ("Failed to hash
      the schemas" per block);
    - the block count, by the exchange's own rule: the selected
      columns' uncompressed bytes over ``neardup._PARTITION_BYTES``,
      clamped to [1, ``_MAX_PARTITIONS``].  A small table is one block,
      so the read and the maps after it fuse into one task.  Left to
      Ray Data, a 634 KB, 40k-row ``events`` file split into 8 blocks
      and read + map, materialized, took 170 ms against 75 ms as one
      block (a plain Ray task doing the same work: 8 ms; 1-CPU host,
      Ray at 4 logical CPUs, median of 7).

    Column pruning pushes down as usual."""
    import pyarrow.parquet as pq

    from . import neardup
    path = f"{sf_dir}/{table}.parquet"
    meta = pq.read_metadata(path)
    schema = meta.schema.to_arrow_schema().remove_metadata()
    if columns:
        schema = pa.schema([schema.field(c) for c in columns])
    nbytes = sum(col.total_uncompressed_size
                 for rg in map(meta.row_group, range(meta.num_row_groups))
                 for col in map(rg.column, range(rg.num_columns))
                 if col.path_in_schema.split(".")[0] in schema.names)
    blocks = min(neardup._MAX_PARTITIONS,
                 max(1, -(-nbytes // neardup._PARTITION_BYTES)))
    return rd().read_parquet(path, columns=columns, schema=schema,
                             override_num_blocks=blocks)


_BROADCAST: dict = {}      # ref id -> value, oldest first
_BROADCAST_KEEP = 4


def broadcast_get(ref):
    """The value behind an object-store ref, fetched once per worker
    process.  Map tasks that share read-only state (a join side, an
    elected winner set, a model table) get its ``ObjectRef`` through
    ``fn_kwargs``; a process's first task pays the ``ray.get`` and the
    rest read it from here.  Keyed by object id, so a newer ``ray.put``
    is never served an older value; only the last few refs stay."""
    key = ref.hex()
    if key not in _BROADCAST:
        import ray
        if len(_BROADCAST) >= _BROADCAST_KEEP:
            del _BROADCAST[next(iter(_BROADCAST))]
        _BROADCAST[key] = ray.get(ref)
    return _BROADCAST[key]
