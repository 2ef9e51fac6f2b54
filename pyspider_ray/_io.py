"""Shared Ray Data helpers for the query families.

One owner for the parquet-read hygiene and the broadcast-state fetch
both ``queries.py`` and ``training_queries.py`` rely on.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa


def rd():
    """ray.data with progress bars off (bench/test hygiene)."""
    import ray.data as _rd
    _rd.DataContext.get_current().enable_progress_bars = False
    return _rd


def _read_row_groups(path: str, row_groups: list, columns,
                     schema: pa.Schema) -> list:
    """One read task: its row groups as one table of ``schema``."""
    import pyarrow.parquet as pq
    return [pq.ParquetFile(path).read_row_groups(
        row_groups, columns=columns, use_threads=False)
        .select(schema.names).cast(schema)]


def _footer_datasource(path: str, meta, columns, schema: pa.Schema):
    """A Ray Data ``Datasource`` planned from a Parquet footer already
    read, and its block count (the exchange's rule over the selected
    columns' uncompressed bytes).  Each read task reads contiguous row
    groups; its metadata is their rows and bytes.  With fewer row
    groups than blocks, Ray Data splits each task's output, as it does
    for ``read_parquet``."""
    from ray.data.block import BlockMetadata
    from ray.data.datasource import Datasource, ReadTask

    from . import neardup
    rg_rows = [meta.row_group(i).num_rows
               for i in range(meta.num_row_groups)]
    rg_bytes = [sum(c.total_uncompressed_size
                    for c in map(rg.column, range(rg.num_columns))
                    if c.path_in_schema.split(".")[0] in schema.names)
                for rg in map(meta.row_group, range(meta.num_row_groups))]
    blocks = min(neardup._MAX_PARTITIONS,
                 max(1, -(-sum(rg_bytes) // neardup._PARTITION_BYTES)))

    class ParquetFooterDatasource(Datasource):
        def estimate_inmemory_data_size(self) -> int:
            return sum(rg_bytes)

        def get_read_tasks(self, parallelism: int, **_) -> list:
            # the plan is the footer's; Ray's parallelism is not used
            groups = np.array_split(np.arange(len(rg_rows)),
                                    max(1, min(blocks, len(rg_rows))))
            return [ReadTask(
                functools.partial(_read_row_groups, path, g.tolist(),
                                  columns, schema),
                BlockMetadata(num_rows=sum(rg_rows[i] for i in g),
                              size_bytes=sum(rg_bytes[i] for i in g),
                              input_files=[path], exec_stats=None),
                schema=schema)
                for g in groups]

    return ParquetFooterDatasource(), blocks


def read_table(sf_dir: str, table: str, columns=None):
    """A Dataset reading ``sf_dir/table.parquet``, planned from its
    footer and sized by its bytes.

    One driver-side footer read (``pq.read_metadata``) gives all of
    the plan, so Ray Data samples nothing (``read_parquet`` starts a
    sampling task per read, about 13 ms, for what the footer says):

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
      Ray at 4 logical CPUs, median of 7);
    - read tasks over row groups and the selected columns' bytes as
      the size estimate.  Building a read took 17.6 ms with
      ``read_parquet`` and takes about 5 ms here, and one-block read +
      map, materialized, went 70 -> 55 ms (4-CPU host, Ray at 4
      logical CPUs); on a 1-CPU host, Ray at 4 logical CPUs, median of
      15 over three 0.2-0.6 MB files: 14-20 -> 3-4 ms and 68-87 ->
      57-68 ms.

    Only the selected columns are read."""
    import pyarrow.parquet as pq
    path = f"{sf_dir}/{table}.parquet"
    meta = pq.read_metadata(path)
    schema = meta.schema.to_arrow_schema().remove_metadata()
    if columns:
        schema = pa.schema([schema.field(c) for c in columns])
    source, blocks = _footer_datasource(path, meta, columns, schema)
    return rd().read_datasource(source, override_num_blocks=blocks)


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
