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
    """``read_parquet`` with a METADATA-FREE schema: the test files
    carry pandas schema metadata (an unhashable dict) that otherwise
    rides in on every block and defeats Ray Data's block-schema dedup
    ("Failed to hash the schemas" per block).  One driver-side footer
    read strips it; column pruning pushes down as usual."""
    import pyarrow.parquet as pq
    path = f"{sf_dir}/{table}.parquet"
    schema = pq.read_schema(path).remove_metadata()
    if columns:
        schema = pa.schema([schema.field(c) for c in columns])
    return rd().read_parquet(path, columns=columns, schema=schema)


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
