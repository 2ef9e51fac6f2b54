"""pyspider_ray — a Ray-Data-native crawl frontier + fetch scheduler.

A from-scratch re-expression of binux/pyspider's query & data-processing
capabilities (the reference is cited as ``file:line`` in docstrings) on
Ray:

- the crawl: sharded URL-seen frontier actors, a per-host politeness
  gate and persistent data-plane worker actors driven by a
  round-based coordinator; zero-copy Arrow batches for
  canonicalization, fetch, parsing and payload decode;
- the query layer (``queries``, ``training_queries``): ``ray.data``
  pipelines whose Parquet reads are sized by their bytes
  (``_io.read_table``), whose per-key steps all run on one sort-free
  hash exchange (``neardup.partition_apply`` / ``group_apply`` /
  ``hash_join``) and whose aggregates all run on its combiner
  (``neardup.combine``); shared read-only state reaches plain map
  tasks as one object-store ref;
- partitioned Parquet (Lance when available) sinks with per-partition
  lineage for checkpoint/resume.

Nothing here calls ``ray.init``; the embedding driver owns the session.
"""

__version__ = "0.1.0"

# Allocator tuning fires in every process that imports the package —
# including each Ray worker as it unpickles a stage function (see
# _malloc.py for the why and the measured 10x on cold batch kernels).
from ._malloc import tune_malloc as _tune_malloc

_tune_malloc()

VIRTUAL_EPOCH = 1_700_000_000.0  # t0 of the deterministic virtual clock (FIXTURES.md)
