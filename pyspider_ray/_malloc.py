"""Allocator tuning for batch-numeric workloads.

glibc malloc serves large (>=128 KiB) allocations with mmap and
returns them to the OS on free.  Vectorized batch processing allocates
and frees hundreds of MB of numpy/Arrow temporaries per batch, so
every batch repays first-touch page faults on freshly mapped pages —
on virtualized hosts (microVM/overcommitted memory) those faults are
the dominant cost: the same expand kernel measured 59.7 s on fresh
pages vs 0.9 s on reused ones (BASELINE.md "Allocator discovery").
Raising M_MMAP_THRESHOLD and M_TRIM_THRESHOLD keeps big blocks on
malloc's free list so pages are touched once per worker, not once per
batch.

Called at package import, which makes it take effect in every Ray
worker the moment it unpickles one of our stage functions.
"""

from __future__ import annotations

_done = False


def tune_malloc() -> bool:
    """Idempotent; returns True if tuning was applied."""
    global _done
    if _done:
        return True
    try:
        import ctypes
        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        M_TRIM_THRESHOLD = -1
        M_MMAP_THRESHOLD = -3
        one_gib = 1 << 30
        libc.mallopt(M_MMAP_THRESHOLD, one_gib)
        libc.mallopt(M_TRIM_THRESHOLD, one_gib)
        _done = True
    except Exception:
        pass   # non-glibc platform: nothing to tune
    return _done
