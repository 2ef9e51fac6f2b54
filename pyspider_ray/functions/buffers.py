"""Zero-copy buffer helpers for the crawl's payload path.

A page's bytes are copied once into the fetcher's ``content`` column
and once into the processor's result ``bytes`` column; everything in
between reads them through views.  These helpers keep it that way."""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def byte_view(data) -> memoryview:
    """Zero-copy unsigned-byte view of any buffer (bytes, memoryview,
    numpy uint8 array, ``pa.Buffer``).  ``memoryview(pa.Buffer)`` has
    format ``'b'`` (signed) and never compares equal to ``bytes``; the
    cast makes magic-number checks hold for every source."""
    view = memoryview(data)
    return view if view.format == "B" else view.cast("B")


def binary_views(col: pa.ChunkedArray) -> list:
    """Per-row numpy uint8 views of a binary column's values
    (``to_pylist`` would copy every value out into a ``bytes``)."""
    views = []
    for chunk in col.chunks:
        large = pa.types.is_large_binary(chunk.type) or \
            pa.types.is_large_string(chunk.type)
        _, offs_buf, data_buf = chunk.buffers()
        offs = np.frombuffer(offs_buf, np.int64 if large else np.int32)
        offs = offs[chunk.offset:chunk.offset + len(chunk) + 1].tolist()
        data = np.frombuffer(data_buf, np.uint8) if data_buf is not None \
            else np.empty(0, np.uint8)
        views.extend(data[a:b] for a, b in zip(offs, offs[1:]))
    return views


def binary_array(values: list) -> pa.Array:
    """A binary array from per-row buffers in one copy, into a fresh data
    buffer that references none of its sources.  ``pa.array`` is slower
    (its builder regrows the buffer) and, over memoryviews, keeps every
    source buffer alive in pyarrow 16."""
    ends = np.cumsum([len(v) for v in values], dtype=np.int64)
    if len(ends) and ends[-1] > np.iinfo(np.int32).max:
        raise OverflowError(f"{ends[-1]} bytes exceed one binary array's "
                            "int32 offsets; use smaller batches")
    offsets = np.zeros(len(values) + 1, dtype=np.int32)
    offsets[1:] = ends
    data = np.concatenate([np.frombuffer(v, np.uint8) for v in values]) \
        if values else np.empty(0, np.uint8)
    return pa.Array.from_buffers(pa.binary(), len(values),
                                 [None, pa.py_buffer(offsets),
                                  pa.py_buffer(data)])
