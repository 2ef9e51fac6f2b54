"""The image payload path — synthetic fetch → processor → result build →
Parquet — pinned byte for byte.

The digests below were taken from the codec/processor/writer code before
the payload path was reworked to copy each payload byte fewer times; any
change to a stored byte, column, type or row order breaks them.  The
fixed input covers png and fjpg pages, a 503 (seeded transient failure),
a 304 (matching etag) and a ``data:`` control row, with a small id space
so the in-callback follow dedup has duplicates to drop."""

from __future__ import annotations

import gc
import hashlib
import threading

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from pyspider_ray.functions import synthweb
from pyspider_ray.functions.buffers import binary_array, binary_views
from pyspider_ray.functions.imaging import decode_image
from pyspider_ray.pipelines.crawl import ResultWriteError, _WorkerActor
from pyspider_ray.stages.fetcher import SyntheticFetcher
from pyspider_ray.stages.processor import (ProcessorStage, ResultBuilder,
                                           control_table)

PAGE_IDS = list(range(105, 120))   # 108/112/116 fjpg, 117 → 503
NOT_MODIFIED_ID = 110              # fetched with its current etag → 304
FETCH_KW = {"fail_permille": 150}
PROC_KW = {"total": 50, "show": 20, "n_hosts": 5}

DIGESTS = {
    1: {
        "encode_page": "9056a7e457514fffdeb88a4163257615",
        "fetch": "d92b2c41e15de9e79a5c8edd5ce388e6",
        "process": "da60d7395ead0afb8cde3168a7369b17",
        "results": "58d1091854bb37b084fa1c5c96bb5e33",
        "control": "9d23c2ae9428dd11fafce4d08f7d5a9d",
        "parquet": "58d1091854bb37b084fa1c5c96bb5e33",
    },
    6: {
        "encode_page": "7d6e0e7af01b84928ac1c0cce790a520",
        "fetch": "fe541a05b7e9f6d3a99f36dba086e976",
        "process": "18b8c3a324b463e79b5306d196a6c53a",
        "results": "abb269cbd4c88ba8736179a4718b98b9",
        "control": "9d23c2ae9428dd11fafce4d08f7d5a9d",
        "parquet": "abb269cbd4c88ba8736179a4718b98b9",
    },
}


def input_table() -> pa.Table:
    ids = np.asarray(PAGE_IDS, dtype=np.int64)
    urls = synthweb.urls_of(ids, PROC_KW["n_hosts"]) + ["data:,hello"]
    etags = [synthweb.page_etag(i) if i == NOT_MODIFIED_ID else ""
             for i in PAGE_IDS] + [""]
    n = len(urls)
    return pa.table({
        "taskid": [f"t{i:02d}" for i in range(n)],
        "urlhash": pa.array(range(n), pa.int64()),
        "project": ["bench"] * n,
        "url": urls,
        "host": [u.split("/")[2] if "//" in u else "" for u in urls],
        "retried": pa.array([0] * n, pa.int32()),
        "etag": etags,
    })


def table_md5(t: pa.Table) -> str:
    """Schema (names, types, nullability) plus every value, in order."""
    h = hashlib.md5()
    for f in t.schema:
        h.update(f"{f.name}:{f.type}:{f.nullable};".encode())
    for name in t.column_names:
        col = t[name]
        if pa.types.is_binary(col.type):
            for v in col.to_pylist():
                h.update(b"N" if v is None
                         else len(v).to_bytes(8, "little") + v)
        else:
            h.update(repr(col.to_pylist()).encode())
    return h.hexdigest()


def encode_md5(scale: int) -> str:
    h = hashlib.md5()
    for i in PAGE_IDS:
        page = synthweb.encode_page(i, scale)
        h.update(len(page).to_bytes(8, "little") + page)
    return h.hexdigest()


def read_parts(round_dir) -> pa.Table:
    parts = sorted(round_dir.glob("part-*.parquet"))
    return pa.concat_tables([pq.read_table(p) for p in parts])


def stage_digests(scale: int, tmp_path) -> dict:
    table = input_table()
    fetched = SyntheticFetcher(page_scale=scale, **FETCH_KW)(table)
    processed = ProcessorStage(**PROC_KW)(fetched)
    out = {
        "encode_page": encode_md5(scale),
        "fetch": table_md5(fetched),
        "process": table_md5(processed),
        "results": table_md5(ResultBuilder(processed)),
        "control": table_md5(control_table(processed)),
    }
    worker = _WorkerActor(dict(FETCH_KW, page_scale=scale), PROC_KW)
    round_dir = tmp_path / f"scale{scale}"
    ctrl = worker.process_chunk(table, str(round_dir), 0)
    worker.flush()
    assert table_md5(ctrl) == out["control"]
    out["parquet"] = table_md5(read_parts(round_dir))
    return out


def test_input_covers_every_row_kind():
    fetched = SyntheticFetcher(**FETCH_KW)(input_table())
    codes = fetched["status_code"].to_pylist()
    fmts = {synthweb.page_fmt(i) for i in PAGE_IDS}
    assert {200, 304, 503} <= set(codes) and fmts == {"png", "jpeg"}
    assert fetched["url"][len(codes) - 1].as_py().startswith("data:")


@pytest.mark.parametrize("scale", [1, 6])
def test_payload_path_is_byte_identical(scale, tmp_path):
    assert stage_digests(scale, tmp_path) == DIGESTS[scale]


def test_views_of_sliced_chunked_columns():
    pages = [synthweb.encode_page(i) for i in PAGE_IDS[:6]]
    col = pa.chunked_array([pa.array(pages[:3]), pa.array(pages[3:])])
    views = binary_views(col.slice(1, 4))
    assert [bytes(v) for v in views] == pages[1:5]
    assert binary_array(views).equals(pa.array(pages[1:5], pa.binary()))
    # memoryview(pa.Buffer) is signed ('b'): the magic checks must hold
    png = bytes(synthweb.decode_page(pages[1])[1])
    assert np.array_equal(decode_image(pa.py_buffer(png)),
                          decode_image(png))


def test_payload_path_retains_no_arrow_memory():
    """Result columns must not keep the fetched content buffers alive
    (``pa.array`` over memoryviews of Arrow buffers does, in pyarrow 16)."""
    fetcher = SyntheticFetcher(page_scale=2, **FETCH_KW)
    processor = ProcessorStage(**PROC_KW)
    table = input_table()
    ResultBuilder(processor(fetcher(table)))   # warm any lazy allocations
    gc.collect()
    base = pa.total_allocated_bytes()
    for _ in range(20):
        results = ResultBuilder(processor(fetcher(table)))
        assert len(results) == len(PAGE_IDS) - 2
    del results
    gc.collect()
    assert pa.total_allocated_bytes() == base


class _FailingSink:
    calls = 0

    def __call__(self, table, round_dir, part_idx):
        type(self).calls += 1
        if type(self).calls == 2:
            raise OSError("disk full")


def test_writer_failure_is_raised_not_lost(tmp_path):
    """A sink that fails on its second part: the next flush (or chunk)
    raises ResultWriteError instead of hanging or dropping rows."""
    _FailingSink.calls = 0
    worker = _WorkerActor(FETCH_KW, PROC_KW, sink_cls=_FailingSink,
                          batch_rows=4)
    table = input_table()
    errors = []

    def drive():
        for call in (lambda: worker.process_chunk(table, str(tmp_path), 0),
                     worker.flush,
                     lambda: worker.process_chunk(table, str(tmp_path), 1),
                     worker.flush):
            try:
                call()
            except ResultWriteError as e:
                errors.append(e)

    t = threading.Thread(target=drive, daemon=True)
    t.start()
    t.join(timeout=60)
    assert not t.is_alive(), "worker hung after a failed write"
    # the first flush at the latest sees the failure, and it stays raised
    assert len(errors) >= 3
    assert all("disk full" in str(e) for e in errors)
    assert isinstance(errors[0].__cause__, OSError)


def test_process_chunk_microbench(benchmark, tmp_path):
    """One 16-row page_scale=6 chunk through the worker, digests checked
    so a speed-up cannot come from changing the output."""
    worker = _WorkerActor(dict(FETCH_KW, page_scale=6), PROC_KW)
    table = input_table()
    rounds = iter(range(3))

    def one_chunk():
        round_dir = tmp_path / f"round{next(rounds)}"
        ctrl = worker.process_chunk(table, str(round_dir), 0)
        worker.flush()
        return ctrl, round_dir

    ctrl, round_dir = benchmark.pedantic(one_chunk, rounds=3, iterations=1)
    assert table_md5(ctrl) == DIGESTS[6]["control"]
    assert table_md5(read_parts(round_dir)) == DIGESTS[6]["parquet"]
