"""Exchanges chain on object refs: an exchange's output goes to the
next exchange as its reduce refs, sized by the stats the reduce
returned, and a Dataset is built from them once, when a caller uses
the result as one.  Reads are planned from the Parquet footer, with
no Ray Data sampling task.

Partition fns are defined INSIDE the tests: module-level functions in
a test file pickle by reference and Ray workers can't import it."""

import threading

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from pyspider_ray import _io, neardup

pytestmark = pytest.mark.usefixtures("ray_session")

_RNG = np.random.RandomState(7)
KV = pd.DataFrame({"k": _RNG.randint(0, 50, 500).astype(np.int64),
                   "v": _RNG.randint(0, 1000, 500).astype(np.int64)})
KV_SCHEMA = pa.schema([("k", pa.int64()), ("v", pa.int64())])


def _ds(df, n_blocks=4):
    import ray.data as rd
    per = -(-len(df) // n_blocks)
    return rd.from_arrow([pa.Table.from_pandas(df.iloc[i:i + per],
                                               preserve_index=False)
                          for i in range(0, len(df), per)])


@pytest.fixture
def from_arrow_refs_calls(monkeypatch):
    """Counts the calls of ``ray.data.from_arrow_refs``."""
    import ray.data as rd
    calls = []
    real = rd.from_arrow_refs

    def spy(*a, **kw):
        calls.append(1)
        return real(*a, **kw)

    monkeypatch.setattr(rd, "from_arrow_refs", spy)
    return calls


def _sums():
    return (KV.groupby("k", as_index=False)["v"].sum()
            .sort_values("k").reset_index(drop=True))


def test_combine_of_partition_apply_builds_one_dataset(
        from_arrow_refs_calls, exchange_partitions):
    def ident(t):
        return t

    out = neardup.combine(
        neardup.partition_apply(_ds(KV), "k", ident, KV_SCHEMA),
        ["k"], {"v": "sum"}, KV_SCHEMA)
    assert not from_arrow_refs_calls
    got = out.to_pandas().sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, _sums())
    assert len(from_arrow_refs_calls) <= 1
    assert min(exchange_partitions) > 1


def test_hash_join_of_combine_builds_one_dataset(from_arrow_refs_calls,
                                                 exchange_partitions):
    names = pd.DataFrame({"id": np.arange(60, dtype=np.int64),
                          "name": [f"n{i}" for i in range(60)]})
    sums = neardup.combine(_ds(KV), ["k"], {"v": "sum"}, KV_SCHEMA)
    out = neardup.hash_join(sums, _ds(names), "k", "id")
    assert not from_arrow_refs_calls
    got = out.to_pandas().sort_values("k").reset_index(drop=True)
    exp = _sums().assign(name=lambda d: "n" + d["k"].astype(str))
    pd.testing.assert_frame_equal(got, exp)
    assert len(from_arrow_refs_calls) <= 1


def test_join_signatures_of_candidate_pairs_builds_one_dataset(
        from_arrow_refs_calls, exchange_partitions):
    # docs 3i, 3i+1, 3i+2 share every band key: three pairs per family
    tri = pd.DataFrame({"band": np.tile(np.arange(3), 30),
                        "key": np.repeat(np.arange(30) // 3, 3),
                        "doc_id": np.repeat(np.arange(30), 3)}
                       ).astype(np.int64)
    sigs = pd.DataFrame({"doc_id": np.arange(30, dtype=np.int64),
                         "sig": np.arange(30, dtype=np.int64) * 7})
    out = neardup.join_signatures(neardup.candidate_pairs(_ds(tri)),
                                  _ds(sigs), "sig")
    assert not from_arrow_refs_calls
    got = out.to_pandas().sort_values(["doc_a", "doc_b"]) \
        .reset_index(drop=True)
    assert len(got) == 30
    assert (got["sig_a"] == got["doc_a"] * 7).all()
    assert (got["sig_b"] == got["doc_b"] * 7).all()
    assert len(from_arrow_refs_calls) <= 1


def test_read_plans_from_footer_without_sampling(sf_dir, monkeypatch):
    from ray.data._internal.datasource import parquet_datasource

    def no_sampling(*a, **kw):
        raise AssertionError("sample_fragments ran")

    monkeypatch.setattr(parquet_datasource, "sample_fragments",
                        no_sampling)
    ds = _io.read_table(sf_dir, "events", ["event_id", "user_id"]) \
        .materialize()
    assert ds.count() == 1000
    assert ds.schema().names == ["event_id", "user_id"]


def test_failing_partition_fn_surfaces_from_a_chain(exchange_partitions):
    """A partition fn that raises in the first of two chained exchanges
    fails the query with its own exception: no hang, no empty result."""
    def boom(t):
        raise ValueError("partition fn failed")

    result = {}

    def run():
        try:
            first = neardup.partition_apply(_ds(KV), "k", boom, KV_SCHEMA)
            out = neardup.combine(first, ["k"], {"v": "sum"}, KV_SCHEMA)
            result["rows"] = len(out.to_pandas())
        except Exception as exc:                       # noqa: BLE001
            result["exc"] = exc

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive(), "the chained query hung"
    assert "rows" not in result, result
    assert isinstance(result["exc"], ValueError)
    assert "partition fn failed" in str(result["exc"])


def test_map_on_an_exchange_output_runs_per_partition(exchange_partitions):
    def ident(t):
        return t

    def doubled(b):
        import pyarrow.compute as pc
        return pa.table({"k": b["k"], "v2": pc.multiply(b["v"], 2)})

    out = neardup.partition_apply(_ds(KV), "k", ident, KV_SCHEMA)
    mapped = out.map_batches(doubled, batch_format="pyarrow", batch_size=7)
    assert isinstance(mapped, neardup.ExchangeOutput)
    assert mapped.schema().names == ["k", "v2"]
    assert mapped.count() == len(KV)
    got = mapped.to_pandas().sort_values(["k", "v2"]).reset_index(drop=True)
    exp = (KV.assign(v2=KV["v"] * 2)[["k", "v2"]]
           .sort_values(["k", "v2"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got, exp)


def test_map_that_rejects_an_empty_input_runs_on_ray_data():
    def ident(t):
        return t

    def first_value(b):
        return pa.table({"k": [b["k"][0].as_py()]})

    out = neardup.partition_apply(_ds(KV), "k", ident, KV_SCHEMA)
    mapped = out.map_batches(first_value, batch_format="pyarrow")
    assert not isinstance(mapped, neardup.ExchangeOutput)
    assert mapped.count() >= 1


def test_exchange_log_records_skew(exchange_partitions):
    hot = pd.DataFrame({"k": np.r_[np.zeros(900, np.int64),
                                   np.arange(1, 101, dtype=np.int64)],
                        "v": np.arange(1000, dtype=np.int64)})

    def ident(t):
        return t

    neardup.partition_apply(_ds(hot), "k", ident, KV_SCHEMA)
    rec = neardup.exchange_log()[-1]
    assert set(rec) == {"fn", "P", "rows_in", "bytes_in", "rows_out",
                        "bytes_out", "part_bytes_max",
                        "part_bytes_median"}
    assert rec["fn"].endswith("ident")
    assert rec["P"] == exchange_partitions[-1] > 1
    assert rec["rows_in"] == rec["rows_out"] == 1000
    assert rec["bytes_in"] >= 1000 * 16
    assert rec["part_bytes_max"] > rec["part_bytes_median"]
