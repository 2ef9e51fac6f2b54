"""``neardup.combine``, the query layer's one aggregate, against pandas:
exact int64 sums past 2^53, count/min/max on int and string keys, a
group whose values are all null, and an empty input.  Each case runs
both input paths (a lazy input takes the per-batch partial pass, a
materialized one goes straight to the exchange) at one partition and
at several."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from pyspider_ray import neardup

pytestmark = pytest.mark.usefixtures("ray_session")

AGGS = {"s": "sum", "n": "count", "lo": "min", "hi": "max"}


def _ds(t: pa.Table, lazy: bool, n_blocks: int = 4):
    import ray.data as rd
    per = -(-len(t) // n_blocks) or 1
    ds = rd.from_arrow([t.slice(i, per) for i in range(0, len(t), per)]
                       or [t])
    return ds.map_batches(lambda b: b, batch_format="pyarrow") if lazy \
        else ds


def _schema(key_type, val_type):
    return pa.schema([("k", key_type), ("s", pa.int64()),
                      ("n", pa.int64()), ("lo", val_type),
                      ("hi", val_type)])


def _rows(ds) -> dict:
    """{key: (s, n, lo, hi)} from the output rows as Python values, no
    pandas trip (which would turn an int column with nulls into
    float64)."""
    return {r["k"]: tuple(r[c] for c in AGGS) for r in ds.take_all()}


@pytest.fixture(params=["lazy", "materialized"])
def lazy(request):
    return request.param == "lazy"


@pytest.fixture(params=["one_partition", "many_partitions"])
def split_as_asked(request, monkeypatch):
    """Runs the test at one partition or at several; the returned
    check says whether the exchange really split as asked."""
    seen = request.getfixturevalue("exchange_partitions")
    many = request.param == "many_partitions"
    if not many:
        monkeypatch.setattr(neardup, "_PARTITION_BYTES", 1 << 40)
    return lambda: (max(seen) > 1) == many


class TestCombine:
    def test_int64_sums_past_2_53_stay_exact(self, lazy, split_as_asked):
        # 2^62-scale values whose float64 sum loses the low bits
        rng = np.random.RandomState(3)
        k = rng.randint(0, 7, 400).astype(np.int64)
        v = (np.int64(1) << np.int64(60)) + rng.randint(0, 1000, 400) * 2 + 1
        t = pa.table({"k": k, "s": v // 64})
        out = {r["k"]: (r["s"],) for r in neardup.combine(
            _ds(t, lazy), ["k"], {"s": "sum"},
            pa.schema([("k", pa.int64()), ("s", pa.int64())])).take_all()}
        want = {}
        for kk, vv in zip(k.tolist(), (v // 64).tolist()):
            want[kk] = want.get(kk, 0) + vv          # Python ints: exact
        assert out == {kk: (x,) for kk, x in want.items()}
        assert any(int(float(x)) != x
                   for x in want.values())           # float64 would round
        assert split_as_asked()

    @pytest.mark.parametrize("key", ["int", "string"])
    def test_count_min_max_match_pandas(self, lazy, key, split_as_asked):
        rng = np.random.RandomState(8)
        keys = rng.randint(0, 30, 500)
        df = pd.DataFrame({
            "k": (keys.astype(np.int64) if key == "int"
                  else np.array([f"host-{i}.example" for i in keys])),
            "s": rng.randint(-10**9, 10**9, 500).astype(np.int64),
            "lo": np.array([f"w{i:04d}" for i in rng.randint(0, 9999, 500)]),
        })
        df["hi"] = df["lo"]
        kt = pa.int64() if key == "int" else pa.string()
        out = _rows(neardup.combine(
            _ds(pa.Table.from_pandas(df, preserve_index=False), lazy),
            ["k"], AGGS, _schema(kt, pa.string())))
        ref = df.groupby("k").agg(s=("s", "sum"), n=("s", "size"),
                                  lo=("lo", "min"), hi=("hi", "max"))
        want = {k: (int(r.s), int(r.n), r.lo, r.hi)
                for k, r in ref.iterrows()}
        assert out == want
        assert split_as_asked()

    def test_all_null_group(self, lazy, split_as_asked):
        t = pa.table({
            "k": pa.array([1, 1, 2, 2, 2], pa.int64()),
            "s": pa.array([None, None, 4, None, 6], pa.int64()),
            "lo": pa.array([None, None, 9, 3, None], pa.int64()),
            "hi": pa.array([None, None, 9, 3, None], pa.int64())})
        out = _rows(neardup.combine(_ds(t, lazy, n_blocks=3), ["k"], AGGS,
                                    _schema(pa.int64(), pa.int64())))
        # SQL semantics, as pandas' sum(min_count=1): an all-null
        # group sums to null, and count counts its rows
        ref = t.to_pandas().groupby("k")
        assert ref["s"].sum(min_count=1).isna().tolist() == [True, False]
        assert out == {1: (None, 2, None, None), 2: (10, 3, 3, 9)}
        assert split_as_asked()

    def test_empty_input_returns_declared_schema(self, lazy):
        schema = _schema(pa.string(), pa.int64())
        empty = pa.table({"k": pa.array([], pa.string()),
                          "s": pa.array([], pa.int64()),
                          "lo": pa.array([], pa.int64()),
                          "hi": pa.array([], pa.int64())})
        out = neardup.combine(_ds(empty, lazy), ["k"], AGGS, schema)
        assert out.count() == 0
        s = out.schema()
        assert dict(zip(s.names, s.types)) == dict(zip(schema.names,
                                                       schema.types))
