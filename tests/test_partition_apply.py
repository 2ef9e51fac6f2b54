"""The manual-exchange primitives (neardup.partition_apply /
group_apply) that route six-plus operators: every key's rows must land
in exactly ONE reduce call, results must equal a pure-Python fold, the
declared schema must hold even for empty inputs, and the vectorized
partition-level form must agree with the per-group form.

Reduce fns are defined INSIDE the tests: module-level functions in a
test file pickle by reference and Ray workers can't import it."""

import numpy as np
import pyarrow as pa

SCHEMA = pa.schema([("k", pa.int64()), ("s", pa.int64()),
                    ("n", pa.int64())])


def _mk_ds(n_rows=5000, n_keys=37, n_blocks=8):
    """Deterministic multi-block dataset of (k, v) int64 rows."""
    import ray.data as rd
    ks = (np.arange(n_rows, dtype=np.int64) * 7919) % n_keys
    vs = (np.arange(n_rows, dtype=np.int64) * 13) % 1000
    per = n_rows // n_blocks
    tables = [pa.table({"k": pa.array(ks[i * per:(i + 1) * per]),
                        "v": pa.array(vs[i * per:(i + 1) * per])})
              for i in range(n_blocks)]
    return rd.from_arrow(tables), ks, vs


def _make_sum_part():
    def sum_part(part: pa.Table) -> pa.Table:
        import pandas as pd
        g = (pd.DataFrame({"k": part["k"].to_numpy(),
                           "v": part["v"].to_numpy()})
             .groupby("k", sort=False)["v"].agg(["sum", "size"])
             .reset_index())
        return pa.table({"k": pa.array(g["k"].to_numpy(np.int64)),
                         "s": pa.array(g["sum"].to_numpy(np.int64)),
                         "n": pa.array(g["size"].to_numpy(np.int64))})
    return sum_part


class TestPartitionApply:
    def test_matches_pure_fold_and_no_key_splits(self, ray_session,
                                                 exchange_partitions):
        from pyspider_ray.neardup import partition_apply
        ds, ks, vs = _mk_ds()
        out = partition_apply(ds, "k", _make_sum_part(),
                              SCHEMA).take_all()
        assert exchange_partitions[0] >= 2
        exp = {}
        for k, v in zip(ks, vs):
            s, n = exp.get(int(k), (0, 0))
            exp[int(k)] = (s + int(v), n + 1)
        got = {}
        for r in out:
            # a key split across reduces would appear twice here
            assert r["k"] not in got, "key split across partitions"
            got[r["k"]] = (r["s"], r["n"])
        assert got == exp

    def test_group_apply_parity(self, ray_session, exchange_partitions):
        from pyspider_ray.neardup import group_apply, partition_apply

        def sum_group(g: pa.Table) -> pa.Table:
            v = g["v"].to_numpy()
            return pa.table({"k": g["k"].slice(0, 1),
                             "s": pa.array([int(v.sum())], pa.int64()),
                             "n": pa.array([len(v)], pa.int64())})

        ds, _, _ = _mk_ds(n_rows=2000, n_keys=17)
        a = {r["k"]: (r["s"], r["n"]) for r in
             partition_apply(ds, "k", _make_sum_part(),
                             SCHEMA).take_all()}
        ds2, _, _ = _mk_ds(n_rows=2000, n_keys=17)
        b = {r["k"]: (r["s"], r["n"]) for r in
             group_apply(ds2, "k", sum_group, SCHEMA).take_all()}
        assert a == b
        assert min(exchange_partitions) >= 2

    def test_empty_input_keeps_declared_schema(self, ray_session):
        import ray.data as rd

        from pyspider_ray.neardup import partition_apply
        empty = rd.from_arrow(pa.table({"k": pa.array([], pa.int64()),
                                        "v": pa.array([], pa.int64())}))
        out = partition_apply(empty, "k", _make_sum_part(), SCHEMA)
        assert out.count() == 0
        assert [f.name for f in out.schema().base_schema] == \
            ["k", "s", "n"]
