"""Reporting queries whose arithmetic must hold beyond the test data:
the activity report's left-join coalesce stays exact int64, and the
status pivot's row total counts every order, also one whose priority
is outside the pivot's domain."""

import duckdb
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def test_coalesce_activity_exact_int64():
    from pyspider_ray.queries import _coalesce_activity
    big = 2 ** 53 + 1                 # not representable as float64
    out = _coalesce_activity(pa.table({
        "c_custkey": pa.array([1, 2], pa.int64()),
        "c_nationkey": pa.array([3, 4], pa.int32()),
        "rev": pa.array([big, None], pa.int64()),
        "cnt": pa.array([None, 5], pa.int64())}))
    assert out.schema == pa.schema([
        ("c_custkey", pa.int64()), ("c_nationkey", pa.int64()),
        ("n_orders", pa.int64()), ("revenue_cents", pa.int64())])
    assert out["revenue_cents"].to_pylist() == [big, 0]
    assert out["n_orders"].to_pylist() == [0, 5]


@pytest.mark.usefixtures("ray_session")
def test_status_pivot_total_counts_out_of_domain_priority(tmp_path):
    from pyspider_ray.queries import ORACLES, q_status_priority_pivot
    pq.write_table(pa.table({
        "o_orderstatus": ["F", "F", "O", "O", "P"],
        "o_orderpriority": ["1-URGENT", "6-UNKNOWN", "5-LOW", "2-HIGH",
                            "6-UNKNOWN"]}), tmp_path / "orders.parquet")
    got = (q_status_priority_pivot(str(tmp_path)).to_pandas()
           .sort_values("o_orderstatus").reset_index(drop=True))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW orders AS SELECT * FROM "
            f"read_parquet('{tmp_path}/orders.parquet')")
    exp = (con.sql(ORACLES["status_priority_pivot"]).df()
           .sort_values("o_orderstatus").reset_index(drop=True))
    assert got["n_total"].tolist() == [2, 2, 1]
    pd.testing.assert_frame_equal(got[exp.columns], exp,
                                  check_dtype=False)
