"""Rehearsal of the driver's correctness gate: every queries() entry vs
its oracle_sql() DuckDB result at small scale — row count, column names,
and order-insensitive values must match."""

import math

import duckdb
import pandas as pd
import pytest

TABLES = ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split()


def run_oracle(sql: str, sf_dir: str) -> pd.DataFrame:
    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM "
                f"read_parquet('{sf_dir}/{t}.parquet')")
    return con.sql(sql).df()


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df.reindex(sorted(df.columns), axis=1)
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    df = df.sort_values(list(df.columns)).reset_index(drop=True)
    return df


def assert_same(name: str, ours: pd.DataFrame, ref: pd.DataFrame):
    """Same columns and, order-insensitively, the same values."""
    ours, ref = normalize(ours), normalize(ref)
    assert list(ours.columns) == list(ref.columns), name
    assert len(ours) == len(ref), name
    for c in ours.columns:
        a, b = ours[c], ref[c]
        if a.dtype.kind == "f" or b.dtype.kind == "f":
            assert ((a - b).abs() < 1e-9).all(), (name, c)
        else:
            assert (a.astype(str).values == b.astype(str).values).all(), \
                (name, c)


def to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa
    if isinstance(result, pd.DataFrame):
        return result
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result.to_pandas()  # ray Dataset


@pytest.mark.usefixtures("ray_session")
class TestOracleParity:
    @pytest.fixture(scope="class")
    def entries(self):
        import __ray_entry__ as entry
        return entry.queries(), entry.oracle_sql()

    def test_every_oracle_has_query(self, entries):
        queries, oracles = entries
        assert set(oracles) <= set(queries)
        assert len(queries) >= 19

    @pytest.mark.parametrize("name", sorted(
        set(__import__("pyspider_ray.queries",
                       fromlist=["ORACLES"]).ORACLES) |
        set(__import__("pyspider_ray.training_queries",
                       fromlist=["ORACLES"]).ORACLES)))
    def test_parity(self, name, entries, sf_dir):
        queries, oracles = entries
        assert_same(name, to_pandas(queries[name](sf_dir)),
                    run_oracle(oracles[name], sf_dir))
