"""neardup.hash_join — the general two-sided co-partitioned join
primitive: every `how` must agree with a driver-side pandas merge on
multi-block inputs with duplicate keys on both sides, the pinned output
schema must hold (left-join misses are Arrow NULLS, not NaN-floats),
and empty sides must come back with the declared schema."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _mk(n, key_mod, tag, n_blocks=5, seed=3):
    """Multi-block dataset: int64 key (dups + misses), int payload,
    string payload."""
    import ray.data as rd
    rng = np.random.RandomState(seed)
    k = rng.randint(0, key_mod, size=n).astype(np.int64)
    v = np.arange(n, dtype=np.int64) * 3 + len(tag)
    s = np.array([f"{tag}{i % 7}" for i in range(n)], dtype=object)
    per = max(1, n // n_blocks)
    tables = [pa.table({f"{tag}_k": pa.array(k[i:i + per]),
                        f"{tag}_v": pa.array(v[i:i + per]),
                        f"{tag}_s": pa.array(list(s[i:i + per]),
                                             pa.string())})
              for i in range(0, n, per)]
    df = pd.DataFrame({f"{tag}_k": k, f"{tag}_v": v, f"{tag}_s": s})
    return rd.from_arrow(tables), df


def _norm(df):
    df = df.reindex(sorted(df.columns), axis=1)
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


@pytest.mark.usefixtures("ray_session")
class TestHashJoin:
    @pytest.fixture(autouse=True)
    def _partitions(self, exchange_partitions):
        self.partitions = exchange_partitions

    def _both(self, how):
        from pyspider_ray.neardup import hash_join
        lds, ldf = _mk(400, 120, "l")       # dups; keys 90+ never match
        rds, rdf = _mk(300, 90, "r", seed=7)
        got = hash_join(lds, rds, "l_k", "r_k", how=how).to_pandas()
        assert self.partitions and min(self.partitions) >= 2
        if how in ("semi", "anti"):
            hit = ldf["l_k"].isin(rdf["r_k"].unique())
            exp = ldf[~hit] if how == "anti" else ldf[hit]
        else:
            exp = ldf.merge(rdf, how=how, left_on="l_k",
                            right_on="r_k").drop(columns=["r_k"])
        return got, exp

    @pytest.mark.parametrize("how", ["inner", "semi", "anti"])
    def test_matches_pandas(self, how):
        got, exp = self._both(how)
        pd.testing.assert_frame_equal(_norm(got), _norm(exp),
                                      check_dtype=False)

    def test_left_join_nulls_not_nan(self):
        got, exp = self._both("left")
        assert got["r_v"].isna().sum() == exp["r_v"].isna().sum()
        got2 = _norm(got.fillna(-1))
        exp2 = _norm(exp.fillna(-1))
        pd.testing.assert_frame_equal(got2, exp2, check_dtype=False)

    def test_left_schema_pinned_int64(self):
        from pyspider_ray.neardup import hash_join
        lds, _ = _mk(50, 100000, "l")        # all misses vs tiny right
        rds, _ = _mk(4, 3, "r", seed=7)
        out = hash_join(lds, rds, "l_k", "r_k", how="left")
        assert min(self.partitions) >= 2
        sch = out.schema()
        types = dict(zip(sch.names, sch.types))
        assert types["r_v"] == pa.int64()
        assert types["r_s"] == pa.string()
        assert out.count() == 50

    def test_same_key_name_and_suffix(self):
        from pyspider_ray.neardup import hash_join
        import ray.data as rd
        l = rd.from_arrow(pa.table({"k": pa.array([1, 2, 2],
                                                  pa.int64()),
                                    "x": pa.array([10, 20, 21],
                                                  pa.int64())}))
        r = rd.from_arrow(pa.table({"k": pa.array([2, 3], pa.int64()),
                                    "x": pa.array([-2, -3],
                                                  pa.int64())}))
        got = (hash_join(l, r, "k", how="inner")
               .to_pandas().sort_values(["k", "x"])
               .reset_index(drop=True))
        assert min(self.partitions) >= 2
        assert list(got.columns) == ["k", "x", "x_r"]
        assert got["k"].tolist() == [2, 2]
        assert got["x_r"].tolist() == [-2, -2]

    def test_empty_right_side(self):
        from pyspider_ray.neardup import hash_join
        import ray.data as rd
        l = rd.from_arrow(pa.table({"k": pa.array([1, 2], pa.int64()),
                                    "x": pa.array([1, 2], pa.int64())}))
        r = rd.from_arrow(pa.table({"k": pa.array([], pa.int64()),
                                    "y": pa.array([], pa.int64())}))
        assert hash_join(l, r, "k", how="inner").count() == 0
        left = hash_join(l, r, "k", how="left")
        assert left.count() == 2
        assert dict(zip(left.schema().names,
                        left.schema().types))["y"] == pa.int64()
        assert hash_join(l, r, "k", how="anti").count() == 2
        assert hash_join(l, r, "k", how="semi").count() == 0

    def test_bad_how_raises(self):
        from pyspider_ray.neardup import hash_join
        import ray.data as rd
        ds = rd.from_arrow(pa.table({"k": pa.array([1], pa.int64())}))
        with pytest.raises(ValueError):
            hash_join(ds, ds, "k", how="outer")


@pytest.mark.usefixtures("ray_session")
class TestHashJoinPrecisionAndCollisions:
    @pytest.fixture(autouse=True)
    def _partitions(self, exchange_partitions):
        self.partitions = exchange_partitions
    def test_left_join_preserves_full_int64_payloads(self):
        """A partition with any unmatched left row used to promote the
        right int columns to float64, silently corrupting payloads
        > 2^53 (doc-id hashes span the full int64 range)."""
        from pyspider_ray.neardup import hash_join
        import ray.data as rd
        big = (1 << 53) + 1
        l = rd.from_arrow(pa.table({"k": pa.array([1, 2], pa.int64()),
                                    "x": pa.array([0, 0], pa.int64())}))
        r = rd.from_arrow(pa.table({"k": pa.array([1], pa.int64()),
                                    "v": pa.array([big], pa.int64())}))
        rows = sorted(hash_join(l, r, "k", how="left").take_all(),
                      key=lambda d: d["k"])
        assert min(self.partitions) >= 2
        # assert at the ARROW layer: int64-with-null stays int64
        # (Dataset.to_pandas would re-promote to float64 — that's the
        # consumer's representation choice, not the join's)
        assert rows[0]["v"] == big              # exact, not 2^53
        assert rows[1]["v"] is None

    def test_left_join_float_miss_is_null_not_nan(self):
        """A miss on a float64 right payload is an Arrow null, as for
        int64; NaN would read back as a value."""
        from pyspider_ray.neardup import hash_join
        import ray.data as rd
        l = rd.from_arrow(pa.table({"k": pa.array([1, 2], pa.int64())}))
        r = rd.from_arrow(pa.table({"k": pa.array([1], pa.int64()),
                                    "f": pa.array([0.5], pa.float64())}))
        out = hash_join(l, r, "k", how="left")
        assert dict(zip(out.schema().names,
                        out.schema().types))["f"] == pa.float64()
        rows = sorted(out.take_all(), key=lambda d: d["k"])
        assert min(self.partitions) >= 2
        assert rows[0]["f"] == 0.5
        assert rows[1]["f"] is None

    def test_right_key_collides_with_left_payload(self):
        """right_on sharing a LEFT payload column's name must not
        delete the left column (the suffixed right key is dropped)."""
        from pyspider_ray.neardup import hash_join
        import ray.data as rd
        l = rd.from_arrow(pa.table({"id": pa.array([1, 2], pa.int64()),
                                    "k": pa.array([7, 8], pa.int64())}))
        r = rd.from_arrow(pa.table({"k": pa.array([1], pa.int64()),
                                    "v": pa.array([99], pa.int64())}))
        got = hash_join(l, r, "id", "k", how="inner").to_pandas()
        assert min(self.partitions) >= 2
        assert sorted(got.columns) == ["id", "k", "v"]
        assert got["k"].tolist() == [7]         # LEFT payload survives
        assert got["v"].tolist() == [99]

    def test_unresolvable_collision_raises_early(self):
        from pyspider_ray.neardup import hash_join
        import ray.data as rd
        l = rd.from_arrow(pa.table({"k": pa.array([1], pa.int64()),
                                    "v": pa.array([1], pa.int64()),
                                    "v_r": pa.array([1], pa.int64())}))
        r = rd.from_arrow(pa.table({"k": pa.array([1], pa.int64()),
                                    "v": pa.array([2], pa.int64())}))
        with pytest.raises(ValueError, match="collision"):
            hash_join(l, r, "k", how="inner")
