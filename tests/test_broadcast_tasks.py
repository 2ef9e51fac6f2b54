"""Broadcast state in the query layer rides an object-store ref into
plain map tasks (``_io.broadcast_get``) instead of actor constructors:
the ref is fetched at most once per worker process, the per-process
cache stays bounded and never serves an older ref's value, and the
broadcast legs finish on a one-CPU Ray cluster, where a fixed-size
actor pool could never be placed."""

import os
import signal
import subprocess
import sys
import time

import pandas as pd
import pyarrow as pa
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _norm(df):
    df = df.reindex(sorted(df.columns), axis=1)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _oracle(sf_dir, query):
    import duckdb
    from pyspider_ray import queries as q
    from pyspider_ray import training_queries as tq
    con = duckdb.connect()
    for t in ("customer", "orders", "events", "documents"):
        if os.path.exists(f"{sf_dir}/{t}.parquet"):
            con.sql(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf_dir}/{t}.parquet')")
    sql = {**q.ORACLES, **tq.ORACLES}[query]
    out = con.sql(sql).df()
    con.close()
    return out


def _probe_map(ref, n_blocks=32):
    """A map over ``n_blocks`` blocks whose tasks read ``ref`` through
    the helper; each row reports its worker's pid, how many
    ``ray.get`` calls the read made there and the value it saw."""
    import ray.data as rd

    def probe(b: pa.Table, ref) -> pa.Table:
        import ray

        from pyspider_ray._io import broadcast_get
        real, calls = ray.get, []

        def counting(*a, **kw):
            calls.append(1)
            return real(*a, **kw)

        ray.get = counting
        try:
            value = broadcast_get(ref)
        finally:
            ray.get = real
        n = len(b)
        return pa.table({"pid": pa.array([os.getpid()] * n, pa.int64()),
                         "gets": pa.array([len(calls)] * n, pa.int64()),
                         "value": pa.array([value] * n, pa.string())})

    return (rd.range(n_blocks, override_num_blocks=n_blocks)
            .map_batches(probe, batch_format="pyarrow",
                         fn_kwargs={"ref": ref})
            .to_pandas())


@pytest.mark.usefixtures("ray_session")
class TestBroadcastGet:
    def test_one_get_per_process_per_ref(self):
        import ray
        ref = ray.put("side-a")
        df = _probe_map(ref)
        assert len(df) == 32
        assert (df["value"] == "side-a").all()
        per_pid = df.groupby("pid")["gets"].sum()
        assert per_pid.max() <= 1, per_pid.to_dict()
        # tasks outnumber processes: later tasks read the cached value
        assert df["gets"].sum() == len(per_pid) < len(df)

    def test_new_ref_never_sees_old_value(self):
        import ray
        first = _probe_map(ray.put("old"))
        second = _probe_map(ray.put("new"))
        assert (first["value"] == "old").all()
        assert (second["value"] == "new").all()
        # the same worker processes ran both maps
        assert set(first["pid"]) & set(second["pid"])

    def test_cache_is_bounded(self):
        import ray

        from pyspider_ray import _io
        refs = [ray.put(i) for i in range(3 * _io._BROADCAST_KEEP)]
        for i, ref in enumerate(refs):
            assert _io.broadcast_get(ref) == i
            assert len(_io._BROADCAST) <= _io._BROADCAST_KEEP
        assert refs[-1].hex() in _io._BROADCAST
        assert refs[0].hex() not in _io._BROADCAST
        # an evicted ref is fetched again, not lost
        assert _io.broadcast_get(refs[0]) == 0

    def test_second_query_gets_its_own_side(self, sf_dir, tmp_path):
        """hash_join_revenue twice on one Ray cluster, over two customer
        tables that assign different nations: each run matches the
        oracle of its own input."""
        import pyarrow.parquet as pq

        from pyspider_ray.queries import q_hash_join_revenue
        other = tmp_path / "sf"
        other.mkdir()
        orders = pq.read_table(f"{sf_dir}/orders.parquet")
        pq.write_table(orders, other / "orders.parquet")
        cust = pq.read_table(f"{sf_dir}/customer.parquet")
        nk = cust["c_nationkey"].to_numpy()
        cust = cust.set_column(
            cust.schema.get_field_index("c_nationkey"), "c_nationkey",
            pa.array((nk + 7) % 25, cust.schema.field("c_nationkey").type))
        pq.write_table(cust, other / "customer.parquet")
        runs = []
        for d in (sf_dir, str(other)):
            runs.append(_norm(q_hash_join_revenue(d).to_pandas()))
            pd.testing.assert_frame_equal(
                runs[-1], _norm(_oracle(d, "hash_join_revenue")),
                check_dtype=True)
        assert not runs[0].equals(runs[1])


# Runs in a fresh process: Ray with one logical CPU, then every leg that
# used to run behind a fixed-size actor pool; writes each result to
# <out>/<leg>.parquet.
_ONE_CPU_CHILD = r"""
import sys
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR", log_to_driver=False)
import ray.data
ray.data.DataContext.get_current().enable_progress_bars = False
import pyarrow as pa
from pyspider_ray import queries as q
from pyspider_ray import training_queries as tq
from pyspider_ray.functions.media import synth_audio
sf, out = sys.argv[1:3]
for name, fn in (("hash_join_revenue", q.q_hash_join_revenue),
                 ("range_join_count", q.q_range_join_count),
                 ("line_dedup", tq.q_line_dedup),
                 ("audio_features", tq.q_audio_features)):
    fn(sf).to_pandas().to_parquet(f"{out}/{name}.parquet")
clips = pa.table({
    "clip_id": pa.array([f"aud-{i:06d}" for i in range(100)]),
    "bytes": pa.array([synth_audio(i) for i in range(100)], pa.binary())})
tq._audio_feature_stage(clips).to_pandas().to_parquet(
    f"{out}/audio_features_mirror.parquet")
ray.shutdown()
"""
_ONE_CPU_WAIT_S = 240


def _reap(pgid):
    """SIGKILL what is left of the child's process group (its Ray
    cluster included) and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.1)


def test_broadcast_legs_finish_at_one_cpu(sf_dir, tmp_path):
    env = dict(os.environ, PYTHONPATH=ROOT + os.pathsep +
               os.environ.get("PYTHONPATH", ""))
    proc = subprocess.Popen(
        [sys.executable, "-c", _ONE_CPU_CHILD, sf_dir, str(tmp_path)],
        cwd=ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        out, err = proc.communicate(timeout=_ONE_CPU_WAIT_S)
    except subprocess.TimeoutExpired:
        _reap(proc.pid)
        proc.communicate()
        pytest.fail(f"broadcast legs hung at num_cpus=1 "
                    f"(no result within {_ONE_CPU_WAIT_S} s)")
    finally:
        _reap(proc.pid)
    assert proc.returncode == 0, err[-3000:]

    def result(name):
        return _norm(pd.read_parquet(tmp_path / f"{name}.parquet"))

    for leg in ("hash_join_revenue", "range_join_count", "line_dedup"):
        pd.testing.assert_frame_equal(
            result(leg), _norm(_oracle(sf_dir, leg)), check_dtype=True)
    pd.testing.assert_frame_equal(result("audio_features"),
                                  result("audio_features_mirror"))
