"""query_exchange: one leg per exchange mechanism of the repo, run over
tables generated from the seed and checked against the DuckDB oracles."""

from __future__ import annotations

import os
import time
from statistics import median

import numpy as np

from .common import MemorySampler, work_dir

# leg -> (exchange mechanism, tables it reads)
LEGS = {
    "session_windows": ("sort-based groupby().map_groups", ("events",)),
    "funnel_stages": ("partition_apply", ("events",)),
    "customer_order_activity": ("hash_join", ("orders", "customer")),
    "hash_join_revenue": ("groupby().aggregate behind a broadcast actor "
                          "pool", ("orders", "customer")),
    "jaccard_near_dup": ("MinHash banding exchange", ("documents",)),
    "line_dedup": ("broadcast election + rewrite", ("documents",)),
}

# rows per table of the generated inputs
SIZES = {"events": 40_000, "users": 500, "orders": 40_000,
         "customers": 4_000, "documents": 1_200}
# the traced run also times every leg on tables this much smaller: what a
# leg costs then is mostly Ray Data's fixed per-operator cost
SMALL = 50
SETUP_REPEATS = 2          # each starts a fresh Ray cluster, about 10 s
VOCAB = 400          # > 64 words keeps jaccard_near_dup on its MinHash path
LINE_WORDS = 16      # line_dedup's line length in words
EVENT_TYPES = ("signup", "view", "click", "purchase", "error")


def _words(rng, n):
    return [f"w{int(i):03d}" for i in rng.integers(0, VOCAB, size=n)]


def generate(out_dir: str, seed: int, shrink: int = 1) -> None:
    """Write events/orders/customer/documents Parquet files with the
    column names and dtypes the legs and oracles read, ``1/shrink`` of
    the sizes in ``SIZES``."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    rng = np.random.default_rng(seed)
    sizes = {k: max(20, v // shrink) for k, v in SIZES.items()}

    n = sizes["events"]
    start = np.datetime64("2024-01-01T00:00:00", "us").astype(np.int64)
    ts = start + np.sort(rng.integers(0, 2 * 86_400 * 10**6, size=n))
    events = pa.table({
        "event_id": pa.array(np.arange(n, dtype=np.int64)),
        "ts": pa.array(ts, pa.int64()).cast(pa.timestamp("us")),
        "user_id": pa.array(rng.integers(0, sizes["users"], size=n,
                                         dtype=np.int64)),
        "event_type": pa.array(
            [EVENT_TYPES[i] for i in rng.integers(0, len(EVENT_TYPES),
                                                  size=n)], pa.string()),
    })

    nc = sizes["customers"]
    customer = pa.table({
        "c_custkey": pa.array(np.arange(1, nc + 1, dtype=np.int64)),
        "c_nationkey": pa.array(rng.integers(0, 25, size=nc,
                                             dtype=np.int32)),
    })
    no = sizes["orders"]
    # one customer in ten never orders: the left join keeps their zeros
    buyers = np.arange(1, nc + 1, dtype=np.int64)
    buyers = buyers[buyers % 10 != 0]
    orders = pa.table({
        "o_orderkey": pa.array(np.arange(1, no + 1, dtype=np.int64)),
        "o_custkey": pa.array(rng.choice(buyers, size=no)),
        "o_totalprice": pa.array(
            rng.integers(100, 50_000_000, size=no) / 100.0),
    })

    # documents: near-duplicate families (one word replaced) and shared
    # boilerplate lines at line boundaries, so both dedup legs find work
    nd = sizes["documents"]
    boiler = [" ".join(_words(rng, LINE_WORDS)) for _ in range(20)]
    texts: list[str] = []
    for i in range(nd):
        if texts and rng.random() < 0.25:
            ws = texts[int(rng.integers(0, len(texts)))].split()
            ws[int(rng.integers(0, len(ws)))] = _words(rng, 1)[0]
            texts.append(" ".join(ws))
            continue
        body = _words(rng, int(rng.integers(2, 6)) * LINE_WORDS)
        if rng.random() < 0.5:
            body = boiler[int(rng.integers(0, len(boiler)))].split() + body
        texts.append(" ".join(body))
    documents = pa.table({
        "doc_id": pa.array(np.arange(nd, dtype=np.int64)),
        "text": pa.array(texts, pa.string()),
    })

    os.makedirs(out_dir, exist_ok=True)
    for name, table in (("events", events), ("customer", customer),
                        ("orders", orders), ("documents", documents)):
        tmp = os.path.join(out_dir, f".{name}.tmp")
        pq.write_table(table, tmp)
        os.replace(tmp, os.path.join(out_dir, f"{name}.parquet"))


def inputs(seed: int, shrink: int = 1) -> str:
    """Generated tables for a seed, cached across runs in the checkout."""
    out = os.path.join(work_dir("data"), f"seed-{seed}-1of{shrink}")
    marker = os.path.join(out, "DONE")
    if not os.path.exists(marker):
        generate(out, seed, shrink)
        open(marker, "w").close()
    return out


def input_rows(data_dir: str) -> dict:
    import pyarrow.parquet as pq
    return {t: pq.ParquetFile(os.path.join(data_dir, f"{t}.parquet"))
            .metadata.num_rows
            for t in ("events", "orders", "customer", "documents")}


def oracle_frames(data_dir: str, oracles: dict) -> dict:
    import duckdb
    from sweep import _norm
    con = duckdb.connect()
    for t in ("events", "orders", "customer", "documents"):
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM "
                f"read_parquet('{data_dir}/{t}.parquet')")
    out = {leg: _norm(con.sql(oracles[leg]).df()) for leg in LEGS}
    con.close()
    return out


def matches(df, expect) -> bool:
    """Values and dtypes, compared as the repo's sweep.py compares."""
    import pandas as pd
    from sweep import _norm
    try:
        pd.testing.assert_frame_equal(_norm(df), expect, check_dtype=True)
    except AssertionError:
        return False
    return True


def run_leg(fn, data_dir: str):
    import pandas as pd
    res = fn(data_dir)
    return res if isinstance(res, pd.DataFrame) else res.to_pandas()


def _import_legs(batch):
    import pandas  # noqa: F401

    import pyspider_ray.neardup  # noqa: F401
    import pyspider_ray.queries  # noqa: F401
    import pyspider_ray.training_queries  # noqa: F401
    return batch


def warm_up() -> None:
    """Start Ray Data's task workers and import the legs' modules in
    them: the first pass over the legs then runs as fast as later ones."""
    import ray.data as rd
    rd.range(16, override_num_blocks=16).map_batches(
        _import_legs, batch_format="pyarrow").materialize()


def run_pass(qs: dict, data: str, expect: dict, sampler=None) -> tuple:
    """One pass over the legs: (seconds per leg, output rows per leg,
    legs whose output differs from the oracle)."""
    leg_s, out_rows, bad = {}, {}, []
    for leg in LEGS:
        a = time.perf_counter()
        df = run_leg(qs[leg], data)
        leg_s[leg] = time.perf_counter() - a
        out_rows[leg] = len(df)
        if not matches(df, expect[leg]):
            bad.append(leg)
        if sampler is not None:
            sampler.sample()
    return leg_s, out_rows, bad


def run(seed: int, seconds: int, trace: bool, import_s: float,
        session) -> tuple:
    """Returns (correct, attempted, failed, metrics, info)."""
    setups, ray_starts = [], []
    for i in range(SETUP_REPEATS):
        ray_s = session.restart()
        if i == 0:
            # the legs' module, imported once Ray is up (as its driver
            # contract asks), counts with the other imports
            t0 = time.perf_counter()
            import __ray_entry__ as entry
            qs, oracles = entry.queries(), entry.oracle_sql()
            import_s += time.perf_counter() - t0
        t0 = time.perf_counter()
        warm_up()
        setups.append(ray_s + time.perf_counter() - t0)
        ray_starts.append(ray_s)

    data = inputs(seed)
    expect = oracle_frames(data, oracles)
    rows_in = input_rows(data)
    items = sum(rows_in[t] for _, tables in LEGS.values() for t in tables)
    passes = max(1, round(seconds / 8))
    sampler = MemorySampler(whole_group=True)
    sampler.start()
    suite_s, leg_s = [], {leg: [] for leg in LEGS}
    bad: dict = {}
    for _ in range(passes):
        times, out_rows, wrong = run_pass(qs, data, expect, sampler)
        for leg in LEGS:
            leg_s[leg].append(times[leg])
        for leg in wrong:
            bad[leg] = bad.get(leg, 0) + 1
        suite_s.append(sum(times.values()))
    attempted = passes * len(LEGS)
    failed = sum(bad.values())
    info = {"workload": "query_exchange", "seed": seed, "passes": passes,
            "suite_s": suite_s, "input_rows": rows_in,
            "mismatched_legs": bad, "legs": {k: v[0] for k, v in LEGS.items()},
            "setup_runs_s": setups, "import_s": import_s,
            "ray_start_s": ray_starts}
    if not trace:
        metrics = {
            "items_per_s": (items * passes / sum(suite_s), "1/s"),
            "peak_rss_mb": (sampler.peak_mb, "MB"),
            "setup_s": (import_s + median(setups), "s"),
        }
    else:
        metrics = {}
        for leg in LEGS:
            metrics[f"query.{leg}_s"] = (median(leg_s[leg]), "s")
            metrics[f"query.{leg}_rows"] = (out_rows[leg], "count")
        info["leg_s"] = leg_s
        info["fixed_cost"] = fixed_cost(qs, oracles, seed, leg_s)
    return failed == 0, attempted, failed, metrics, info


def fixed_cost(qs: dict, oracles: dict, seed: int, leg_s: dict) -> dict:
    """Each leg timed again on tables ``SMALL`` times smaller.  That time
    is mostly Ray Data's fixed per-operator cost; the rest of the
    full-size time is work that grows with the input (the exchange).
    Returns both per leg and the exchange's share of the suite."""
    small = inputs(seed, SMALL)
    small_s, _, wrong = run_pass(qs, small, oracle_frames(small, oracles))
    full = {leg: median(v) for leg, v in leg_s.items()}
    growing = {leg: max(0.0, full[leg] - small_s[leg]) for leg in LEGS}
    return {"shrink": SMALL, "small_s": small_s, "full_s": full,
            "mismatched_small_legs": wrong,
            "exchange_share": {leg: growing[leg] / full[leg] for leg in LEGS},
            "suite_exchange_share": sum(growing.values()) /
            sum(full.values())}
