"""SURVEY.md §2 operator inventory as Ray Data pipelines over the
driver's parquet tables, each paired (where SQL-expressible) with a
DuckDB oracle in ``oracles()``.

Conventions:
- every callable takes ``sf_dir`` and returns a Dataset, an exchange's
  output (which answers every Dataset method) or a pyarrow.Table;
- computed columns carry the SAME names as the oracle SQL aliases;
- outputs avoid raw float columns (money → cents int64, timestamps →
  epoch micros) so the driver's value-hash is stable across engines;
- reads prune columns at the source and are planned from the Parquet
  footer, sized by their bytes (``_io.read_table``: one block per
  8 MB, so a small table is one read task with its maps fused in);
- every aggregate is ``neardup.combine``: an Arrow group-by inside
  each batch, then one per partition of the hash exchange — no Ray
  Data ``groupby().aggregate`` and no ``map_groups``;
- Ray Data runs a query's read and its result only: an exchange's
  output stays object refs that the next exchange takes as they
  are, and becomes a Dataset once, when the result is used as one;
- small join sides are loaded once into the object store and reach
  plain map tasks as an ``ObjectRef`` (fetched once per worker
  process, never re-shipped per batch).
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ._io import broadcast_get as _broadcast_get
from ._io import rd as _rd
from ._io import read_table as _read_table
from .neardup import combine


def _read(sf_dir, table, columns=None):
    return _read_table(sf_dir, table, columns)


def _round_c(x) -> np.ndarray:
    """value·100 → cents with DuckDB round() semantics (half AWAY from
    zero).  np.round / pc.round are half-to-even and disagree on exact
    .5 products — a latent 1-cent oracle drift the repo's newer queries
    avoid via floor(x·100+0.5); this helper is the sign-correct form of
    the same convention for columns that may be negative."""
    a = np.asarray(x, dtype=np.float64)
    return (np.sign(a) * np.floor(np.abs(a) * 100.0 + 0.5)).astype(np.int64)


# ---------------------------------------------------------------------------
# frontier / scheduler operators (SURVEY §2.1, §2.5, §2.6)
# ---------------------------------------------------------------------------

def q_status_count(sf_dir):
    """A1 — per-status GROUP BY count (sqlite/taskdb.py:85-98)."""
    return combine(
        _read(sf_dir, "orders", ["o_orderstatus"]), ["o_orderstatus"],
        {"n": "count"},
        pa.schema([("o_orderstatus", pa.string()), ("n", pa.int64())]))


def q_load_tasks_scan(sf_dir):
    """S1 — status-filtered frontier scan (taskdb.load_tasks)."""
    def flt(b: pa.Table) -> pa.Table:
        return b.filter(pc.equal(b["l_returnflag"], "R"))
    return (_read(sf_dir, "lineitem",
                  ["l_orderkey", "l_partkey", "l_quantity", "l_returnflag"])
            .map_batches(flt, batch_format="pyarrow")
            .select_columns(["l_orderkey", "l_partkey", "l_quantity"]))


def q_point_lookup(sf_dir):
    """S2 — batched point lookups (get_task): key-set filter, no shuffle."""
    keys = pa.array([1, 7, 42, 4242], pa.int64())
    def flt(b: pa.Table) -> pa.Table:
        return b.filter(pc.is_in(b["o_orderkey"], value_set=keys))
    return (_read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderstatus"])
            .map_batches(flt, batch_format="pyarrow"))


def q_task_verify(sf_dir):
    """M1 — task_verify predicate (scheduler.py:297-315): drop rows with
    missing/invalid identity fields."""
    def flt(b: pa.Table) -> pa.Table:
        m = pc.and_(pc.and_(pc.is_valid(b["value"]),
                            pc.greater_equal(b["user_id"], 0)),
                    pc.not_equal(b["event_type"], ""))
        return b.filter(m)
    return (_read(sf_dir, "events", ["event_id", "user_id", "event_type",
                                     "value"])
            .map_batches(flt, batch_format="pyarrow")
            .select_columns(["event_id", "user_id", "event_type"]))


def q_merge_on_put(sf_dir):
    """T2 — merge-on-put aggregation shape (task_queue.py:83-95):
    priority=max, exetime=min, grouped by key."""
    def prep(b: pa.Table) -> pa.Table:
        cents = pa.array(_round_c(b["value"].to_numpy()))
        us = b["ts"].cast(pa.int64())
        return pa.table({"user_id": b["user_id"], "max_value_cents": cents,
                         "min_ts_us": us})
    return combine(
        _read(sf_dir, "events", ["user_id", "value", "ts"])
        .map_batches(prep, batch_format="pyarrow"), ["user_id"],
        {"max_value_cents": "max", "min_ts_us": "min"},
        pa.schema([("user_id", pa.int64()), ("max_value_cents", pa.int64()),
                   ("min_ts_us", pa.int64())]))


def q_priority_topk(sf_dir):
    """O1 — priority DESC, key ASC emission order, top 100."""
    def prep(b: pa.Table) -> pa.Table:
        cents = pa.array(_round_c(b["o_totalprice"].to_numpy()))
        return pa.table({"o_orderkey": b["o_orderkey"],
                         "price_cents": cents})
    return (_read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
            .map_batches(prep, batch_format="pyarrow")
            .sort(["price_cents", "o_orderkey"], descending=[True, False])
            .limit(100))


def q_time_order(sf_dir):
    """O2 — exetime-ascending promotion order, first 100."""
    def prep(b: pa.Table) -> pa.Table:
        return pa.table({"event_id": b["event_id"],
                         "ts_us": b["ts"].cast(pa.int64())})
    return (_read(sf_dir, "events", ["event_id", "ts"])
            .map_batches(prep, batch_format="pyarrow")
            .sort(["ts_us", "event_id"]).limit(100))


def q_select_quota(sf_dir):
    """O4/A2 — weight-proportional select quotas clamped to
    [limit/10, limit/3] (scheduler.py:500-522), integer arithmetic."""
    counts = combine(
        _read(sf_dir, "customer", ["c_nationkey"]), ["c_nationkey"],
        {"w": "count"},
        pa.schema([("c_nationkey", pa.int64()), ("w", pa.int64())])
    ).to_pandas()
    total = int(counts["w"].sum())
    w = counts["w"].astype("int64")
    quota = (w * 1000) // max(total, 1)
    quota = quota.clip(lower=100, upper=333)
    quota[(total < 1) | (w < 1)] = 100
    counts["quota"] = quota.astype("int64")
    return pa.Table.from_pandas(counts[["c_nationkey", "w", "quota"]],
                                preserve_index=False)


def q_retry_ladder(sf_dir):
    """W4 — DEFAULT_RETRY_DELAY ladder (scheduler.py:155-161) applied to
    a retried-count column, then counted per (retried, delay)."""
    ladder = {0: 30, 1: 3600, 2: 21600, 3: 43200}
    def prep(b: pa.Table) -> pa.Table:
        retried = pc.subtract(b["l_linenumber"], 1).to_numpy(zero_copy_only=False)
        delay = np.array([ladder.get(int(r), 86400) for r in retried],
                         dtype=np.int64)
        return pa.table({"retried": pa.array(retried.astype(np.int64)),
                         "delay": pa.array(delay)})
    return combine(
        _read(sf_dir, "lineitem", ["l_linenumber"])
        .map_batches(prep, batch_format="pyarrow"), ["retried", "delay"],
        {"n": "count"},
        pa.schema([("retried", pa.int64()), ("delay", pa.int64()),
                   ("n", pa.int64())]))


def q_topn_per_group(sf_dir):
    """O4 per-project budget shape — top-3 rows per group by priority.

    Combiner-style: each batch pre-prunes to its local top-3 per key
    (so the exchange moves <= 3 rows per key per batch), then the hash
    exchange on the key takes the global top-3 with one vectorized
    pandas groupby per partition — per-group Python overhead at
    millions of keys is the thing this avoids."""
    from .neardup import partition_apply

    def top3(t: pa.Table) -> pa.Table:
        b = t.to_pandas().sort_values(["o_totalprice", "o_orderkey"],
                                      ascending=[False, True])
        return pa.Table.from_pandas(b.groupby("o_custkey", sort=False)
                                    .head(3), preserve_index=False)

    schema = pa.schema([("o_custkey", pa.int64()),
                        ("o_orderkey", pa.int64())])
    return partition_apply(
        _read(sf_dir, "orders", ["o_custkey", "o_orderkey",
                                 "o_totalprice"])
        .map_batches(top3, batch_format="pyarrow"),
        "o_custkey", lambda t: top3(t).select(schema.names), schema)


def q_active_tasks(sf_dir):
    """A5 — merged recent-task feed: time DESC, id DESC, limit 100."""
    def prep(b: pa.Table) -> pa.Table:
        return pa.table({"event_id": b["event_id"],
                         "ts_us": b["ts"].cast(pa.int64())})
    return (_read(sf_dir, "events", ["event_id", "ts"])
            .map_batches(prep, batch_format="pyarrow")
            .sort(["ts_us", "event_id"], descending=[True, True]).limit(100))


def q_result_paging(sf_dir):
    """O6 — resultdb.select(offset=100, limit=50)."""
    t = (_read(sf_dir, "events", ["event_id", "user_id"])
         .sort("event_id").limit(150).take_all())
    rows = t[100:]
    return pa.table({
        "event_id": pa.array([r["event_id"] for r in rows], pa.int64()),
        "user_id": pa.array([r["user_id"] for r in rows], pa.int64())})


# ---------------------------------------------------------------------------
# joins (SURVEY §2.4)
# ---------------------------------------------------------------------------

@ray.remote
def _customer_side(sf_dir: str):
    """hash_join_revenue's broadcast side, read once in a task (the
    process that builds the query never holds it): customer keys
    sorted, with their nations."""
    import pyarrow.parquet as pq
    t = pq.read_table(f"{sf_dir}/customer.parquet",
                      columns=["c_custkey", "c_nationkey"])
    keys = t["c_custkey"].to_numpy()
    order = np.argsort(keys)
    return keys[order], t["c_nationkey"].to_numpy()[order]


def _join_customer(b: pa.Table, side) -> pa.Table:
    keys, vals = _broadcast_get(side)
    ck = b["o_custkey"].to_numpy()
    idx = np.searchsorted(keys, ck)
    idx = np.clip(idx, 0, len(keys) - 1)
    hit = keys[idx] == ck
    nk = np.where(hit, vals[idx], -1)
    cents = _round_c(b["o_totalprice"].to_numpy())
    out = pa.table({"c_nationkey": pa.array(nk.astype(np.int64)),
                    "revenue_cents": pa.array(cents)})
    return out.filter(pa.array(hit))


def q_hash_join_revenue(sf_dir):
    """J1/J6 — fact ⋈ broadcast dim + grouped rollup; the small side
    rides one object-store ref into plain map tasks (fetched once per
    worker process, never re-shipped per batch)."""
    return combine(
        _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
        .map_batches(_join_customer, batch_format="pyarrow",
                     fn_kwargs={"side": _customer_side.remote(sf_dir)}),
        ["c_nationkey"], {"n_orders": "count", "revenue_cents": "sum"},
        pa.schema([("c_nationkey", pa.int64()), ("n_orders", pa.int64()),
                   ("revenue_cents", pa.int64())]))


def _membership_filter(probe_ds, probe_col: str, keys_ds, key_col: str,
                       negate: bool):
    """Partitioned semi/anti join: ``probe_ds`` rows (every column
    kept) whose ``probe_col`` value is (``negate``: is not) a
    ``key_col`` value of ``keys_ds`` — ``neardup.hash_join``'s semi /
    anti form, so per-task state is O(partition), never the whole key
    set (the earlier broadcast key-set filter dies at 100 TB where the
    fact side's distinct keys outgrow one heap).  The key side is
    pre-distincted per batch (a combiner) before the exchange, so
    duplicate fact rows never travel."""
    from .neardup import hash_join

    def distinct_keys(b: pa.Table) -> pa.Table:
        return pa.table({key_col: np.unique(b[key_col].to_numpy())})

    return hash_join(probe_ds,
                     keys_ds.map_batches(distinct_keys,
                                         batch_format="pyarrow"),
                     probe_col, key_col, how="anti" if negate else "semi")


def q_pricing_summary(sf_dir):
    """TPC-H Q1 shape — the full-scan multi-aggregate report: per
    (returnflag, linestatus) the row count and integer-exact sums of
    quantity, base price (cents), discounted price (cents·(100−d))
    and charged price (cents·(100−d)·(100+t)), shipped before the
    cutoff.  Averages are the consumer's division — emitting sums +
    counts keeps every column an exact int64.

    Scale shape: the canonical combiner aggregate — each batch
    collapses to ≤ |flags×statuses| partial rows (Arrow's hash
    group-by, no per-row Python objects), the exchange moves partials
    only; one pass, no join, no sort."""
    cutoff = np.datetime64("2000-12-01")

    def rows(b: pa.Table) -> pa.Table:
        m = b["l_shipdate"].to_numpy() <= cutoff

        def c100(col: str) -> np.ndarray:
            return np.floor(b[col].to_numpy()[m] * 100.0
                            + 0.5).astype(np.int64)
        cents, d, t = (c100(c) for c in
                       ("l_extendedprice", "l_discount", "l_tax"))
        mask = pa.array(m)
        return pa.table({
            "l_returnflag": b["l_returnflag"].filter(mask),
            "l_linestatus": b["l_linestatus"].filter(mask),
            "sum_qty": c100("l_quantity"),
            "sum_base_c": cents,
            "sum_disc_c4": cents * (100 - d),
            "sum_charge_c6": cents * (100 - d) * (100 + t)})

    sums = ("sum_qty", "sum_base_c", "sum_disc_c4", "sum_charge_c6")
    return combine(
        _read(sf_dir, "lineitem",
              ["l_returnflag", "l_linestatus", "l_quantity",
               "l_extendedprice", "l_discount", "l_tax", "l_shipdate"])
        .map_batches(rows, batch_format="pyarrow"),
        ["l_returnflag", "l_linestatus"],
        {**dict.fromkeys(sums, "sum"), "n_rows": "count"},
        pa.schema([("l_returnflag", pa.string()),
                   ("l_linestatus", pa.string())]
                  + [(c, pa.int64()) for c in sums + ("n_rows",)]))


def q_order_priority_count(sf_dir):
    """TPC-H Q4 shape — EXISTS semi-join + count: orders in a date
    window having at least one late lineitem (shipdate > orderdate
    here — the tables carry no commit/receipt dates), counted per
    o_orderpriority.

    Scale shape: the co-partitioned membership exchange with
    per-batch max-shipdate combining on the EXISTS side, hash-routed
    by `partition_apply` (no sort shuffle), then a priorities-bounded
    groupby — both fact scans prune to 2-3 columns at the read."""
    from .neardup import partition_apply

    lo = np.datetime64("1996-01-01")
    hi = np.datetime64("1999-01-01")

    def order_side(b: pa.Table) -> pa.Table:
        d = b["o_orderdate"].to_numpy()
        m = (d >= lo) & (d < hi)
        k = b["o_orderkey"].to_numpy()[m].astype(np.int64)
        pr = np.asarray(b["o_orderpriority"].to_pylist(),
                        dtype=object)[m]
        dd = d[m].astype("datetime64[us]").astype(np.int64)
        return pa.table({"k": pa.array(k),
                         "prio": pa.array(list(pr), pa.string()),
                         "odate": pa.array(dd),
                         "kind": pa.array(np.ones(len(k), np.int8))})

    def late_side(b: pa.Table) -> pa.Table:
        k = b["l_orderkey"].to_numpy().astype(np.int64)
        sd = (b["l_shipdate"].to_numpy().astype("datetime64[us]")
              .astype(np.int64))
        # per-batch max shipdate per orderkey (combiner: one row per
        # distinct key per batch rides the exchange)
        import pandas as pd
        g = (pd.DataFrame({"k": k, "sd": sd})
             .groupby("k", sort=False)["sd"].max().reset_index())
        ks = g["k"].to_numpy(np.int64)
        return pa.table({"k": pa.array(ks),
                         "prio": pa.array([""] * len(ks), pa.string()),
                         "odate": pa.array(
                             g["sd"].to_numpy(np.int64) * -1),
                         "kind": pa.array(np.zeros(len(ks), np.int8))})

    def exists_count(g: pa.Table) -> pa.Table:
        import pandas as pd
        kind = g["kind"].to_numpy()
        k = g["k"].to_numpy()
        v = g["odate"].to_numpy()
        # max shipdate per key from the lineitem rows (stored as -sd)
        li = pd.DataFrame({"k": k[kind == 0], "sd": -v[kind == 0]})
        maxsd = li.groupby("k", sort=False)["sd"].max()
        od = pd.DataFrame({
            "k": k[kind == 1], "odate": v[kind == 1],
            "prio": np.asarray(g["prio"].to_pylist(),
                               dtype=object)[kind == 1]})
        od = od.join(maxsd, on="k")
        hit = od[od["sd"].notna() & (od["sd"] > od["odate"])]
        cnt = (hit.groupby("prio", sort=False).size()
               .reset_index(name="n"))
        return pa.table({
            "o_orderpriority": pa.array(cnt["prio"], pa.string()),
            "n_orders": pa.array(cnt["n"].to_numpy(np.int64))})

    tagged = (_read(sf_dir, "orders",
                    ["o_orderkey", "o_orderdate", "o_orderpriority"])
              .map_batches(order_side, batch_format="pyarrow")
              .union(_read(sf_dir, "lineitem",
                           ["l_orderkey", "l_shipdate"])
                     .map_batches(late_side, batch_format="pyarrow")))
    schema = pa.schema([("o_orderpriority", pa.string()),
                        ("n_orders", pa.int64())])
    return combine(partition_apply(tagged, "k", exists_count, schema),
                   ["o_orderpriority"], {"n_orders": "sum"}, schema)


def q_local_supplier_volume(sf_dir):
    """TPC-H Q5 shape — the 6-table join: ASIA-region revenue per
    nation where the supplying nation equals the customer nation, for
    orders in [1996-01-01, 1998-01-01).  Revenue integer-exact (the
    shared IEEE floor(x·100+0.5) convention).

    Scale shape: the dimension tables (region ⋈ nation → ≤25 ASIA
    nationkeys; supplier → suppkey→nationkey, thousands of entries)
    are BROADCAST — resolved once on the driver and carried in the
    map closures (at 100 TB supplier remains MBs; the facts are the
    100 TB).  The facts co-partition through two sort-free
    `partition_apply` exchanges: (1) ASIA customers + windowed orders
    on custkey → (orderkey, customer nation); (2) those + lineitem
    (supplier nation resolved AT THE SCAN via the broadcast map, then
    per-batch pre-summed per (orderkey, nation)) on orderkey → the
    same-nation filter and a nations-bounded rollup."""
    from .neardup import partition_apply

    lo = np.datetime64("1996-01-01")
    hi = np.datetime64("1998-01-01")

    # --- broadcast dims (driver-resolved, tiny) ---
    import pyarrow.parquet as pq
    ntab = pq.read_table(f"{sf_dir}/nation.parquet")
    rtab = pq.read_table(f"{sf_dir}/region.parquet")
    stab = pq.read_table(f"{sf_dir}/supplier.parquet",
                         columns=["s_suppkey", "s_nationkey"])
    asia_rk = {r["r_regionkey"] for r in rtab.to_pylist()
               if r["r_name"] == "ASIA"}
    n_name = {r["n_nationkey"]: r["n_name"] for r in ntab.to_pylist()}
    asia_nk = np.array(sorted(
        r["n_nationkey"] for r in ntab.to_pylist()
        if r["n_regionkey"] in asia_rk), dtype=np.int64)
    sk = stab["s_suppkey"].to_numpy()
    snat_arr = np.full(int(sk.max()) + 1, -1, dtype=np.int64)
    snat_arr[sk] = stab["s_nationkey"].to_numpy()

    def cust_side(b: pa.Table) -> pa.Table:
        nk = b["c_nationkey"].to_numpy().astype(np.int64)
        m = np.isin(nk, asia_nk)
        k = b["c_custkey"].to_numpy()[m].astype(np.int64)
        return pa.table({"k": pa.array(k),
                         "v": pa.array(nk[m]),
                         "kind": pa.array(np.zeros(len(k), np.int8))})

    def order_side(b: pa.Table) -> pa.Table:
        d = b["o_orderdate"].to_numpy()
        m = (d >= lo) & (d < hi)
        k = b["o_custkey"].to_numpy()[m].astype(np.int64)
        v = b["o_orderkey"].to_numpy()[m].astype(np.int64)
        return pa.table({"k": pa.array(k), "v": pa.array(v),
                         "kind": pa.array(np.ones(len(k), np.int8))})

    def resolve_orders(g: pa.Table) -> pa.Table:
        import pandas as pd
        kind = g["kind"].to_numpy()
        cust = pd.DataFrame({"k": g["k"].to_numpy()[kind == 0],
                             "cnat": g["v"].to_numpy()[kind == 0]})
        orders = pd.DataFrame({"k": g["k"].to_numpy()[kind == 1],
                               "okey": g["v"].to_numpy()[kind == 1]})
        j = orders.merge(cust, on="k")
        return pa.table({"okey": pa.array(j["okey"].to_numpy(np.int64)),
                         "cnat": pa.array(j["cnat"].to_numpy(np.int64))})

    tagged1 = (_read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
               .map_batches(cust_side, batch_format="pyarrow")
               .union(_read(sf_dir, "orders",
                            ["o_custkey", "o_orderkey", "o_orderdate"])
                      .map_batches(order_side, batch_format="pyarrow")))
    okeys = partition_apply(
        tagged1, "k", resolve_orders,
        pa.schema([("okey", pa.int64()), ("cnat", pa.int64())]))

    def okey_tag(b: pa.Table) -> pa.Table:
        return pa.table({"k": b["okey"],
                         "nat": b["cnat"],
                         "rev": pa.array(np.zeros(len(b), np.int64)),
                         "kind": pa.array(np.zeros(len(b), np.int8))})

    def line_side(b: pa.Table) -> pa.Table:
        import pandas as pd
        k = b["l_orderkey"].to_numpy().astype(np.int64)
        sup = b["l_suppkey"].to_numpy().astype(np.int64)
        price = b["l_extendedprice"].to_numpy()
        disc = b["l_discount"].to_numpy()
        cents = np.floor(price * 100.0 + 0.5).astype(np.int64)
        d = np.floor(disc * 100.0 + 0.5).astype(np.int64)
        snat = snat_arr[sup]                       # broadcast lookup
        g = (pd.DataFrame({"k": k, "nat": snat,
                           "rev": cents * (100 - d)})
             .groupby(["k", "nat"], sort=False)["rev"].sum()
             .reset_index())
        return pa.table({
            "k": pa.array(g["k"].to_numpy(np.int64)),
            "nat": pa.array(g["nat"].to_numpy(np.int64)),
            "rev": pa.array(g["rev"].to_numpy(np.int64)),
            "kind": pa.array(np.ones(len(g), np.int8))})

    def same_nation_rollup(g: pa.Table) -> pa.Table:
        import pandas as pd
        kind = g["kind"].to_numpy()
        od = pd.DataFrame({"k": g["k"].to_numpy()[kind == 0],
                           "cnat": g["nat"].to_numpy()[kind == 0]})
        li = pd.DataFrame({"k": g["k"].to_numpy()[kind == 1],
                           "snat": g["nat"].to_numpy()[kind == 1],
                           "rev": g["rev"].to_numpy()[kind == 1]})
        j = li.merge(od, on="k")
        j = j[j["snat"] == j["cnat"]]
        out = j.groupby("snat", sort=False)["rev"].sum().reset_index()
        return pa.table({
            "nat": pa.array(out["snat"].to_numpy(np.int64)),
            "rev": pa.array(out["rev"].to_numpy(np.int64))})

    tagged2 = (okeys.map_batches(okey_tag, batch_format="pyarrow")
               .union(_read(sf_dir, "lineitem",
                            ["l_orderkey", "l_suppkey",
                             "l_extendedprice", "l_discount"])
                      .map_batches(line_side, batch_format="pyarrow")))
    partials = partition_apply(
        tagged2, "k", same_nation_rollup,
        pa.schema([("nat", pa.int64()), ("rev", pa.int64())]))

    def name_map(b: pa.Table) -> pa.Table:
        return pa.table({
            "n_name": pa.array([n_name[int(x)]
                                for x in b["nat"].to_pylist()],
                               pa.string()),
            "revenue_c4": b["rev"]})

    return combine(
        partials.map_batches(name_map, batch_format="pyarrow"),
        ["n_name"], {"revenue_c4": "sum"},
        pa.schema([("n_name", pa.string()), ("revenue_c4", pa.int64())]))


_Q3_CUTOFF = np.datetime64("1998-06-01")


def q_shipping_priority(sf_dir):
    """TPC-H Q3 shape — the 3-table join/aggregate/top-k a reporting
    pipeline runs over the result store: BUILDING customers ⋈ orders
    before the cutoff ⋈ lineitems shipped after it, revenue per order,
    top 10 by (revenue DESC, orderkey).  Revenue is integer-exact:
    floor(price·100 + 0.5)·(100 − floor(disc·100 + 0.5)) — the SAME
    IEEE expression on both engines, so no float-sum drift.

    Scale shape: two co-partitioned hash exchanges, no broadcast and
    NO SORT SHUFFLE (both ride `neardup.partition_apply` — the tagged
    union hash-routes by the join key; each reduce resolves its whole
    partition with one vectorized isin/groupby) — (1) BUILDING
    custkeys (distinct per batch) + date-pruned orders co-partition
    on custkey, hits emit orderkeys; (2) lineitem revenue partials
    (PER-BATCH combiner: each batch pre-sums per orderkey) +
    surviving orderkeys co-partition on orderkey, hits fold partials.
    The final sort ranks the already-aggregated order-level table and
    the limit cuts at 10."""
    from .neardup import partition_apply

    def cust_keys(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        m = pc.equal(b["c_mktsegment"], "BUILDING")
        k = np.unique(b.filter(m)["c_custkey"].to_numpy())
        return pa.table({"k": pa.array(k.astype(np.int64)),
                         "v": pa.array(np.full(len(k), -1, np.int64)),
                         "kind": pa.array(np.zeros(len(k), np.int8))})

    def order_rows(b: pa.Table) -> pa.Table:
        d = b["o_orderdate"].to_numpy()
        m = d < _Q3_CUTOFF
        k = b["o_custkey"].to_numpy()[m].astype(np.int64)
        v = b["o_orderkey"].to_numpy()[m].astype(np.int64)
        return pa.table({"k": pa.array(k), "v": pa.array(v),
                         "kind": pa.array(np.ones(len(k), np.int8))})

    def hit_orders(g: pa.Table) -> pa.Table:
        kind = g["kind"].to_numpy()
        kset = np.unique(g["k"].to_numpy()[kind == 0])
        probe = kind == 1
        hit = np.isin(g["k"].to_numpy()[probe], kset)
        return pa.table({"okey": pa.array(
            g["v"].to_numpy()[probe][hit].astype(np.int64))})

    tagged1 = (_read(sf_dir, "customer",
                     ["c_custkey", "c_mktsegment"])
               .map_batches(cust_keys, batch_format="pyarrow")
               .union(_read(sf_dir, "orders",
                            ["o_custkey", "o_orderkey", "o_orderdate"])
                      .map_batches(order_rows, batch_format="pyarrow")))
    orders_kept = partition_apply(
        tagged1, "k", hit_orders,
        pa.schema([("okey", pa.int64())]))

    def okey_side(b: pa.Table) -> pa.Table:
        k = np.unique(b["okey"].to_numpy())
        return pa.table({"k": pa.array(k.astype(np.int64)),
                         "rev": pa.array(np.zeros(len(k), np.int64)),
                         "kind": pa.array(np.zeros(len(k), np.int8))})

    def rev_partials(b: pa.Table) -> pa.Table:
        import pandas as pd
        m = b["l_shipdate"].to_numpy() > _Q3_CUTOFF
        k = b["l_orderkey"].to_numpy()[m].astype(np.int64)
        price = b["l_extendedprice"].to_numpy()[m]
        disc = b["l_discount"].to_numpy()[m]
        cents = np.floor(price * 100.0 + 0.5).astype(np.int64)
        dpct = np.floor(disc * 100.0 + 0.5).astype(np.int64)
        rev = cents * (100 - dpct)
        g = (pd.DataFrame({"k": k, "rev": rev})
             .groupby("k", sort=False)["rev"].sum().reset_index())
        ks = g["k"].to_numpy(np.int64)
        return pa.table({"k": pa.array(ks),
                         "rev": pa.array(g["rev"].to_numpy(np.int64)),
                         "kind": pa.array(np.ones(len(ks), np.int8))})

    def fold(g: pa.Table) -> pa.Table:
        import pandas as pd
        kind = g["kind"].to_numpy()
        kset = np.unique(g["k"].to_numpy()[kind == 0])
        df = pd.DataFrame({"k": g["k"].to_numpy()[kind == 1],
                           "rev": g["rev"].to_numpy()[kind == 1]})
        df = df[np.isin(df["k"].to_numpy(), kset)]
        out = df.groupby("k", sort=False)["rev"].sum().reset_index()
        return pa.table({
            "l_orderkey": pa.array(out["k"].to_numpy(np.int64)),
            "revenue_c4": pa.array(out["rev"].to_numpy(np.int64))})

    tagged2 = (orders_kept.map_batches(okey_side, batch_format="pyarrow")
               .union(_read(sf_dir, "lineitem",
                            ["l_orderkey", "l_extendedprice",
                             "l_discount", "l_shipdate"])
                      .map_batches(rev_partials, batch_format="pyarrow")))
    rev_schema = pa.schema([("l_orderkey", pa.int64()),
                            ("revenue_c4", pa.int64())])
    return (partition_apply(tagged2, "k", fold, rev_schema)
            .sort(["revenue_c4", "l_orderkey"], descending=[True, False])
            .limit(10))


def q_anti_join(sf_dir):
    """J1 left-anti — 'new request' detection: orders with no lineitem,
    via the two-sided hash-exchange membership filter."""
    return _membership_filter(
        _read(sf_dir, "orders", ["o_orderkey"]), "o_orderkey",
        _read(sf_dir, "lineitem", ["l_orderkey"]), "l_orderkey",
        negate=True)


def q_semi_join(sf_dir):
    """J3 semi — status packs must match the processing set."""
    return _membership_filter(
        _read(sf_dir, "orders", ["o_orderkey"]), "o_orderkey",
        _read(sf_dir, "lineitem", ["l_orderkey"]), "l_orderkey",
        negate=False)


# ---------------------------------------------------------------------------
# streaming-ish aggregates (SURVEY §2.5, §2.9)
# ---------------------------------------------------------------------------

def q_windowed_counter(sf_dir):
    """A3 — 5-minute tumbling window counters, pre-aggregated per batch
    before the (tiny) final shuffle."""
    def prep(b: pa.Table) -> pa.Table:
        us = b["ts"].cast(pa.int64()).to_numpy()
        return pa.table({"win": pa.array(us // (300 * 1_000_000)),
                         "value_cents": _round_c(b["value"].to_numpy())})
    return combine(
        _read(sf_dir, "events", ["ts", "value"])
        .map_batches(prep, batch_format="pyarrow"), ["win"],
        {"n": "count", "value_cents": "sum"},
        pa.schema([("win", pa.int64()), ("n", pa.int64()),
                   ("value_cents", pa.int64())]))


def q_common_fields(sf_dir):
    """A6 — csv common-fields: keys present in every result row
    (result_dump.py:97-108), as partial key-sets merged on the driver."""
    def keysets(b: pa.Table) -> pa.Table:
        rows = b["props"].to_pylist()
        inter: set | None = None
        union: set = set()
        for r in rows:
            ks = set(json.loads(r).keys()) if r else set()
            union |= ks
            inter = ks if inter is None else (inter & ks)
        return pa.table({"inter": [json.dumps(sorted(inter or []))],
                         "union": [json.dumps(sorted(union))],
                         "rows": [len(rows)]})
    parts = (_read(sf_dir, "events", ["props"])
             .map_batches(keysets, batch_format="pyarrow").take_all())
    inter: set | None = None
    for p in parts:
        ks = set(json.loads(p["inter"]))
        inter = ks if inter is None else (inter & ks)
    return pa.table({"key": pa.array(sorted(inter or []), pa.string())})


# ---------------------------------------------------------------------------
# scalar functions / canonicalization (SURVEY §2.2, §2.8)
# ---------------------------------------------------------------------------

def q_canonical_tasks(sf_dir):
    """M2/M6 — URL build + md5 task identity, vectorized per batch."""
    def canon(b: pa.Table) -> pa.Table:
        eids = b["event_id"].to_pylist()
        uids = b["user_id"].to_pylist()
        urls = [f"http://site{u}.test/page/{e}" for u, e in zip(uids, eids)]
        taskids = [hashlib.md5(u.encode()).hexdigest() for u in urls]
        return pa.table({"event_id": pa.array(eids, pa.int64()),
                         "url": pa.array(urls, pa.string()),
                         "taskid": pa.array(taskids, pa.string())})
    return (_read(sf_dir, "events", ["event_id", "user_id"])
            .map_batches(canon, batch_format="pyarrow"))


def q_doc_fingerprint(sf_dir):
    """Document fingerprinting — md5 content hash per doc."""
    def fp(b: pa.Table) -> pa.Table:
        fps = [hashlib.md5(t.encode()).hexdigest()
               for t in b["text"].to_pylist()]
        return pa.table({"doc_id": b["doc_id"],
                         "fp": pa.array(fps, pa.string())})
    return (_read(sf_dir, "documents", ["doc_id", "text"])
            .map_batches(fp, batch_format="pyarrow"))


# ---------------------------------------------------------------------------
# custom operators Ray Data lacks natively (BASELINE brief: as-of join,
# range join, windowed aggregates) — expressed as one hash exchange on
# the key (pyspider_ray.neardup) + vectorized per-partition kernels,
# never a sort-based groupby
# ---------------------------------------------------------------------------

_TS_SHIFT = np.int64(1) << np.int64(52)   # user_id*2^52 + epoch_us packing


def _asof_merge(pu, pt, pid, cu, ct, cid):
    """General-key as-of resolve, valid for the FULL int64 user/ts
    space (no packing): merge both sides into one stream lexsorted by
    (user, ts, kind, id) — purchases (kind 0) ahead of clicks (kind 1)
    at equal ts so at-or-before includes ties — then forward-fill the
    latest purchase position with one ``np.maximum.accumulate``.  Ties
    on (user, ts) resolve to the max purchase id (innermost sort key),
    mirroring the oracle's QUALIFY dedup.  O((n+m) log(n+m)) per
    partition, fully vectorized."""
    n, m = len(pu), len(cu)
    user = np.concatenate([pu, cu])
    ts = np.concatenate([pt, ct])
    kind = np.concatenate([np.zeros(n, np.int8), np.ones(m, np.int8)])
    ids = np.concatenate([pid, cid]).astype(np.int64)
    order = np.lexsort((ids, kind, ts, user))
    ks, us, is_ = kind[order], user[order], ids[order]
    pos = np.arange(n + m, dtype=np.int64)
    fill = np.maximum.accumulate(np.where(ks == 0, pos, -1))
    click_at = np.flatnonzero(ks == 1)
    hit = fill[click_at]
    ok = hit >= 0
    hit = np.maximum(hit, 0)
    ok &= us[hit] == us[click_at]     # hit must be the same user's
    return is_[click_at[ok]], is_[hit[ok]]


def q_asof_join(sf_dir):
    """As-of join: for each 'click' event, the user's most recent
    'purchase' at-or-before its timestamp.  Both sides meet in one hash
    exchange on the user; each partition resolves the as-of lookup
    with ONE np.searchsorted over (user, ts)-packed keys — vectorized,
    no per-key Python."""
    from .neardup import partition_apply

    def prep(b: pa.Table) -> pa.Table:
        t = b.filter(pc.is_in(b["event_type"],
                              value_set=pa.array(["click", "purchase"])))
        return pa.table({
            "event_id": t["event_id"],
            "user_id": t["user_id"],
            "ts_us": t["ts"].cast(pa.int64()),
            "is_click": pc.equal(t["event_type"], "click")})

    def asof(g: pa.Table) -> pa.Table:
        click = g.filter(g["is_click"].combine_chunks())
        purch = g.filter(pc.invert(g["is_click"].combine_chunks()))
        if not len(click) or not len(purch):
            return None
        pu = purch["user_id"].to_numpy().astype(np.int64)
        pt = purch["ts_us"].to_numpy()
        pid = purch["event_id"].to_numpy()
        # tie-safe: one purchase per (user, ts) — keep max event_id,
        # mirroring the oracle's QUALIFY dedup
        tie_order = np.lexsort((pid, pt, pu))
        pu, pt, pid = pu[tie_order], pt[tie_order], pid[tie_order]
        last = np.ones(len(pu), dtype=bool)
        last[:-1] = (pu[1:] != pu[:-1]) | (pt[1:] != pt[:-1])
        pu, pt, pid = pu[last], pt[last], pid[last]
        cu = click["user_id"].to_numpy().astype(np.int64)
        ct = click["ts_us"].to_numpy()
        cid = click["event_id"].to_numpy().astype(np.int64)
        # packed key = user*2^52 + ts_us: the fast path while user fits
        # 2^11 and ts_us fits 2^52 (year ~2112); wider key spaces take
        # the no-packing merge path (_asof_merge), same semantics
        if not (0 <= pu.min(initial=0) and pu.max(initial=0) < (1 << 11)
                and 0 <= cu.min(initial=0) and cu.max(initial=0) < (1 << 11)
                and 0 <= pt.min(initial=0) and pt.max(initial=0) < (1 << 52)
                and 0 <= ct.min(initial=0) and ct.max(initial=0) < (1 << 52)):
            eid, pid2 = _asof_merge(pu, pt, pid.astype(np.int64),
                                    cu, ct, cid)
            return pa.table({"event_id": pa.array(eid),
                             "purchase_id": pa.array(pid2)})
        pk = pu * _TS_SHIFT + pt
        order = np.argsort(pk)
        pk, pid_s, pu_s = pk[order], pid[order], pu[order]
        idx = np.searchsorted(pk, cu * _TS_SHIFT + ct, side="right") - 1
        ok = idx >= 0
        idx = np.maximum(idx, 0)
        ok &= pu_s[idx] == cu          # the hit must be the same user
        return pa.table({
            "event_id": pa.array(cid[ok].astype(np.int64)),
            "purchase_id": pa.array(pid_s[idx[ok]].astype(np.int64))})

    schema = pa.schema([("event_id", pa.int64()),
                        ("purchase_id", pa.int64())])
    return partition_apply(
        _read(sf_dir, "events", ["event_id", "user_id", "ts",
                                 "event_type"])
        .map_batches(prep, batch_format="pyarrow"),
        "user_id", asof, schema)


@ray.remote
def _order_prices(sf_dir: str) -> np.ndarray:
    """range_join_count's broadcast side, read once in a task: every
    order price in cents, sorted (1 MB at sf0.1 — the canonical
    broadcast-small-side case)."""
    import pyarrow.parquet as pq
    t = pq.read_table(f"{sf_dir}/orders.parquet", columns=["o_totalprice"])
    return np.sort(_round_c(t["o_totalprice"].to_numpy()))


def _range_join_count(b: pa.Table, prices) -> pa.Table:
    """Range join (broadcast small side): count orders whose price
    falls in each event's [value*1000, value*1000+5000) cents band —
    two searchsorted calls per batch."""
    prices = _broadcast_get(prices)
    lo = np.floor(b["value"].to_numpy(zero_copy_only=False) * 1000) \
        .astype(np.int64) * 100
    hi = lo + 500_000
    n = np.searchsorted(prices, hi, side="left") - \
        np.searchsorted(prices, lo, side="left")
    return pa.table({"event_id": b["event_id"],
                     "n_orders_in_band": pa.array(n.astype(np.int64))})


def q_range_join_count(sf_dir):
    return (_read(sf_dir, "events", ["event_id", "value"])
            .map_batches(_range_join_count, batch_format="pyarrow",
                         fn_kwargs={"prices": _order_prices.remote(sf_dir)}))


def q_sliding_window(sf_dir):
    """Sliding windowed aggregate: 5-minute windows advancing by 1
    minute — each event fans out to its 5 covering windows inside
    map_batches (combiner-style partial counts), then one small
    groupby sums partials."""
    def fanout(b: pa.Table) -> pa.Table:
        mins = b["ts"].cast(pa.int64()).to_numpy() // 60_000_000
        wins = (mins[:, None] - np.arange(5)[None, :]).ravel()
        return pa.table({"win_start_min": pa.array(wins)})

    return combine(
        _read(sf_dir, "events", ["ts"])
        .map_batches(fanout, batch_format="pyarrow"), ["win_start_min"],
        {"n": "count"},
        pa.schema([("win_start_min", pa.int64()), ("n", pa.int64())]))


def q_session_windows(sf_dir):
    """Session windows: per user, a >30-minute gap starts a new
    session (gaps-and-islands).  One hash exchange on the user, one
    vectorized diff/cumsum per partition."""
    from .neardup import partition_apply

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({"user_id": b["user_id"],
                         "ts_us": b["ts"].cast(pa.int64())})

    def sessions(g: pa.Table) -> pa.Table:
        import pandas as pd
        user = g["user_id"].to_numpy().astype(np.int64)
        ts = g["ts_us"].to_numpy()
        order = np.lexsort((ts, user))
        user, ts = user[order], ts[order]
        new = np.ones(len(user), dtype=np.int64)
        if len(user) > 1:
            same = user[1:] == user[:-1]
            close = (ts[1:] - ts[:-1]) <= 1_800_000_000
            new[1:] = ~(same & close)
        # session index per user = cumulative breaks within the user run
        sid = np.cumsum(new)
        # re-base sid per user: subtract the sid at each user's first row
        first = np.ones(len(user), dtype=bool)
        first[1:] = user[1:] != user[:-1]
        base = np.maximum.accumulate(np.where(first, sid, 0))
        sid = sid - base + 1
        df = pd.DataFrame({"user_id": user, "session_id": sid, "t": ts})
        out = df.groupby(["user_id", "session_id"], as_index=False) \
            .agg(n_events=("t", "size"), start_us=("t", "min"),
                 end_us=("t", "max"))
        out["n_events"] = out["n_events"].astype("int64")
        return pa.Table.from_pandas(out, preserve_index=False) \
            .replace_schema_metadata(None)

    schema = pa.schema([("user_id", pa.int64()),
                        ("session_id", pa.int64()),
                        ("n_events", pa.int64()),
                        ("start_us", pa.int64()),
                        ("end_us", pa.int64())])
    return partition_apply(
        _read(sf_dir, "events", ["user_id", "ts"])
        .map_batches(prep, batch_format="pyarrow"),
        "user_id", sessions, schema)


def q_hash_sample(sf_dir):
    """Deterministic hash sampling: keep rows whose md5(event_id) low
    64 bits fall in the lowest 10% — reproducible across engines and
    restarts (unlike random_sample)."""
    def flt(b: pa.Table) -> pa.Table:
        ids = b["event_id"].to_pylist()
        keep = [int.from_bytes(hashlib.md5(str(i).encode()).digest()[:8],
                               "big") % 100 < 10 for i in ids]
        return b.filter(pa.array(keep))
    return (_read(sf_dir, "events", ["event_id", "user_id"])
            .map_batches(flt, batch_format="pyarrow"))


# ---------------------------------------------------------------------------
# event-sequence + reporting-join shapes (SURVEY §2.4, §2.5, §2.9)
# ---------------------------------------------------------------------------

_FUNNEL = ("signup", "view", "click", "purchase")
_FUNNEL_WINDOW_US = 86_400 * 1_000_000        # each step within 1 day


def q_funnel_stages(sf_dir):
    """Ordered event-sequence funnel — the conversion report every
    event pipeline runs: how many users did signup → view → click →
    purchase IN ORDER, each step strictly after the previous one and
    within a 1-day window.  Greedy-earliest matching (stage k+1 is the
    FIRST qualifying event after stage k's reach time) makes the
    result deterministic and engine-independent; timestamps compare
    as exact epoch-microsecond int64.

    Scale shape: the scan prunes to the 4 funnel types and 3 tiny
    columns, ONE user-hash exchange co-locates each user's events
    (`partition_apply`, sort-free), and each partition resolves ALL
    its users' funnels with 3 vectorized `merge_asof` passes (C
    loops, no per-user Python) — per-partition stage counts then ride
    a 4-row-per-partition final aggregate.  No global sort, no
    driver-side event materialization; per-user state is bounded by
    that user's funnel-type events."""
    from .neardup import partition_apply

    def prep(b: pa.Table) -> pa.Table:
        code = pc.index_in(b["event_type"],
                           pa.array(_FUNNEL, pa.string()))
        m = pc.is_valid(code)
        t = b["ts"].cast(pa.int64())
        return pa.table({
            "user_id": pc.filter(b["user_id"], m).cast(pa.int64()),
            "code": pc.filter(code, m).cast(pa.int64()),
            "t": pc.filter(t, m)})

    def fold(part: pa.Table) -> pa.Table:
        import pandas as pd
        user = part["user_id"].to_numpy()
        code = part["code"].to_numpy()
        t = part["t"].to_numpy()
        cur = (pd.DataFrame({"user_id": user[code == 0],
                             "t": t[code == 0]})
               .groupby("user_id", as_index=False)["t"].min())
        counts = [len(cur)]
        for k in range(1, len(_FUNNEL)):
            ek = (pd.DataFrame({"user_id": user[code == k],
                                "t": t[code == k],
                                "t_next": t[code == k]})
                  .sort_values("t", kind="stable"))
            cur = cur.sort_values("t", kind="stable")
            hit = pd.merge_asof(cur, ek, on="t", by="user_id",
                                direction="forward",
                                allow_exact_matches=False,
                                tolerance=_FUNNEL_WINDOW_US)
            cur = (hit[hit["t_next"].notna()]
                   .assign(t=lambda d: d["t_next"].astype("int64"))
                   [["user_id", "t"]])
            counts.append(len(cur))
        return pa.table({
            "stage": pa.array(np.arange(1, len(_FUNNEL) + 1,
                                        dtype=np.int64)),
            "event_type": pa.array(list(_FUNNEL), pa.string()),
            "n_users": pa.array(np.asarray(counts, dtype=np.int64))})

    schema = pa.schema([("stage", pa.int64()),
                        ("event_type", pa.string()),
                        ("n_users", pa.int64())])
    partials = partition_apply(
        _read(sf_dir, "events", ["user_id", "event_type", "ts"])
        .map_batches(prep, batch_format="pyarrow"),
        "user_id", fold, schema)
    return combine(partials, ["stage", "event_type"], {"n_users": "sum"},
                   schema)


_DAY_US = 86_400_000_000
_HOUR_US = 3_600_000_000


def q_user_retention_cohorts(sf_dir):
    """Cohort retention — the engagement report every event pipeline
    ships: users cohorted by their first-signup day, counted once per
    (cohort_day, day-offset) they were active on.  Day arithmetic is
    exact integer epoch-microsecond floor-division; `COUNT(DISTINCT
    user_id)` is exact because each user's rows are co-located.

    Scale shape: the scan prunes to 3 columns and pre-shrinks each
    batch to distinct (user, day) pairs plus per-user min signup-day
    partials (the combiner bounds exchange volume by active-days, not
    events), ONE user-hash exchange co-locates each user's rows, each
    partition resolves cohorts vectorized, and per-partition
    (cohort, offset, n) partials ride a tiny final aggregate —
    distinct-user counts can sum across partitions because a user
    lives in exactly one."""
    import pandas as pd

    from .neardup import partition_apply

    def prep(b: pa.Table) -> pa.Table:
        us = b["ts"].cast(pa.int64()).to_numpy()
        uid = b["user_id"].to_numpy().astype(np.int64)
        day = us // _DAY_US
        sign = (pc.equal(b["event_type"], "signup")
                .to_numpy(zero_copy_only=False))
        act = (pd.DataFrame({"user_id": uid, "day": day})
               .drop_duplicates())
        su = (pd.DataFrame({"user_id": uid[sign], "day": day[sign]})
              .groupby("user_id", as_index=False)["day"].min())
        return pa.table({
            "user_id": pa.array(np.concatenate(
                [act["user_id"].to_numpy(np.int64),
                 su["user_id"].to_numpy(np.int64)])),
            "day": pa.array(np.concatenate(
                [act["day"].to_numpy(np.int64),
                 su["day"].to_numpy(np.int64)])),
            "kind": pa.array(np.concatenate(
                [np.zeros(len(act), np.int8),
                 np.ones(len(su), np.int8)]))})

    def fold(part: pa.Table) -> pa.Table:
        import pandas as pd
        kind = part["kind"].to_numpy()
        uid = part["user_id"].to_numpy()
        day = part["day"].to_numpy()
        cohort = (pd.DataFrame({"u": uid[kind == 1],
                                "c": day[kind == 1]})
                  .groupby("u")["c"].min())
        act = (pd.DataFrame({"u": uid[kind == 0], "d": day[kind == 0]})
               .drop_duplicates())
        act["c"] = cohort.reindex(act["u"].to_numpy()).to_numpy()
        act = act[act["c"].notna() & (act["d"] >= act["c"])]
        act["c"] = act["c"].astype("int64")
        out = (act.assign(off=act["d"] - act["c"])
               .groupby(["c", "off"], as_index=False)
               .agg(n=("u", "nunique")))
        return pa.table({
            "cohort_day": pa.array(out["c"].to_numpy(np.int64)),
            "offset_days": pa.array(out["off"].to_numpy(np.int64)),
            "n_users": pa.array(out["n"].to_numpy(np.int64))})

    schema = pa.schema([("cohort_day", pa.int64()),
                        ("offset_days", pa.int64()),
                        ("n_users", pa.int64())])
    partials = partition_apply(
        _read(sf_dir, "events", ["user_id", "event_type", "ts"])
        .map_batches(prep, batch_format="pyarrow"),
        "user_id", fold, schema)
    return combine(partials, ["cohort_day", "offset_days"],
                   {"n_users": "sum"}, schema)


def q_window_p95_value(sf_dir):
    """Windowed exact quantile — per 1-hour tumbling window the count
    and the exact discrete p95 of the event value (cents int64): the
    rank-⌈0.95·n⌉ smallest element, NOT an interpolated float — so
    the answer is engine- and partitioning-independent.

    Scale shape: window cardinality is bounded by rows-per-hour, so
    the exact per-window sort is partition-local by construction: one
    window-hash exchange (`partition_apply`, sort-free) co-locates
    each window's values, each partition ranks ALL its windows with
    one vectorized lexsort + run-boundary gather.  (For unbounded
    groups the repo's histogram-cutoff quantiles —
    `source_len_quantiles` — are the scale path; this is the exact
    small-group complement.)"""
    from .neardup import partition_apply

    def prep(b: pa.Table) -> pa.Table:
        us = b["ts"].cast(pa.int64()).to_numpy()
        v = _round_c(b["value"].to_numpy())
        return pa.table({"win": pa.array(us // _HOUR_US),
                         "v": pa.array(v)})

    def fold(part: pa.Table) -> pa.Table:
        win = part["win"].to_numpy()
        v = part["v"].to_numpy()
        order = np.lexsort((v, win))
        win, v = win[order], v[order]
        starts = np.flatnonzero(np.r_[True, win[1:] != win[:-1]])
        ends = np.r_[starts[1:], len(win)]
        n = ends - starts
        idx = starts + (n * 95 + 99) // 100 - 1   # ceil(0.95n), 0-based
        return pa.table({"win": pa.array(win[starts]),
                         "n": pa.array(n.astype(np.int64)),
                         "p95_cents": pa.array(v[idx])})

    schema = pa.schema([("win", pa.int64()), ("n", pa.int64()),
                        ("p95_cents", pa.int64())])
    return partition_apply(
        _read(sf_dir, "events", ["ts", "value"])
        .map_batches(prep, batch_format="pyarrow"),
        "win", fold, schema)


def q_top_event_type_per_user(sf_dir):
    """Grouped MODE with deterministic ties — each user's most
    frequent event type (ties → lexicographically smallest type), the
    dominant-behavior label a segmentation pipeline assigns.

    Scale shape: per-batch (user, type) count combiner bounds the
    exchange by users×types (not events), ONE sort-free user-hash
    exchange, each partition resolves ALL its users' modes with one
    pandas sort + drop_duplicates — no per-user Python."""
    from .neardup import partition_apply

    def counts(b: pa.Table) -> pa.Table:
        import pandas as pd
        g = (pd.DataFrame({
            "user_id": b["user_id"].to_numpy(),
            "event_type": b["event_type"].to_pylist(),
            "n": 1})
            .groupby(["user_id", "event_type"], as_index=False)["n"]
            .sum())
        return pa.table({
            "user_id": pa.array(g["user_id"].to_numpy(np.int64)),
            "event_type": pa.array(g["event_type"], pa.string()),
            "n": pa.array(g["n"].to_numpy(np.int64))})

    def fold(part: pa.Table) -> pa.Table:
        df = (part.to_pandas()
              .groupby(["user_id", "event_type"], as_index=False)["n"]
              .sum()
              .sort_values(["user_id", "n", "event_type"],
                           ascending=[True, False, True],
                           kind="stable")
              .drop_duplicates("user_id"))
        return pa.table({
            "user_id": pa.array(df["user_id"].to_numpy(np.int64)),
            "top_type": pa.array(df["event_type"], pa.string()),
            "n": pa.array(df["n"].to_numpy(np.int64))})

    schema = pa.schema([("user_id", pa.int64()),
                        ("top_type", pa.string()),
                        ("n", pa.int64())])
    return partition_apply(
        _read(sf_dir, "events", ["user_id", "event_type"])
        .map_batches(counts, batch_format="pyarrow"),
        "user_id", fold, schema)


_PIVOT_PRIOS = ("1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED",
                "5-LOW")


def q_status_priority_pivot(sf_dir):
    """Wide pivot (crosstab) — the reporting shape dashboards want:
    one row per order STATUS with one count column PER PRIORITY
    (rows→columns), plus a row total.  The column set is the fixed
    priority domain, so the schema is static and engine-independent.

    Scale shape: each batch collapses to a ≤|status|×|prio| crosstab
    INSIDE map_batches (vectorized bincount over status·K+prio
    codes — the pivot happens before the exchange, so the shuffle
    moves ≤15 wide rows per batch), then the hash exchange sums the
    partials column-wise per status.  No row-level data ever pivots
    post-shuffle."""
    K = len(_PIVOT_PRIOS)
    counts = [f"n_p{j + 1}" for j in range(K)] + ["n_total"]

    def crosstab(b: pa.Table) -> pa.Table:
        st_ = b["o_orderstatus"].combine_chunks().dictionary_encode()
        sc = st_.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        pr = pc.fill_null(
            pc.index_in(b["o_orderpriority"],
                        pa.array(list(_PIVOT_PRIOS), pa.string())),
            -1).to_numpy(zero_copy_only=False).astype(np.int64)
        m = pr >= 0                       # out-of-domain rows dropped
        n_st = len(st_.dictionary)
        code = sc[m] * K + pr[m]
        cnt = np.bincount(code, minlength=n_st * K) \
            .reshape(n_st, K).astype(np.int64)
        cols = {"o_orderstatus": pa.array(
            st_.dictionary.to_pylist(), pa.string())}
        for j, p in enumerate(_PIVOT_PRIOS):
            cols[f"n_p{j + 1}"] = pa.array(cnt[:, j])
        # every row counts, also one whose priority is out of domain
        cols["n_total"] = pa.array(
            np.bincount(sc, minlength=n_st).astype(np.int64))
        return pa.table(cols)

    return combine(
        _read(sf_dir, "orders", ["o_orderstatus", "o_orderpriority"])
        .map_batches(crosstab, batch_format="pyarrow"), ["o_orderstatus"],
        dict.fromkeys(counts, "sum"),
        pa.schema([("o_orderstatus", pa.string())]
                  + [(c, pa.int64()) for c in counts]))


def q_customer_running_total(sf_dir):
    """Running window aggregate — SUM OVER (PARTITION BY customer
    ORDER BY date) ROWS UNBOUNDED PRECEDING: every order row with the
    customer's cumulative spend in exact cents, the
    lifetime-value-to-date series a reporting layer charts.
    Deterministic ordering via the (o_orderdate, o_orderkey)
    tie-break.

    Scale shape: ONE sort-free custkey hash exchange co-locates each
    customer's orders, each partition orders ALL its customers with
    one lexsort and computes every running series with one segmented
    cumsum (global cumsum minus each customer-run's starting offset —
    no per-customer Python); group size is bounded by
    orders-per-customer, never corpus size."""
    from .neardup import partition_apply

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "k": b["o_custkey"].cast(pa.int64()),
            "okey": b["o_orderkey"].cast(pa.int64()),
            "odate_us": pa.array(b["o_orderdate"].to_numpy()
                                 .astype("datetime64[us]")
                                 .astype(np.int64)),
            "cents": pa.array(_round_c(b["o_totalprice"].to_numpy()))})

    def fold(part: pa.Table) -> pa.Table:
        k = part["k"].to_numpy()
        okey = part["okey"].to_numpy()
        d = part["odate_us"].to_numpy()
        c = part["cents"].to_numpy()
        order = np.lexsort((okey, d, k))
        k, okey, d, c = k[order], okey[order], d[order], c[order]
        cum = np.cumsum(c)
        first = np.ones(len(k), dtype=bool)
        first[1:] = k[1:] != k[:-1]
        base = np.repeat(cum[first] - c[first],
                         np.diff(np.r_[np.flatnonzero(first), len(k)]))
        return pa.table({
            "o_orderkey": pa.array(okey),
            "o_custkey": pa.array(k),
            "odate_us": pa.array(d),
            "running_cents": pa.array(cum - base)})

    schema = pa.schema([("o_orderkey", pa.int64()),
                        ("o_custkey", pa.int64()),
                        ("odate_us", pa.int64()),
                        ("running_cents", pa.int64())])
    return partition_apply(
        _read(sf_dir, "orders",
              ["o_orderkey", "o_custkey", "o_orderdate",
               "o_totalprice"])
        .map_batches(prep, batch_format="pyarrow"),
        "k", fold, schema)


_MAD_K = 5


def q_value_outliers_mad(sf_dir):
    """Robust outlier gate — the data-cleaning pass a metrics/quality
    pipeline runs before aggregating: flag events whose value sits
    more than 5 MADs from their event-type's median.  Median and MAD
    are EXACT rank statistics (the rank-⌈n/2⌉ element, integer cents)
    — no float quantile interpolation, so both engines agree
    bit-for-bit.

    Scale shape: the classic two-scan histogram trick — pass 1
    collapses each batch to per-(type, value) counts (exchange volume
    = O(distinct cents), NOT rows), the per-type fold takes the exact
    median off the cumsum and then the exact MAD by re-folding the
    SAME histogram through |v − med| (no second data pass for the
    deviations); pass 2 re-scans with the 5-entry (type → med, mad)
    map in the closure and streams out the flagged rows.  Nothing
    sorts the corpus; group size never matters."""
    import pandas as pd

    def cents(b: pa.Table) -> pa.Table:
        return pa.table({"v": _round_c(b["value"].to_numpy()),
                         "event_type": b["event_type"]})

    # keyed on the value first: the exchange routes by it, not by the
    # 5 event types
    hist = combine(
        _read(sf_dir, "events", ["event_type", "value"])
        .map_batches(cents, batch_format="pyarrow"),
        ["v", "event_type"], {"n": "count"},
        pa.schema([("v", pa.int64()), ("event_type", pa.string()),
                   ("n", pa.int64())])).take_all()   # O(types · cents)

    stats: dict[str, tuple[int, int]] = {}
    df = pd.DataFrame(hist)
    for et, g in df.groupby("event_type", sort=False):
        g = g.sort_values("v")
        v = g["v"].to_numpy(np.int64)
        n = g["n"].to_numpy(np.int64)
        total = int(n.sum())
        rank = (total + 1) // 2                      # lower median
        med = int(v[np.searchsorted(np.cumsum(n), rank)])
        ad = np.abs(v - med)
        order = np.argsort(ad, kind="stable")
        mad = int(ad[order][np.searchsorted(
            np.cumsum(n[order]), rank)])
        stats[str(et)] = (med, mad)

    def flag(b: pa.Table) -> pa.Table:
        et = np.asarray(b["event_type"].to_pylist(), dtype=object)
        v = _round_c(b["value"].to_numpy())
        med = np.array([stats[t][0] for t in et], dtype=np.int64)
        mad = np.array([stats[t][1] for t in et], dtype=np.int64)
        m = np.abs(v - med) > _MAD_K * mad
        return pa.table({
            "event_id": pa.array(b["event_id"].to_numpy()[m]
                                 .astype(np.int64)),
            "event_type": pa.array(list(et[m]), pa.string()),
            "value_cents": pa.array(v[m]),
            "med_cents": pa.array(med[m]),
            "mad_cents": pa.array(mad[m])})

    return (_read(sf_dir, "events",
                  ["event_id", "event_type", "value"])
            .map_batches(flag, batch_format="pyarrow"))


_DEBOUNCE_US = 21_600 * 1_000_000       # 6-hour duplicate window


def q_event_debounce(sf_dir):
    """Time-based duplicate collapse (debounce) — the re-crawl /
    double-fire suppressor a streaming ingest runs: drop an event
    arriving within 6 hours of the PREVIOUS event of the same
    (user, type), in exact (ts, event_id) order.  Lag semantics
    (gap to the previous raw event), so the verdict is a pure
    window function — deterministic on both engines.

    Scale shape: 3-column pruned scan, ONE sort-free user-hash
    exchange, each partition lexsorts ALL its (user, type) runs once
    and computes gaps with one adjacent diff — no per-user Python, no
    global sort; kept rows stream out."""
    from .neardup import partition_apply

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": b["user_id"].cast(pa.int64()),
            "event_type": b["event_type"].cast(pa.string()),
            "t": b["ts"].cast(pa.int64()),
            "eid": b["event_id"].cast(pa.int64())})

    def fold(part: pa.Table) -> pa.Table:
        u = part["user_id"].to_numpy()
        et = np.asarray(part["event_type"].to_pylist(), dtype=object)
        t = part["t"].to_numpy()
        e = part["eid"].to_numpy()
        # order within (user, type) by (ts, event_id)
        codes, _ = pd_factorize(et)
        order = np.lexsort((e, t, codes, u))
        u2, c2, t2 = u[order], codes[order], t[order]
        keep = np.ones(len(u2), dtype=bool)
        if len(u2) > 1:
            same = (u2[1:] == u2[:-1]) & (c2[1:] == c2[:-1])
            close = (t2[1:] - t2[:-1]) <= _DEBOUNCE_US
            keep[1:] = ~(same & close)
        sel = order[keep]
        return pa.table({
            "event_id": pa.array(e[sel]),
            "user_id": pa.array(u[sel]),
            "event_type": pa.array(list(et[sel]), pa.string()),
            "ts_us": pa.array(t[sel])})

    schema = pa.schema([("event_id", pa.int64()),
                        ("user_id", pa.int64()),
                        ("event_type", pa.string()),
                        ("ts_us", pa.int64())])
    return partition_apply(
        _read(sf_dir, "events",
              ["event_id", "user_id", "event_type", "ts"])
        .map_batches(prep, batch_format="pyarrow"),
        "user_id", fold, schema)


def pd_factorize(arr):
    import pandas as pd
    codes, uniques = pd.factorize(arr, sort=False)
    return codes.astype(np.int64), uniques


def _coalesce_activity(b: pa.Table) -> pa.Table:
    """Left-join misses (customers without orders) become 0, in int64
    — exact for every value, not only below 2^53."""
    return pa.table({
        "c_custkey": b["c_custkey"],
        "c_nationkey": b["c_nationkey"].cast(pa.int64()),
        "n_orders": pc.fill_null(b["cnt"], 0),
        "revenue_cents": pc.fill_null(b["rev"], 0)})


def q_customer_order_activity(sf_dir):
    """Left-join activity report over the `hash_join` primitive: every
    customer with their order count and exact revenue cents — ZEROS
    KEPT (the inactive-customer rows an anti-join would return, in the
    same pass).  Exercises the library join end-to-end in a graded
    query: orders pre-aggregate per custkey inside each batch (the
    combiner bounds the right side by distinct customers), then ONE
    co-partitioned left join against the customer table, misses
    coalesced to 0 vectorized.

    Scale shape: per-batch combiner → one hash exchange per side →
    per-partition vectorized merge; no broadcast (customer scales
    with SF), no sort."""
    from .neardup import hash_join

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "k": b["o_custkey"].cast(pa.int64()),
            "rev": _round_c(b["o_totalprice"].to_numpy())})

    per_cust = combine(
        _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
        .map_batches(prep, batch_format="pyarrow"),
        ["k"], {"rev": "sum", "cnt": "count"},
        pa.schema([("k", pa.int64()), ("rev", pa.int64()),
                   ("cnt", pa.int64())]))

    joined = hash_join(
        _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]),
        per_cust, "c_custkey", "k", how="left")

    return joined.map_batches(_coalesce_activity, batch_format="pyarrow")


def q_parts_never_ordered(sf_dir):
    """Anti-join over the `hash_join` primitive: parts NO March-1996
    lineitem shipped — the dead-inventory / stale-URL left-anti
    shape.  The probe side prunes to the window and shrinks to
    distinct partkeys per batch before the exchange."""
    from .neardup import hash_join

    lo = np.datetime64("1996-03-01")
    hi = np.datetime64("1996-04-01")

    def distinct_keys(b: pa.Table) -> pa.Table:
        d = b["l_shipdate"].to_numpy()
        m = (d >= lo) & (d < hi)
        k = np.unique(b["l_partkey"].to_numpy()[m].astype(np.int64))
        return pa.table({"l_partkey": pa.array(k)})

    used = (_read(sf_dir, "lineitem", ["l_partkey", "l_shipdate"])
            .map_batches(distinct_keys, batch_format="pyarrow"))
    return hash_join(_read(sf_dir, "part", ["p_partkey", "p_name"]),
                     used, "p_partkey", "l_partkey", how="anti")


def q_event_transition_matrix(sf_dir):
    """Per-user event-sequence bigrams (the Markov transition matrix a
    behavioral model trains on): for every user's events in (ts,
    event_id) order, count each consecutive (prev_type → next_type)
    transition.  The tie-break on event_id makes the sequence — and so
    the counts — engine-independent.

    Scale shape: the scan prunes to 3 tiny columns + a dictionary
    code per type, ONE sort-free user-hash exchange co-locates each
    user's events, each partition orders ALL its users with one
    lexsort and counts transitions with one vectorized bincount over
    (prev·K + next) codes (adjacent pairs within same-user runs only);
    per-partition K×K partials ride the final tiny aggregate."""
    from .neardup import partition_apply

    types = ("click", "error", "purchase", "signup", "view")
    K = len(types)

    def prep(b: pa.Table) -> pa.Table:
        code = pc.index_in(b["event_type"],
                           pa.array(types, pa.string()))
        return pa.table({
            "user_id": b["user_id"].cast(pa.int64()),
            "code": code.cast(pa.int64()),
            "t": b["ts"].cast(pa.int64()),
            "eid": b["event_id"].cast(pa.int64())})

    def fold(part: pa.Table) -> pa.Table:
        u = part["user_id"].to_numpy()
        c = part["code"].to_numpy()
        t = part["t"].to_numpy()
        e = part["eid"].to_numpy()
        order = np.lexsort((e, t, u))
        u, c = u[order], c[order]
        same = u[1:] == u[:-1]
        pair = c[:-1][same] * K + c[1:][same]
        cnt = np.bincount(pair, minlength=K * K).astype(np.int64)
        nz = np.flatnonzero(cnt)
        return pa.table({
            "prev_type": pa.array([types[int(p) // K] for p in nz],
                                  pa.string()),
            "next_type": pa.array([types[int(p) % K] for p in nz],
                                  pa.string()),
            "n": pa.array(cnt[nz])})

    schema = pa.schema([("prev_type", pa.string()),
                        ("next_type", pa.string()),
                        ("n", pa.int64())])
    partials = partition_apply(
        _read(sf_dir, "events",
              ["user_id", "event_type", "ts", "event_id"])
        .map_batches(prep, batch_format="pyarrow"),
        "user_id", fold, schema)
    return combine(partials, ["prev_type", "next_type"], {"n": "sum"},
                   schema)


_Q10_LO = np.datetime64("1996-01-01")
_Q10_HI = np.datetime64("1996-04-01")


def q_returned_item_report(sf_dir):
    """TPC-H Q10 shape — returned-item reporting: per customer the
    lost revenue from 'R'-flagged lineitems on Q1-1996 orders, top 20
    by (revenue DESC, custkey), with the customer's nation attached.
    Revenue integer-exact (the shared floor(x·100+0.5) convention).

    Scale shape: two sort-free co-partitioned exchanges
    (`partition_apply`): (1) window-pruned orders + PER-BATCH-combined
    'R' revenue partials on orderkey → (custkey, rev) pairs pre-summed
    per partition; (2) those + customer rows on custkey → one
    joined row per scoring customer, nation resolved from a ≤25-entry
    broadcast map in the closure.  The final rank sorts an
    already-customer-level table and cuts at 20."""
    import pyarrow.parquet as pq

    from .neardup import partition_apply

    ntab = pq.read_table(f"{sf_dir}/nation.parquet",
                         columns=["n_nationkey", "n_name"])
    n_name = dict(zip(ntab["n_nationkey"].to_pylist(),
                      ntab["n_name"].to_pylist()))

    def order_rows(b: pa.Table) -> pa.Table:
        d = b["o_orderdate"].to_numpy()
        m = (d >= _Q10_LO) & (d < _Q10_HI)
        k = b["o_orderkey"].to_numpy()[m].astype(np.int64)
        c = b["o_custkey"].to_numpy()[m].astype(np.int64)
        return pa.table({"k": pa.array(k), "v": pa.array(c),
                         "kind": pa.array(np.zeros(len(k), np.int8))})

    def rev_partials(b: pa.Table) -> pa.Table:
        import pandas as pd
        m = (pc.equal(b["l_returnflag"], "R")).to_numpy(
            zero_copy_only=False)
        k = b["l_orderkey"].to_numpy()[m].astype(np.int64)
        price = b["l_extendedprice"].to_numpy()[m]
        disc = b["l_discount"].to_numpy()[m]
        rev = (np.floor(price * 100.0 + 0.5).astype(np.int64)
               * (100 - np.floor(disc * 100.0 + 0.5).astype(np.int64)))
        g = (pd.DataFrame({"k": k, "rev": rev})
             .groupby("k", sort=False)["rev"].sum().reset_index())
        ks = g["k"].to_numpy(np.int64)
        return pa.table({"k": pa.array(ks),
                         "v": pa.array(g["rev"].to_numpy(np.int64)),
                         "kind": pa.array(np.ones(len(ks), np.int8))})

    def join_orders(g: pa.Table) -> pa.Table:
        import pandas as pd
        kind = g["kind"].to_numpy()
        k = g["k"].to_numpy()
        v = g["v"].to_numpy()
        cust = pd.Series(v[kind == 0], index=k[kind == 0])
        df = pd.DataFrame({"k": k[kind == 1], "rev": v[kind == 1]})
        df["cust"] = cust.reindex(df["k"].to_numpy()).to_numpy()
        df = df[df["cust"].notna()]
        out = (df.assign(cust=df["cust"].astype("int64"))
               .groupby("cust", sort=False)["rev"].sum().reset_index())
        return pa.table({
            "k": pa.array(out["cust"].to_numpy(np.int64)),
            "v": pa.array(out["rev"].to_numpy(np.int64)),
            "name": pa.array([""] * len(out), pa.string()),
            "nk": pa.array(np.full(len(out), -1, np.int64)),
            "kind": pa.array(np.ones(len(out), np.int8))})

    def cust_rows(b: pa.Table) -> pa.Table:
        bal = b["c_acctbal"].to_numpy()
        return pa.table({
            "k": b["c_custkey"].cast(pa.int64()),
            "v": pa.array(np.floor(bal * 100.0 + 0.5).astype(np.int64)),
            "name": b["c_name"].cast(pa.string()),
            "nk": b["c_nationkey"].cast(pa.int64()),
            "kind": pa.array(np.zeros(len(bal), np.int8))})

    def join_cust(g: pa.Table) -> pa.Table:
        import pandas as pd
        kind = g["kind"].to_numpy()
        k = g["k"].to_numpy()
        v = g["v"].to_numpy()
        cust = pd.DataFrame({
            "bal": v[kind == 0],
            "name": np.asarray(g["name"].to_pylist(),
                               dtype=object)[kind == 0],
            "nk": g["nk"].to_numpy()[kind == 0]},
            index=k[kind == 0])
        df = pd.DataFrame({"k": k[kind == 1], "rev": v[kind == 1]})
        df = (df.groupby("k", sort=False)["rev"].sum().reset_index()
              .join(cust, on="k"))
        df = df[df["name"].notna()]
        return pa.table({
            "c_custkey": pa.array(df["k"].to_numpy(np.int64)),
            "c_name": pa.array(list(df["name"]), pa.string()),
            "revenue_c4": pa.array(df["rev"].to_numpy(np.int64)),
            "c_acctbal_c": pa.array(df["bal"].to_numpy(np.int64)),
            "n_name": pa.array(
                [n_name.get(int(x), "") for x in df["nk"]],
                pa.string())})

    tagged1 = (_read(sf_dir, "orders",
                     ["o_orderkey", "o_custkey", "o_orderdate"])
               .map_batches(order_rows, batch_format="pyarrow")
               .union(_read(sf_dir, "lineitem",
                            ["l_orderkey", "l_returnflag",
                             "l_extendedprice", "l_discount"])
                      .map_batches(rev_partials,
                                   batch_format="pyarrow")))
    mid_schema = pa.schema([("k", pa.int64()), ("v", pa.int64()),
                            ("name", pa.string()), ("nk", pa.int64()),
                            ("kind", pa.int8())])
    by_cust = partition_apply(tagged1, "k", join_orders, mid_schema)
    tagged2 = by_cust.union(
        _read(sf_dir, "customer",
              ["c_custkey", "c_name", "c_acctbal", "c_nationkey"])
        .map_batches(cust_rows, batch_format="pyarrow"))
    out_schema = pa.schema([
        ("c_custkey", pa.int64()), ("c_name", pa.string()),
        ("revenue_c4", pa.int64()), ("c_acctbal_c", pa.int64()),
        ("n_name", pa.string())])
    return (partition_apply(tagged2, "k", join_cust, out_schema)
            .sort(["revenue_c4", "c_custkey"], descending=[True, False])
            .limit(20))


_Q14_LO = np.datetime64("1996-03-01")
_Q14_HI = np.datetime64("1996-04-01")


def q_promo_revenue_share(sf_dir):
    """TPC-H Q14 shape — promo revenue share: of all March-1996
    lineitem revenue, the integer ppm that came from PROMO-type parts.
    Emitting (promo_c4, total_c4, share_ppm) keeps every column an
    exact int64; the share divides the exact sums once at the end
    with Python arbitrary-precision ints (no float drift, no int64
    overflow at any scale).

    Scale shape: ONE sort-free co-partitioned exchange on partkey —
    lineitem pre-sums revenue per partkey inside each batch (the
    combiner bounds exchange volume by distinct parts touched, not
    rows), part contributes (partkey, is_promo) — each partition
    folds to a single 2-int row, and the driver adds up one tiny row
    per partition.  part is NOT broadcast: it scales with SF, so it
    rides the same hash exchange as the facts."""
    from .neardup import partition_apply

    def li_side(b: pa.Table) -> pa.Table:
        import pandas as pd
        d = b["l_shipdate"].to_numpy()
        m = (d >= _Q14_LO) & (d < _Q14_HI)
        k = b["l_partkey"].to_numpy()[m].astype(np.int64)
        price = b["l_extendedprice"].to_numpy()[m]
        disc = b["l_discount"].to_numpy()[m]
        rev = (np.floor(price * 100.0 + 0.5).astype(np.int64)
               * (100 - np.floor(disc * 100.0 + 0.5).astype(np.int64)))
        g = (pd.DataFrame({"k": k, "rev": rev})
             .groupby("k", sort=False)["rev"].sum().reset_index())
        ks = g["k"].to_numpy(np.int64)
        return pa.table({"k": pa.array(ks),
                         "v": pa.array(g["rev"].to_numpy(np.int64)),
                         "kind": pa.array(np.ones(len(ks), np.int8))})

    def part_side(b: pa.Table) -> pa.Table:
        promo = (pc.equal(b["p_type"], "PROMO")
                 .to_numpy(zero_copy_only=False).astype(np.int64))
        return pa.table({"k": b["p_partkey"].cast(pa.int64()),
                         "v": pa.array(promo),
                         "kind": pa.array(np.zeros(len(promo),
                                                   np.int8))})

    def exact_sum(a: np.ndarray) -> int:
        # chunked int64 partials folded with Python ints: a per-row
        # bound of ~1e11 keeps a 2^20-row chunk under 2^63, and the
        # cross-chunk fold is arbitrary-precision — no silent wrap at
        # ANY partition size (np.sum alone wraps past ~1e8 rows)
        step = 1 << 20
        return sum(int(a[i:i + step].sum())
                   for i in range(0, len(a), step))

    def fold(g: pa.Table) -> pa.Table:
        import pandas as pd
        kind = g["kind"].to_numpy()
        k = g["k"].to_numpy()
        v = g["v"].to_numpy()
        promo = pd.Series(v[kind == 0], index=k[kind == 0])
        rev = v[kind == 1]
        isp = promo.reindex(k[kind == 1]).fillna(0).to_numpy(np.int64)
        return pa.table({
            "promo_c4": pa.array([exact_sum(rev * isp)], pa.int64()),
            "total_c4": pa.array([exact_sum(rev)], pa.int64())})

    tagged = (_read(sf_dir, "lineitem",
                    ["l_partkey", "l_extendedprice", "l_discount",
                     "l_shipdate"])
              .map_batches(li_side, batch_format="pyarrow")
              .union(_read(sf_dir, "part", ["p_partkey", "p_type"])
                     .map_batches(part_side, batch_format="pyarrow")))
    schema = pa.schema([("promo_c4", pa.int64()),
                        ("total_c4", pa.int64())])
    parts = partition_apply(tagged, "k", fold, schema).take_all()
    promo = sum(int(r["promo_c4"]) for r in parts)   # exact python ints
    total = sum(int(r["total_c4"]) for r in parts)
    share = (promo * 1_000_000) // total if total else 0
    return pa.table({"promo_c4": pa.array([promo], pa.int64()),
                     "total_c4": pa.array([total], pa.int64()),
                     "share_ppm": pa.array([share], pa.int64())})


_Q18_MIN_QTY_C = 30_000           # sum(quantity) > 300, in qty-cents


def q_large_order_customers(sf_dir):
    """TPC-H Q18 shape — large-volume-order customers: orders whose
    total lineitem quantity exceeds 300, with the owning customer,
    top 100 by (totalprice DESC, orderdate).  Quantities and money in
    exact integer cents.

    Scale shape: lineitem pre-sums quantity per orderkey inside each
    batch, ONE orderkey hash exchange joins those partials with the
    order rows and applies the HAVING cut (output shrinks to the few
    qualifying orders), a second tiny custkey exchange attaches
    customer names; the rank sorts only qualifying orders."""
    from .neardup import partition_apply

    def qty_partials(b: pa.Table) -> pa.Table:
        import pandas as pd
        k = b["l_orderkey"].to_numpy().astype(np.int64)
        q = np.floor(b["l_quantity"].to_numpy() * 100.0
                     + 0.5).astype(np.int64)
        g = (pd.DataFrame({"k": k, "q": q})
             .groupby("k", sort=False)["q"].sum().reset_index())
        ks = g["k"].to_numpy(np.int64)
        return pa.table({"k": pa.array(ks),
                         "a": pa.array(g["q"].to_numpy(np.int64)),
                         "b": pa.array(np.zeros(len(ks), np.int64)),
                         "kind": pa.array(np.ones(len(ks), np.int8)),
                         "cust": pa.array(np.zeros(len(ks),
                                                   np.int64))})

    def order_rows(b: pa.Table) -> pa.Table:
        price_c = np.floor(b["o_totalprice"].to_numpy() * 100.0
                           + 0.5).astype(np.int64)
        odate = (b["o_orderdate"].to_numpy()
                 .astype("datetime64[us]").astype(np.int64))
        return pa.table({"k": b["o_orderkey"].cast(pa.int64()),
                         "a": pa.array(price_c),
                         "b": pa.array(odate),
                         "kind": pa.array(np.zeros(len(price_c),
                                                   np.int8)),
                         "cust": b["o_custkey"].cast(pa.int64())})

    def join_orders(g: pa.Table) -> pa.Table:
        import pandas as pd
        kind = g["kind"].to_numpy()
        k = g["k"].to_numpy()
        a = g["a"].to_numpy()
        qty = (pd.DataFrame({"k": k[kind == 1], "q": a[kind == 1]})
               .groupby("k", sort=False)["q"].sum())
        df = pd.DataFrame({"k": k[kind == 0], "price_c": a[kind == 0],
                           "odate_us": g["b"].to_numpy()[kind == 0],
                           "cust": g["cust"].to_numpy()[kind == 0]})
        df["q"] = qty.reindex(df["k"].to_numpy()).to_numpy()
        df = df[df["q"].notna() & (df["q"] > _Q18_MIN_QTY_C)]
        return pa.table({
            "k": pa.array(df["cust"].to_numpy(np.int64)),
            "o_orderkey": pa.array(df["k"].to_numpy(np.int64)),
            "o_orderdate_us": pa.array(df["odate_us"]
                                       .to_numpy(np.int64)),
            "totalprice_c": pa.array(df["price_c"].to_numpy(np.int64)),
            "sum_qty_c": pa.array(df["q"].to_numpy(np.int64)),
            "name": pa.array([""] * len(df), pa.string()),
            "kind": pa.array(np.ones(len(df), np.int8))})

    def cust_rows(b: pa.Table) -> pa.Table:
        n = len(b)
        z = pa.array(np.zeros(n, np.int64))
        return pa.table({"k": b["c_custkey"].cast(pa.int64()),
                         "o_orderkey": z, "o_orderdate_us": z,
                         "totalprice_c": z, "sum_qty_c": z,
                         "name": b["c_name"].cast(pa.string()),
                         "kind": pa.array(np.zeros(n, np.int8))})

    def join_cust(g: pa.Table) -> pa.Table:
        import pandas as pd
        kind = g["kind"].to_numpy()
        k = g["k"].to_numpy()
        names = pd.Series(
            np.asarray(g["name"].to_pylist(), dtype=object)[kind == 0],
            index=k[kind == 0])
        m = kind == 1
        df = pd.DataFrame({
            "c_custkey": k[m],
            "o_orderkey": g["o_orderkey"].to_numpy()[m],
            "o_orderdate_us": g["o_orderdate_us"].to_numpy()[m],
            "totalprice_c": g["totalprice_c"].to_numpy()[m],
            "sum_qty_c": g["sum_qty_c"].to_numpy()[m]})
        df["c_name"] = names.reindex(df["c_custkey"].to_numpy()) \
            .to_numpy()
        df = df[df["c_name"].notna()]
        return pa.table({
            "c_custkey": pa.array(df["c_custkey"].to_numpy(np.int64)),
            "c_name": pa.array(list(df["c_name"]), pa.string()),
            "o_orderkey": pa.array(df["o_orderkey"]
                                   .to_numpy(np.int64)),
            "o_orderdate_us": pa.array(df["o_orderdate_us"]
                                       .to_numpy(np.int64)),
            "totalprice_c": pa.array(df["totalprice_c"]
                                     .to_numpy(np.int64)),
            "sum_qty_c": pa.array(df["sum_qty_c"]
                                  .to_numpy(np.int64))})

    tagged1 = (_read(sf_dir, "orders",
                     ["o_orderkey", "o_custkey", "o_orderdate",
                      "o_totalprice"])
               .map_batches(order_rows, batch_format="pyarrow")
               .union(_read(sf_dir, "lineitem",
                            ["l_orderkey", "l_quantity"])
                      .map_batches(qty_partials,
                                   batch_format="pyarrow")))
    mid_schema = pa.schema([
        ("k", pa.int64()), ("o_orderkey", pa.int64()),
        ("o_orderdate_us", pa.int64()), ("totalprice_c", pa.int64()),
        ("sum_qty_c", pa.int64()), ("name", pa.string()),
        ("kind", pa.int8())])
    hits = partition_apply(tagged1, "k", join_orders, mid_schema)
    tagged2 = hits.union(_read(sf_dir, "customer",
                               ["c_custkey", "c_name"])
                         .map_batches(cust_rows,
                                      batch_format="pyarrow"))
    out_schema = pa.schema([
        ("c_custkey", pa.int64()), ("c_name", pa.string()),
        ("o_orderkey", pa.int64()), ("o_orderdate_us", pa.int64()),
        ("totalprice_c", pa.int64()), ("sum_qty_c", pa.int64())])
    return (partition_apply(tagged2, "k", join_cust, out_schema)
            .sort(["totalprice_c", "o_orderdate_us", "o_orderkey"],
                  descending=[True, False, False])
            .limit(100))


ORACLES: dict[str, str] = {
    "local_supplier_volume": r"""
        SELECT n_name,
               CAST(sum(CAST(floor(l_extendedprice * 100.0 + 0.5)
                             AS BIGINT)
                        * (100 - CAST(floor(l_discount * 100.0 + 0.5)
                                      AS BIGINT))) AS BIGINT)
                   AS revenue_c4
        FROM customer, orders, lineitem, supplier, nation, region
        WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
          AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
          AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
          AND r_name = 'ASIA'
          AND o_orderdate >= TIMESTAMP '1996-01-01'
          AND o_orderdate < TIMESTAMP '1998-01-01'
        GROUP BY n_name
    """,
    "pricing_summary": r"""
        SELECT l_returnflag, l_linestatus,
               CAST(sum(CAST(floor(l_quantity * 100.0 + 0.5) AS BIGINT))
                    AS BIGINT) AS sum_qty,
               CAST(sum(CAST(floor(l_extendedprice * 100.0 + 0.5)
                             AS BIGINT)) AS BIGINT) AS sum_base_c,
               CAST(sum(CAST(floor(l_extendedprice * 100.0 + 0.5)
                             AS BIGINT)
                        * (100 - CAST(floor(l_discount * 100.0 + 0.5)
                                      AS BIGINT))) AS BIGINT)
                   AS sum_disc_c4,
               CAST(sum(CAST(floor(l_extendedprice * 100.0 + 0.5)
                             AS BIGINT)
                        * (100 - CAST(floor(l_discount * 100.0 + 0.5)
                                      AS BIGINT))
                        * (100 + CAST(floor(l_tax * 100.0 + 0.5)
                                      AS BIGINT))) AS BIGINT)
                   AS sum_charge_c6,
               count(*) AS n_rows
        FROM lineitem
        WHERE l_shipdate <= TIMESTAMP '2000-12-01'
        GROUP BY l_returnflag, l_linestatus
    """,
    "order_priority_count": r"""
        SELECT o_orderpriority, count(*) AS n_orders
        FROM orders
        WHERE o_orderdate >= TIMESTAMP '1996-01-01'
          AND o_orderdate < TIMESTAMP '1999-01-01'
          AND EXISTS (SELECT 1 FROM lineitem
                      WHERE l_orderkey = o_orderkey
                        AND l_shipdate > o_orderdate)
        GROUP BY o_orderpriority
    """,
    "shipping_priority": r"""
        SELECT l_orderkey,
               CAST(sum(CAST(floor(l_extendedprice * 100.0 + 0.5)
                             AS BIGINT)
                        * (100 - CAST(floor(l_discount * 100.0 + 0.5)
                                      AS BIGINT))) AS BIGINT)
                   AS revenue_c4
        FROM customer
        JOIN orders ON c_custkey = o_custkey
        JOIN lineitem ON l_orderkey = o_orderkey
        WHERE c_mktsegment = 'BUILDING'
          AND o_orderdate < TIMESTAMP '1998-06-01'
          AND l_shipdate > TIMESTAMP '1998-06-01'
        GROUP BY l_orderkey
        ORDER BY revenue_c4 DESC, l_orderkey
        LIMIT 10
    """,
    "status_count": """
        SELECT o_orderstatus, count(*) AS n FROM orders GROUP BY o_orderstatus
    """,
    "load_tasks_scan": """
        SELECT l_orderkey, l_partkey, l_quantity FROM lineitem
        WHERE l_returnflag = 'R'
    """,
    "point_lookup": """
        SELECT o_orderkey, o_custkey, o_orderstatus FROM orders
        WHERE o_orderkey IN (1, 7, 42, 4242)
    """,
    "task_verify": """
        SELECT event_id, user_id, event_type FROM events
        WHERE value IS NOT NULL AND user_id >= 0 AND event_type <> ''
    """,
    "merge_on_put": """
        SELECT user_id,
               CAST(round(max(value) * 100) AS BIGINT) AS max_value_cents,
               min(epoch_us(ts)) AS min_ts_us
        FROM events GROUP BY user_id
    """,
    "priority_topk": """
        SELECT o_orderkey,
               CAST(round(o_totalprice * 100) AS BIGINT) AS price_cents
        FROM orders ORDER BY price_cents DESC, o_orderkey LIMIT 100
    """,
    "time_order": """
        SELECT event_id, epoch_us(ts) AS ts_us FROM events
        ORDER BY ts_us, event_id LIMIT 100
    """,
    "select_quota": """
        WITH w AS (SELECT CAST(c_nationkey AS BIGINT) AS c_nationkey,
                          count(*) AS w FROM customer
                   GROUP BY c_nationkey),
             t AS (SELECT CAST(sum(w) AS BIGINT) AS total FROM w)
        SELECT c_nationkey, w,
               CAST(CASE WHEN total < 1 OR w < 1 THEN 100
                    ELSE least(greatest((w * 1000) // total, 100), 333)
               END AS BIGINT) AS quota
        FROM w, t
    """,
    "retry_ladder": """
        SELECT CAST(l_linenumber - 1 AS BIGINT) AS retried,
               CAST(CASE l_linenumber - 1
                    WHEN 0 THEN 30 WHEN 1 THEN 3600
                    WHEN 2 THEN 21600 WHEN 3 THEN 43200
                    ELSE 86400 END AS BIGINT) AS delay,
               count(*) AS n
        FROM lineitem GROUP BY 1, 2
    """,
    "topn_per_group": """
        SELECT o_custkey, o_orderkey FROM orders
        QUALIFY row_number() OVER (
            PARTITION BY o_custkey
            ORDER BY o_totalprice DESC, o_orderkey) <= 3
    """,
    "active_tasks": """
        SELECT event_id, epoch_us(ts) AS ts_us FROM events
        ORDER BY ts_us DESC, event_id DESC LIMIT 100
    """,
    "result_paging": """
        SELECT event_id, user_id FROM events
        ORDER BY event_id LIMIT 50 OFFSET 100
    """,
    "hash_join_revenue": """
        SELECT CAST(c_nationkey AS BIGINT) AS c_nationkey,
               count(*) AS n_orders,
               CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT)
                   AS revenue_cents
        FROM orders JOIN customer ON o_custkey = c_custkey
        GROUP BY c_nationkey
    """,
    "anti_join": """
        SELECT o_orderkey FROM orders
        WHERE NOT EXISTS (SELECT 1 FROM lineitem
                          WHERE l_orderkey = o_orderkey)
    """,
    "semi_join": """
        SELECT o_orderkey FROM orders
        WHERE EXISTS (SELECT 1 FROM lineitem WHERE l_orderkey = o_orderkey)
    """,
    "windowed_counter": """
        SELECT epoch_us(ts) // 300000000 AS win, count(*) AS n,
               CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT)
                   AS value_cents
        FROM events GROUP BY win
    """,
    "common_fields": """
        WITH total AS (SELECT count(*) AS c FROM events),
             keys AS (SELECT unnest(json_keys(props)) AS key FROM events)
        SELECT key FROM keys GROUP BY key
        HAVING count(*) = (SELECT c FROM total)
    """,
    "canonical_tasks": """
        SELECT event_id,
               'http://site' || user_id || '.test/page/' || event_id AS url,
               md5('http://site' || user_id || '.test/page/' || event_id)
                   AS taskid
        FROM events
    """,
    "doc_fingerprint": """
        SELECT doc_id, md5(text) AS fp FROM documents
    """,
    "asof_join": """
        WITH p AS (SELECT event_id, user_id, ts FROM events
                   WHERE event_type = 'purchase'
                   QUALIFY row_number() OVER (
                       PARTITION BY user_id, ts
                       ORDER BY event_id DESC) = 1),
             c AS (SELECT event_id, user_id, ts FROM events
                   WHERE event_type = 'click')
        SELECT c.event_id, p.event_id AS purchase_id
        FROM c ASOF JOIN p
          ON c.user_id = p.user_id AND c.ts >= p.ts
    """,
    "range_join_count": """
        WITH b AS (SELECT event_id,
                          CAST(floor(value * 1000) AS BIGINT) * 100 AS lo
                   FROM events)
        SELECT b.event_id,
               CAST(count(o.o_orderkey) AS BIGINT) AS n_orders_in_band
        FROM b LEFT JOIN orders o
          ON CAST(round(o.o_totalprice * 100) AS BIGINT) >= b.lo
         AND CAST(round(o.o_totalprice * 100) AS BIGINT) < b.lo + 500000
        GROUP BY b.event_id
    """,
    "sliding_window": """
        SELECT (epoch_us(ts) // 60000000) - k.k AS win_start_min,
               count(*) AS n
        FROM events CROSS JOIN (SELECT unnest(range(5)) AS k) k
        GROUP BY 1
    """,
    "session_windows": """
        WITH e AS (SELECT user_id, epoch_us(ts) AS t FROM events),
        o AS (SELECT user_id, t,
                     CASE WHEN lag(t) OVER w IS NULL
                          OR t - lag(t) OVER w > 1800000000
                     THEN 1 ELSE 0 END AS brk
              FROM e WINDOW w AS (PARTITION BY user_id ORDER BY t)),
        s AS (SELECT user_id, t,
                     sum(brk) OVER (PARTITION BY user_id ORDER BY t
                                    ROWS UNBOUNDED PRECEDING) AS session_id
              FROM o)
        SELECT user_id, CAST(session_id AS BIGINT) AS session_id,
               count(*) AS n_events, min(t) AS start_us, max(t) AS end_us
        FROM s GROUP BY 1, 2
    """,
    "hash_sample": """
        SELECT event_id, user_id FROM events
        WHERE ('0x' || substr(md5(CAST(event_id AS VARCHAR)), 1, 16))
              ::UBIGINT % 100 < 10
    """,
    "top_event_type_per_user": """
        WITH c AS (SELECT user_id, event_type, count(*) AS n
                   FROM events GROUP BY 1, 2)
        SELECT user_id, event_type AS top_type, n FROM (
            SELECT user_id, event_type, n,
                   row_number() OVER (PARTITION BY user_id
                                      ORDER BY n DESC, event_type)
                       AS rn
            FROM c) WHERE rn = 1
    """,
    "status_priority_pivot": """
        SELECT o_orderstatus,
               CAST(count(*) FILTER (o_orderpriority = '1-URGENT')
                    AS BIGINT) AS n_p1,
               CAST(count(*) FILTER (o_orderpriority = '2-HIGH')
                    AS BIGINT) AS n_p2,
               CAST(count(*) FILTER (o_orderpriority = '3-MEDIUM')
                    AS BIGINT) AS n_p3,
               CAST(count(*) FILTER (o_orderpriority =
                                     '4-NOT SPECIFIED')
                    AS BIGINT) AS n_p4,
               CAST(count(*) FILTER (o_orderpriority = '5-LOW')
                    AS BIGINT) AS n_p5,
               count(*) AS n_total
        FROM orders GROUP BY o_orderstatus
    """,
    "customer_running_total": """
        SELECT o_orderkey, CAST(o_custkey AS BIGINT) AS o_custkey,
               epoch_us(o_orderdate) AS odate_us,
               CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT))
                    OVER (PARTITION BY o_custkey
                          ORDER BY o_orderdate, o_orderkey
                          ROWS UNBOUNDED PRECEDING) AS BIGINT)
                   AS running_cents
        FROM orders
    """,
    "value_outliers_mad": """
        WITH t AS (SELECT event_id, event_type,
                          CAST(round(value * 100) AS BIGINT) AS v
                   FROM events),
        med AS (SELECT event_type, v AS med FROM (
                    SELECT event_type, v,
                           row_number() OVER (PARTITION BY event_type
                                              ORDER BY v) AS rn,
                           count(*) OVER (PARTITION BY event_type) AS n
                    FROM t) WHERE rn = (n + 1) // 2),
        d AS (SELECT t.event_id, t.event_type, t.v, med.med,
                     abs(t.v - med.med) AS ad
              FROM t JOIN med USING (event_type)),
        mad AS (SELECT event_type, ad AS mad FROM (
                    SELECT event_type, ad,
                           row_number() OVER (PARTITION BY event_type
                                              ORDER BY ad) AS rn,
                           count(*) OVER (PARTITION BY event_type) AS n
                    FROM d) WHERE rn = (n + 1) // 2)
        SELECT d.event_id, d.event_type, d.v AS value_cents,
               d.med AS med_cents, mad.mad AS mad_cents
        FROM d JOIN mad USING (event_type)
        WHERE d.ad > 5 * mad.mad
    """,
    "event_debounce": """
        WITH s AS (SELECT event_id, user_id, event_type,
                          epoch_us(ts) AS t,
                          lag(epoch_us(ts)) OVER (
                              PARTITION BY user_id, event_type
                              ORDER BY epoch_us(ts), event_id) AS pt
                   FROM events)
        SELECT event_id, user_id, event_type, t AS ts_us
        FROM s WHERE pt IS NULL OR t - pt > 21600000000
    """,
    "customer_order_activity": """
        SELECT c_custkey, CAST(c_nationkey AS BIGINT) AS c_nationkey,
               CAST(count(o_orderkey) AS BIGINT) AS n_orders,
               CAST(coalesce(sum(CAST(round(o_totalprice * 100)
                                      AS BIGINT)), 0) AS BIGINT)
                   AS revenue_cents
        FROM customer LEFT JOIN orders ON c_custkey = o_custkey
        GROUP BY 1, 2
    """,
    "parts_never_ordered": """
        SELECT p_partkey, p_name FROM part
        WHERE NOT EXISTS (SELECT 1 FROM lineitem
                          WHERE l_partkey = p_partkey
                            AND l_shipdate >= TIMESTAMP '1996-03-01'
                            AND l_shipdate < TIMESTAMP '1996-04-01')
    """,
    "event_transition_matrix": """
        WITH s AS (SELECT user_id, event_type,
                          lead(event_type) OVER (
                              PARTITION BY user_id
                              ORDER BY epoch_us(ts), event_id)
                              AS next_type
                   FROM events)
        SELECT event_type AS prev_type, next_type, count(*) AS n
        FROM s WHERE next_type IS NOT NULL
        GROUP BY 1, 2
    """,
    "user_retention_cohorts": """
        WITH su AS (SELECT user_id,
                           min(epoch_us(ts)) // 86400000000
                               AS cohort_day
                    FROM events WHERE event_type = 'signup'
                    GROUP BY 1),
        act AS (SELECT DISTINCT user_id,
                       epoch_us(ts) // 86400000000 AS day
                FROM events)
        SELECT cohort_day, day - cohort_day AS offset_days,
               CAST(count(DISTINCT user_id) AS BIGINT) AS n_users
        FROM act JOIN su USING (user_id)
        WHERE day >= cohort_day
        GROUP BY 1, 2
    """,
    "window_p95_value": """
        WITH t AS (SELECT epoch_us(ts) // 3600000000 AS win,
                          CAST(round(value * 100) AS BIGINT) AS v
                   FROM events),
        r AS (SELECT win, v,
                     row_number() OVER (PARTITION BY win ORDER BY v)
                         AS rn,
                     count(*) OVER (PARTITION BY win) AS n
              FROM t)
        SELECT win, CAST(n AS BIGINT) AS n, v AS p95_cents
        FROM r WHERE rn = (n * 95 + 99) // 100
    """,
    "funnel_stages": f"""
        WITH s1 AS (SELECT user_id, min(epoch_us(ts)) AS r FROM events
                    WHERE event_type = 'signup' GROUP BY 1),
        s2 AS (SELECT e.user_id, min(epoch_us(e.ts)) AS r FROM events e
               JOIN s1 ON e.user_id = s1.user_id
               WHERE e.event_type = 'view'
                 AND epoch_us(e.ts) > s1.r
                 AND epoch_us(e.ts) <= s1.r + {_FUNNEL_WINDOW_US}
               GROUP BY 1),
        s3 AS (SELECT e.user_id, min(epoch_us(e.ts)) AS r FROM events e
               JOIN s2 ON e.user_id = s2.user_id
               WHERE e.event_type = 'click'
                 AND epoch_us(e.ts) > s2.r
                 AND epoch_us(e.ts) <= s2.r + {_FUNNEL_WINDOW_US}
               GROUP BY 1),
        s4 AS (SELECT e.user_id, min(epoch_us(e.ts)) AS r FROM events e
               JOIN s3 ON e.user_id = s3.user_id
               WHERE e.event_type = 'purchase'
                 AND epoch_us(e.ts) > s3.r
                 AND epoch_us(e.ts) <= s3.r + {_FUNNEL_WINDOW_US}
               GROUP BY 1)
        SELECT * FROM (VALUES
            (CAST(1 AS BIGINT), 'signup',
             (SELECT CAST(count(*) AS BIGINT) FROM s1)),
            (CAST(2 AS BIGINT), 'view',
             (SELECT CAST(count(*) AS BIGINT) FROM s2)),
            (CAST(3 AS BIGINT), 'click',
             (SELECT CAST(count(*) AS BIGINT) FROM s3)),
            (CAST(4 AS BIGINT), 'purchase',
             (SELECT CAST(count(*) AS BIGINT) FROM s4)))
            AS v(stage, event_type, n_users)
    """,
    "returned_item_report": r"""
        SELECT c_custkey, c_name,
               CAST(sum(CAST(floor(l_extendedprice * 100.0 + 0.5)
                             AS BIGINT)
                        * (100 - CAST(floor(l_discount * 100.0 + 0.5)
                                      AS BIGINT))) AS BIGINT)
                   AS revenue_c4,
               CAST(floor(c_acctbal * 100.0 + 0.5) AS BIGINT)
                   AS c_acctbal_c,
               n_name
        FROM customer
        JOIN orders ON c_custkey = o_custkey
        JOIN lineitem ON l_orderkey = o_orderkey
        JOIN nation ON c_nationkey = n_nationkey
        WHERE o_orderdate >= TIMESTAMP '1996-01-01'
          AND o_orderdate < TIMESTAMP '1996-04-01'
          AND l_returnflag = 'R'
        GROUP BY 1, 2, 4, 5
        ORDER BY revenue_c4 DESC, c_custkey
        LIMIT 20
    """,
    "promo_revenue_share": r"""
        WITH j AS (SELECT CAST(floor(l_extendedprice * 100.0 + 0.5)
                               AS BIGINT)
                          * (100 - CAST(floor(l_discount * 100.0 + 0.5)
                                        AS BIGINT)) AS rev,
                          p_type
                   FROM lineitem JOIN part ON l_partkey = p_partkey
                   WHERE l_shipdate >= TIMESTAMP '1996-03-01'
                     AND l_shipdate < TIMESTAMP '1996-04-01')
        SELECT CAST(sum(CASE WHEN p_type = 'PROMO' THEN rev
                             ELSE 0 END) AS BIGINT) AS promo_c4,
               CAST(sum(rev) AS BIGINT) AS total_c4,
               CAST(sum(CASE WHEN p_type = 'PROMO' THEN rev
                             ELSE 0 END) * 1000000
                    // sum(rev) AS BIGINT) AS share_ppm
        FROM j
    """,
    "large_order_customers": r"""
        SELECT c_custkey, c_name, o_orderkey,
               epoch_us(o_orderdate) AS o_orderdate_us,
               CAST(floor(o_totalprice * 100.0 + 0.5) AS BIGINT)
                   AS totalprice_c,
               CAST(sum(CAST(floor(l_quantity * 100.0 + 0.5)
                             AS BIGINT)) AS BIGINT) AS sum_qty_c
        FROM customer
        JOIN orders ON c_custkey = o_custkey
        JOIN lineitem ON o_orderkey = l_orderkey
        GROUP BY 1, 2, 3, 4, 5
        HAVING sum_qty_c > 30000
        ORDER BY totalprice_c DESC, o_orderdate_us, o_orderkey
        LIMIT 100
    """,
}

QUERIES = {
    "status_count": q_status_count,
    "load_tasks_scan": q_load_tasks_scan,
    "point_lookup": q_point_lookup,
    "task_verify": q_task_verify,
    "merge_on_put": q_merge_on_put,
    "priority_topk": q_priority_topk,
    "time_order": q_time_order,
    "select_quota": q_select_quota,
    "retry_ladder": q_retry_ladder,
    "topn_per_group": q_topn_per_group,
    "active_tasks": q_active_tasks,
    "result_paging": q_result_paging,
    "hash_join_revenue": q_hash_join_revenue,
    "shipping_priority": q_shipping_priority,
    "local_supplier_volume": q_local_supplier_volume,
    "pricing_summary": q_pricing_summary,
    "order_priority_count": q_order_priority_count,
    "anti_join": q_anti_join,
    "semi_join": q_semi_join,
    "windowed_counter": q_windowed_counter,
    "common_fields": q_common_fields,
    "canonical_tasks": q_canonical_tasks,
    "doc_fingerprint": q_doc_fingerprint,
    "asof_join": q_asof_join,
    "range_join_count": q_range_join_count,
    "sliding_window": q_sliding_window,
    "session_windows": q_session_windows,
    "hash_sample": q_hash_sample,
    "funnel_stages": q_funnel_stages,
    "event_transition_matrix": q_event_transition_matrix,
    "customer_order_activity": q_customer_order_activity,
    "event_debounce": q_event_debounce,
    "value_outliers_mad": q_value_outliers_mad,
    "customer_running_total": q_customer_running_total,
    "status_priority_pivot": q_status_priority_pivot,
    "top_event_type_per_user": q_top_event_type_per_user,
    "parts_never_ordered": q_parts_never_ordered,
    "user_retention_cohorts": q_user_retention_cohorts,
    "window_p95_value": q_window_p95_value,
    "returned_item_report": q_returned_item_report,
    "promo_revenue_share": q_promo_revenue_share,
    "large_order_customers": q_large_order_customers,
}
