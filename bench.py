#!/usr/bin/env python
"""Benchmark harness.

Headline: crawl throughput (URLs fetched/sec) on a deterministic
synthetic frontier over a 10^10-URL id space (seeded hash graph,
image+caption payloads), plus frontier ops/sec microbench and a
representative slice of the query suite over $GRAFT_SF_DIR.

Prints ONE JSON line:
  {"metric": ..., "value": <headline sec>, "unit": "sec",
   "queries": {...}, "sf": ..., "num_cpus": N, ...}

``--scaling`` re-runs the headline crawl in two fresh processes
(num_cpus=8 and 32 by default) on the same input and reports both
throughputs + scaling efficiency (BASELINE.md criterion).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))

# Worker processes inherit the raylet's env (set BEFORE ray.init), so
# glibc reads these at worker startup: keep large numpy/Arrow blocks on
# the free list instead of munmap-ing them — on this virtualized host
# first-touch page faults on fresh pages dominate cold batch kernels
# (measured 59.7 s fresh vs 0.9 s reused for the same expand kernel).
os.environ.setdefault("MALLOC_MMAP_THRESHOLD_", str(1 << 30))
os.environ.setdefault("MALLOC_TRIM_THRESHOLD_", str(1 << 30))
# route Arrow through the tuned glibc pool instead of jemalloc, whose
# madvise decay returns pages to the OS and repays first-touch faults
# on this host every cycle (measured 44.3 -> 38.6 ms/row on the
# page_scale=12 fetch+process kernel in a slow host phase)
os.environ.setdefault("ARROW_DEFAULT_MEMORY_POOL", "system")

CRAWL_ID_SPACE = 10 ** 10          # url id space (north rule scale)
CRAWL_ROUNDS = int(os.environ.get("GRAFT_BENCH_ROUNDS", "5"))
CRAWL_LOOP_LIMIT = int(os.environ.get("GRAFT_BENCH_LOOP_LIMIT",
                                      "12000"))  # 1 project = limit/3 per round
CRAWL_SEEDS = 64
# per-URL decode cost knob: 6 ≈ 7 ms/row (headline — the synthetic
# codec after the stored-deflate fix), 12 ≈ 36 ms/row (the real-JPEG
# decode cost band for multi-MPix pages; --scaling uses this so the
# measured N→4N efficiency reflects the production decode workload
# rather than the artificially cheap sandbox codec)
CRAWL_PAGE_SCALE = int(os.environ.get("GRAFT_BENCH_PAGE_SCALE", "6"))

QUERY_NAMES = ["status_count", "hash_join_revenue", "windowed_counter",
               "priority_topk", "dedup_exact", "token_count",
               "jaccard_near_dup", "embedding_knn",
               # round-2 additions (keep the r1 list above unchanged
               # for cross-round comparability)
               "simhash_near_dup", "asof_join", "session_windows",
               # round-4 addition: the flagship curation composition
               # (normalize/quality/lang/decontaminate/exact-dedup)
               "curate_corpus",
               # round-4 addition: C4 line dedup (election broadcast +
               # zero-text-shuffle rewrite pass)
               "line_dedup",
               # round-4 additions: DSIR importance selection (two
               # streaming passes, fixed-size model) and the multimodal
               # near-dup pair (decode actor pools + banding exchange)
               "dsir_select", "audio_fp_near_dup", "video_fp_near_dup",
               # round-4 addition: ExactSubstr rewrite (election
               # broadcast, zero text shuffle)
               "substring_dedup",
               # round-5 addition: the composed FineWeb gate — the
               # hottest (cheapest, most-run) pass of a 100 TB text
               # pipeline, four gates in one corpus read
               "fineweb_filter",
               # round-5 session-2 additions: the resumable shard
               # packer end-to-end (distributed prefix sum + range
               # exchange + partition writers + read-back) and the
               # fixed-point iterative op (5 exchange rounds)
               "wds_write_pack", "pagerank_urls",
               # round-5 session-3 additions: ordered-sequence funnel
               # (user-hash exchange + merge_asof), integer BM25-shaped
               # retrieval (two streaming scans), per-group HLL
               "funnel_stages", "tfidf_search", "hll_per_source"]


def init_ray():
    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=NUM_CPUS,
                 include_dashboard=False, logging_level="ERROR")
    import ray.data as rd
    ctx = rd.DataContext.get_current()
    ctx.enable_progress_bars = False
    import logging
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def bench_crawl() -> dict:
    """Fixed-round crawl over the 10^10 id space; measures sustained
    fetch throughput with the frontier growing every round."""
    from pyspider_ray.pipelines import CrawlConfig, CrawlPipeline
    out = f"/tmp/pyspider_ray_bench_{NUM_CPUS}"
    shutil.rmtree(out, ignore_errors=True)
    conc = max(2, NUM_CPUS - 2)    # data-plane workers; shards are num_cpus=0
    cfg = CrawlConfig(total=CRAWL_ID_SPACE, n_seeds=CRAWL_SEEDS,
                      n_shards=8, n_hosts=64, use_ray=True,
                      out_dir=out, loop_limit=CRAWL_LOOP_LIMIT,
                      batch_size=256, concurrency=conc,
                      page_scale=CRAWL_PAGE_SCALE,
                      persist_payload=False)
    pipe = CrawlPipeline(cfg)
    pipe.seed()
    warmup = int(os.environ.get("GRAFT_BENCH_WARMUP", "4"))
    for _ in range(warmup):        # warmup rounds (actor start, arena
        pipe.run_round()           # first-touch, ramp-up)
    os.sync()                      # flush prior dirty pages out of the timing
    time.sleep(1.0)
    t0 = time.perf_counter()
    for _ in range(CRAWL_ROUNDS):
        pipe.run_round()
    elapsed = time.perf_counter() - t0
    fetched = sum(m["fetched"] for m in pipe.metrics[warmup:])
    links = fetched * cfg.show
    return {"sec": elapsed, "fetched": fetched,
            "urls_per_sec": fetched / elapsed,
            "frontier_links_per_sec": links / elapsed}


def bench_frontier_ops() -> dict:
    """Pure frontier-state microbench (single shard, no Ray): columnar
    link ingest + select/status cycles — the scheduler-ops ceiling."""
    import numpy as np

    from pyspider_ray.state import FrontierShard, ProjectConfig, VirtualClock
    from pyspider_ray.functions.synthweb import mix64
    clock = VirtualClock(1.7e9)
    shard = FrontierShard(0, 1, clock=clock)
    shard.update_project(ProjectConfig("bench", rate=1e12, burst=1e12))
    n = 200_000
    ids = np.arange(n, dtype=np.uint64)
    hashes = mix64(ids, 1).astype(np.int64)
    taskids = [f"t{int(i):x}" for i in ids]
    urls = [f"u{int(i)}" for i in ids]
    hosts = ["h"] * n
    t0 = time.perf_counter()
    shard.on_follow_batch(taskids, hashes.tolist(), urls, hosts,
                          list(range(1, n + 1)), "bench", 0)
    ingest = time.perf_counter() - t0
    t1 = time.perf_counter()
    done = 0
    while done < n:
        tq = shard._queue("bench")
        tq.check_update()
        batch = [tq.get() for _ in range(min(1000, n - done))]
        shard.on_status_batch([
            {"taskid": t, "project": "bench",
             "track": {"process_ok": True}} for t in batch if t])
        done += len(batch)
    cycle = time.perf_counter() - t1
    return {"ingest_ops_per_sec": n / ingest,
            "select_done_ops_per_sec": n / cycle}


def bench_frontier_sweep() -> dict:
    """Select ops/sec as the ready heap grows 10^4 → 10^6: a flat curve
    shows the peek_ready/take select round is O(budget), not
    O(frontier) (the lazy heap-peek contract in task_queue.peek_n)."""
    from pyspider_ray.state.clock import VirtualClock
    from pyspider_ray.state.task_queue import TaskQueue
    out = {}
    for size in (10_000, 1_000_000):
        clock = VirtualClock(1.7e9)
        tq = TaskQueue(rate=0, burst=0, clock=clock)
        for i in range(size):
            tq.put(f"t{i:x}", priority=i % 7, sequence=i)
        budget, rounds = 100, 200
        t0 = time.perf_counter()
        npop = 0
        for _ in range(rounds):
            for tid, _, _ in tq.peek_ready(budget):
                tq.take(tid)
                npop += 1
        el = time.perf_counter() - t0
        out[f"select_ops_per_sec_at_{size}"] = npop / el
    return out


def bench_queries() -> tuple[dict, dict]:
    """Returns (per-leg seconds, per-leg fault-probe MB/s measured
    immediately BEFORE each leg) — the probe makes every number
    self-adjudicating against the host's memory-phase swings
    (BASELINE.md: 2-7x same-code deltas between phases)."""
    import __ray_entry__ as entry
    qs = entry.queries()
    out, probes = {}, {}
    # one untimed pass first so the suite measures compute + shuffle,
    # not Ray Data session warmup / parquet-reader startup
    qs["status_count"](SF_DIR).to_pandas()
    for name in QUERY_NAMES:
        probes[name] = fault_probe_fresh()
        t0 = time.perf_counter()
        res = qs[name](SF_DIR)
        if hasattr(res, "to_pandas"):
            res = res.to_pandas() if not hasattr(res, "materialize") \
                else res.materialize()
        out[name] = round(time.perf_counter() - t0, 3)
    return out, probes


def main() -> None:
    init_ray()
    probes = {"crawl_before": fault_probe_fresh()}
    crawl = bench_crawl()
    probes["crawl_after"] = fault_probe_fresh()
    crawl_only = os.environ.get("GRAFT_BENCH_CRAWL_ONLY") == "1"
    frontier = bench_frontier_ops() if not crawl_only else {}
    if not crawl_only:
        frontier.update(bench_frontier_sweep())
    if not crawl_only:
        queries, qprobes = bench_queries()
        probes.update(qprobes)
    else:
        queries = {}
    import ray
    ray.shutdown()
    result = {
        "metric": "crawl URLs fetched/sec (synthetic 10^10-id frontier, "
                  "image+caption payloads) + frontier ops/sec + query suite",
        "value": round(crawl["sec"], 3),
        "unit": "sec",
        "queries": queries,
        "sf": SF_DIR.rstrip("/").rsplit("sf", 1)[-1],
        "num_cpus": NUM_CPUS,
        "crawl": {k: round(v, 1) for k, v in crawl.items()},
        "frontier_ops": {k: round(v, 1) for k, v in frontier.items()},
        # per-leg host memory-phase probes (MB/s first-touch fault
        # bandwidth, fresh subprocess, measured just before each leg):
        # <~100 MB/s = slow phase, expect 2-7x inflated wall times
        "fault_probes_mb_per_s": probes,
    }
    print(json.dumps(result))


def fault_probe_mb_per_s(mb: int = 512) -> float:
    """Host memory-phase probe: bandwidth of first-touch page faults on
    ``mb`` MB of fresh pages.  This box alternates between ~multi-GB/s
    and ~50 MB/s phases (BASELINE.md); reporting the phase with every
    number makes runs self-adjudicating."""
    import numpy as np
    t0 = time.perf_counter()
    x = np.ones(mb * 131_072)      # mb MB of f64, faulted by the fill
    dt = time.perf_counter() - t0
    del x
    return round(mb / dt, 1)


def fault_probe_fresh(mb: int = 128) -> float:
    """``fault_probe_mb_per_s`` in a FRESH subprocess: the bench driver
    itself imports pyspider_ray, whose mallopt tuning keeps freed pages
    on the arena free list — an in-process second probe would measure
    arena reuse, not the host's first-touch fault bandwidth.  A clean
    interpreter faults genuinely fresh pages every time."""
    code = ("import time,numpy as np\n"
            "t0=time.perf_counter()\n"
            f"x=np.ones({mb}*131072)\n"
            f"print({mb}/(time.perf_counter()-t0))\n")
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_")}
    try:
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=120)
        return round(float(out.stdout.strip()), 1)
    except Exception:
        return -1.0


def cpu_parallel_probe(lo: int = 8, hi: int = 32) -> dict:
    """How much aggregate CPU the host actually delivers at the two
    widths RIGHT NOW: a fixed integer-spin workload mapped over lo and
    hi worker processes.  `ratio_hi_lo / (hi/lo)` is the ceiling any
    hi-vs-lo scaling measurement can reach at this instant — if the
    host only yields 3.2x more compute from 8→32 workers, a 0.80
    crawl efficiency IS perfect scaling.  Complements the fault probe
    (memory phases) and steal%% (hypervisor): this one sees external
    core contention, which shows neither steal jiffies nor slow
    faults."""
    code = (
        "import multiprocessing as mp, time, sys\n"
        "def spin(n):\n"
        "    x = 0\n"
        "    for i in range(n): x += i*i %% 7\n"
        "    return x\n"
        "def measure(w, per=2_000_000):\n"
        "    with mp.Pool(w) as p:\n"
        "        t0 = time.perf_counter()\n"
        "        p.map(spin, [per]*w*4)\n"
        "        return w*4*per/(time.perf_counter()-t0)/1e6\n"
        "print(measure(%d), measure(%d))\n" % (lo, hi))
    try:
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True,
                             check=True, timeout=180)
        m_lo, m_hi = (float(x) for x in out.stdout.split())
        return {"mops_lo": round(m_lo, 1), "mops_hi": round(m_hi, 1),
                "host_ceiling": round((m_hi / m_lo) / (hi / lo), 3)}
    except Exception:
        return {"mops_lo": -1.0, "mops_hi": -1.0, "host_ceiling": -1.0}


def _steal_snapshot() -> tuple[int, int]:
    """(steal_jiffies, total_jiffies) from /proc/stat — hypervisor CPU
    steal is the one host pathology the fault probe can't see."""
    try:
        with open("/proc/stat") as f:
            parts = f.readline().split()[1:]
        vals = [int(x) for x in parts]
        return (vals[7] if len(vals) > 7 else 0, sum(vals))
    except Exception:
        return (0, 0)


def scaling(lo: int = 8, hi: int = 32, reps: int | None = None) -> None:
    """Same job, two parallelism levels, fresh processes; the faster of
    ``reps`` runs per level damps single-box noise (disk writeback,
    stray background work).  Reps are interleaved (lo,hi,lo,hi,...) so
    a host memory-phase flip mid-run penalizes both levels evenly
    instead of landing wholly on one; each leg records the fault-probe
    bandwidth it ran at plus the hypervisor steal%% over the leg
    (steal-jiffy delta / total-jiffy delta).  The two levels default to
    8 and 32 but honor GRAFT_SCALING_LO / GRAFT_SCALING_HI — the
    criterion is N vs 4N, and on a steal-degraded host a 4->16 pair
    measures the same scaling law on cores the VM can actually
    deliver."""
    lo = int(os.environ.get("GRAFT_SCALING_LO", lo))
    hi = int(os.environ.get("GRAFT_SCALING_HI", hi))
    def run(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
                   GRAFT_BENCH_CRAWL_ONLY="1")
        # scaling-law workload (unless the caller pinned its own):
        # real-decode page cost (see CRAWL_PAGE_SCALE comment) and
        # 8k-URL rounds — the per-round driver barrier (follow fan-out
        # + select + politeness gate) is a fixed cost the reference's
        # single scheduler shares, so bigger rounds measure the
        # engine's scaling, not the barrier's
        env.setdefault("GRAFT_BENCH_PAGE_SCALE", "12")
        env.setdefault("GRAFT_BENCH_LOOP_LIMIT", "24000")
        env.setdefault("GRAFT_BENCH_ROUNDS", "3")
        env.setdefault("GRAFT_BENCH_WARMUP", "5")
        out = subprocess.run([sys.executable, os.path.abspath(__file__)],
                             env=env, capture_output=True, text=True,
                             check=True, cwd=os.path.dirname(
                                 os.path.abspath(__file__)))
        return json.loads(out.stdout.strip().splitlines()[-1])
    if reps is None:
        reps = int(os.environ.get("GRAFT_SCALING_REPS", "2"))
    runs: dict[int, list] = {lo: [], hi: []}
    probes = []
    steals: dict[int, list] = {lo: [], hi: []}
    for _ in range(reps):
        for ncpu in (lo, hi):
            probes.append(fault_probe_mb_per_s())
            s0, t0 = _steal_snapshot()
            runs[ncpu].append(run(ncpu))
            s1, t1 = _steal_snapshot()
            steals[ncpu].append(
                round(100.0 * (s1 - s0) / max(1, t1 - t0), 1))
    best = {n: min(rs, key=lambda r: r["value"]) for n, rs in runs.items()}
    t_lo, t_hi = best[lo]["value"], best[hi]["value"]
    eff = (t_lo / t_hi) / (hi / lo)
    print(json.dumps({
        f"sec_{lo}": t_lo, f"sec_{hi}": t_hi,
        f"urls_per_sec_{lo}": best[lo]["crawl"]["urls_per_sec"],
        f"urls_per_sec_{hi}": best[hi]["crawl"]["urls_per_sec"],
        "scaling_efficiency": round(eff, 3),
        "page_scale": int(os.environ.get("GRAFT_BENCH_PAGE_SCALE", "12")),
        "all_secs": {str(n): [r["value"] for r in rs]
                     for n, rs in runs.items()},
        "steal_pct": {str(n): ss for n, ss in steals.items()},
        "fault_probe_mb_per_s": probes + [fault_probe_mb_per_s()],
        # what the HOST scales at right now: the measurement's ceiling
        "cpu_probe": cpu_parallel_probe(lo, hi),
    }))


def _build_sf1_documents(out_dir: str = "/tmp/neardup_sf1_v3") -> str:
    # v3 path: carries the FULL documents schema (source/lang/n_chars
    # replicated verbatim) so every documents-table leg can rehearse
    # on it, not just (doc_id, text) consumers; v2/v1 cached tables on
    # older hosts must never be resurrected by the existence check
    """Deterministic 10x documents table for the near-dup scale
    rehearsal: replica r of every sf0.1 doc gets doc_id + r*10^5 and
    (for r > 0) every word PREFIXED with ``z{r}q`` — a bijective
    per-replica vocabulary transform.  Word-set Jaccard is invariant
    under a bijection, so each replica's INTERNAL near-dup structure
    is EXACTLY the sf0.1 structure (pairs == 10x, the O(n) yardstick),
    while cross-replica word sets are fully DISJOINT — no cross-replica
    MinHash band ever collides, so candidate volume scales linearly
    too.  (A previous salt-append design kept cross-replica Jaccard
    just below tau=0.9 — below the VERIFY threshold but far above the
    band-collision threshold, so every bucket went 10x denser and
    candidate pairs went ~100x: a quadratic rehearsal, not an O(n)
    one.  Banding collides on SIGNATURE similarity, not on the verify
    tau; a scale replica must be disjoint in signature space.)"""
    import pyarrow as pa
    import pyarrow.parquet as pq
    path = os.path.join(out_dir, "documents.parquet")
    if os.path.exists(path):
        return out_dir
    os.makedirs(out_dir, exist_ok=True)
    base = pq.read_table("/root/testdata/sf0.1/documents.parquet")
    texts = base["text"].to_pylist()
    extra = {c: base[c] for c in base.column_names
             if c not in ("doc_id", "text")}
    reps = []
    for r in range(10):
        if r == 0:
            rep_texts = texts
        else:
            p = f"z{r}q"
            rep_texts = [" ".join(p + w for w in t.split())
                         for t in texts]
        cols = {"doc_id": _replica_keys(base["doc_id"], r, 100_000),
                "text": pa.array(rep_texts, pa.string())}
        cols.update(extra)
        reps.append(pa.table(cols))
    tmp = path + ".tmp"
    pq.write_table(pa.concat_tables(reps), tmp)
    os.replace(tmp, path)
    return out_dir


def neardup_scale() -> None:
    """sf0.1-vs-10x near-dup exchange rehearsal (wall, pairs, probes) —
    evidence that the manual hash exchange scales ~O(n) in docs.  Each
    leg runs in a fresh process (its own Ray session + cold arenas)."""
    sf1 = _build_sf1_documents()
    legs = [("jaccard_near_dup", SF_DIR), ("jaccard_near_dup", sf1),
            ("simhash_near_dup", SF_DIR), ("simhash_near_dup", sf1)]
    out: dict = {"num_cpus": NUM_CPUS, "legs": []}
    for qname, sf in legs:
        probe = fault_probe_fresh()
        code = (
            "import json, time, ray\n"
            f"ray.init(address='local', num_cpus={NUM_CPUS}, "
            "include_dashboard=False, logging_level='ERROR')\n"
            "from pyspider_ray import training_queries as tq\n"
            # the rehearsal evidences the BANDING EXCHANGE's O(n): pin
            # both legs to it (the 10x replica table's prefixed vocab
            # trips the mask-class gate anyway, so leaving the fast
            # path on only at sf0.1 would compare different machines)
            "tq._MASK_CLASS_MAX_CLASSES = 0\n"
            "t0 = time.perf_counter()\n"
            f"res = tq.q_{qname}({sf!r})\n"
            "n = res.count()\n"
            "print(json.dumps({'sec': round(time.perf_counter()-t0, 2), "
            "'pairs': n}))\n"
            "ray.shutdown()\n")
        r = subprocess.run([sys.executable, "-c", code],
                           capture_output=True, text=True, check=True,
                           cwd=os.path.dirname(os.path.abspath(__file__)))
        leg = json.loads(r.stdout.strip().splitlines()[-1])
        leg.update({"query": qname,
                    "sf": "sf1(10x)" if sf == sf1 else "sf0.1",
                    "probe_mb_per_s": probe})
        out["legs"].append(leg)
    by = {(g["query"], g["sf"]): g for g in out["legs"]}
    for q in ("jaccard_near_dup", "simhash_near_dup"):
        a, b = by[(q, "sf0.1")], by[(q, "sf1(10x)")]
        out[f"{q}_wall_ratio_10x"] = round(b["sec"] / a["sec"], 2)
        out[f"{q}_pairs_ratio_10x"] = round(b["pairs"] /
                                            max(a["pairs"], 1), 2)
    print(json.dumps(out))


def _build_sf1_embeddings(out_dir: str = "/tmp/ann_sf1_v1") -> str:
    """Deterministic 10x embeddings table for the ANN scale
    rehearsal: replica r of every sf0.1 vector gets vec_id + r*10^5
    and its embedding cyclically rotated by r dimensions.  A rotation
    preserves the norm and each replica's INTERNAL geometry exactly
    (rotation is orthogonal → every within-replica cosine is
    unchanged), while cross-replica dot products sit at chance level —
    no replica's vectors preferentially land in another replica's LSH
    buckets, so bucket candidates grow linearly with the corpus, not
    quadratically.  The query set (the 20 smallest vec_ids) stays
    replica 0's, i.e. fixed queries vs a 10x corpus — the realistic
    scale shape."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    path = os.path.join(out_dir, "embeddings.parquet")
    if os.path.exists(path):
        return out_dir
    os.makedirs(out_dir, exist_ok=True)
    base = pq.read_table(os.path.join(SF_DIR, "embeddings.parquet"))
    E = np.array(base["embedding"].to_pylist(), dtype=np.float32)
    reps = []
    for r in range(10):
        reps.append(pa.table({
            "vec_id": _replica_keys(base["vec_id"], r, 10**5),
            "embedding": pa.array(list(np.roll(E, r, axis=1)),
                                  pa.list_(pa.float32())),
            "label": base["label"]}))
    pq.write_table(pa.concat_tables(reps), path)
    return out_dir


# legs whose input isn't the documents table: how --scale-op gets
# their 10x variant
_EMBEDDING_SCALE_OPS = {"ann_lsh_bucketed", "ann_lsh", "ann_ivf",
                        "embedding_knn", "embedding_near_dup",
                        "embedding_quantize", "embedding_project"}
_MEDIA_SCALE_OPS = {"audio_fp_near_dup", "video_fp_near_dup"}
# synthetic image-table legs: 10x via the corpus-size env knob
_IMG_SCALE_OPS = {"image_caption_gate": 600, "image_aspect_buckets": 600,
                  "image_quality_stats": 300, "image_exact_dedup": 600,
                  "clip_score_gate": 600, "caption_dup_filter": 600,
                  "image_curate": 300}


_TPCH_SCALE_OPS = {"shipping_priority", "pricing_summary",
                   "order_priority_count", "local_supplier_volume",
                   "returned_item_report", "promo_revenue_share",
                   "large_order_customers", "customer_order_activity",
                   "parts_never_ordered", "customer_running_total"}

_EVENTS_SCALE_OPS = {"funnel_stages", "asof_join", "session_windows",
                     "user_retention_cohorts", "window_p95_value",
                     "event_transition_matrix", "event_debounce",
                     "value_outliers_mad"}


def _replica_keys(col, r: int, shift: int):
    """Replica ``r`` of a key column: every key + r*shift.  A key at or
    above the shift would collide with the next replica's keys and
    silently break the exactly-10x structure, so it fails loudly."""
    import pyarrow as pa
    keys = col.to_numpy()
    if len(keys) and keys.max() >= shift:
        raise ValueError(f"key {keys.max()} does not fit under the "
                         f"replica shift {shift}")
    return pa.array(keys + r * shift)


def _build_sf1_events(out_dir: str = "/tmp/events_sf1_v1") -> str:
    """Deterministic 10x events table: replica r shifts user_id by
    r·2^20 and event_id by r·2^24 (ts/type/value/props verbatim), so
    every replica's per-user event sequences — and therefore its
    funnel/session/asof structure — are EXACTLY the sf0.1 structure
    repeated: result rows go 10x, the O(n) yardstick for the
    user-partitioned exchanges."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    path = os.path.join(out_dir, "events.parquet")
    if os.path.exists(path):
        return out_dir
    os.makedirs(out_dir, exist_ok=True)
    base = pq.read_table("/root/testdata/sf0.1/events.parquet")
    reps = []
    for r in range(10):
        cols = {}
        for c in base.column_names:
            if c == "user_id":
                cols[c] = _replica_keys(base[c], r, 1 << 20)
            elif c == "event_id":
                cols[c] = _replica_keys(base[c], r, 1 << 24)
            else:
                cols[c] = base[c]
        reps.append(pa.table(cols))
    tmp = path + ".tmp"
    pq.write_table(pa.concat_tables(reps), tmp)
    os.replace(tmp, path)
    return out_dir


def _build_sf1_tpch(out_dir: str = "/tmp/tpch_sf1_v2") -> str:
    """Deterministic 10x customer/orders/lineitem/part replicas with
    CONSISTENT key shifts (custkey + r*2^16, orderkey + r*2^20,
    partkey + r*2^18 across both sides of each join), all other
    columns verbatim — every replica's join/aggregate structure is
    exactly the sf0.1 structure, so group counts stay fixed while
    scan+exchange volume goes 10x (the O(n) yardstick for the
    reporting shapes).  v2: adds the part table (promo share leg)."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    done = os.path.join(out_dir, "_DONE")
    if os.path.exists(done):
        return out_dir
    os.makedirs(out_dir, exist_ok=True)
    C, O, P = 1 << 16, 1 << 20, 1 << 18
    shifts = {"c_custkey": C, "o_custkey": C,
              "o_orderkey": O, "l_orderkey": O,
              "p_partkey": P, "l_partkey": P}
    for t in ("customer", "orders", "lineitem", "part"):
        base = pq.read_table(f"/root/testdata/sf0.1/{t}.parquet")
        reps = []
        for r in range(10):
            cols = {}
            for c in base.column_names:
                if c in shifts:
                    cols[c] = _replica_keys(base[c], r, shifts[c])
                else:
                    cols[c] = base[c]
            reps.append(pa.table(cols))
        pq.write_table(pa.concat_tables(reps),
                       os.path.join(out_dir, f"{t}.parquet"))
    # dims ride verbatim (suppkey/nationkey are unshifted on the fact
    # side too, so every replica joins the same dimension rows)
    for t in ("supplier", "nation", "region"):
        shutil.copy(f"/root/testdata/sf0.1/{t}.parquet",
                    os.path.join(out_dir, f"{t}.parquet"))
    open(done, "w").write("ok")
    return out_dir


_ENV_SCALE_OPS = {"pagerank_urls": ("GRAFT_PR_NODES", 2000, "nodes"),
                  "html_text_extract": ("GRAFT_HTML_PAGES", 500, "pages"),
                  "web_curate": ("GRAFT_HTML_PAGES", 500, "pages")}


def op_scale(qname: str) -> None:
    """sf0.1-vs-10x rehearsal for any query: run it in two fresh
    processes on the base input and a 10x variant, report wall /
    output rows / probes and the 10x ratios.  ``--dsir-scale`` is the
    canonical use (fixed-size hashed-feature model → both passes pure
    streaming scans); ``--scale-op NAME`` runs any other leg (e.g.
    curate_corpus, lm_bigram_score).  The 10x variant by input table:
    documents legs read the replica table (replica shift 10^5 is
    divisible by every split modulus in use — 5, 50 — so holdout/
    new-batch splits replicate exactly); embeddings legs read the
    rotated-replica embeddings table (fixed query set, 10x corpus);
    the synthetic-corpus media legs raise GRAFT_MEDIA_CLIPS 100→1000
    (planted twin pairs scale exactly linearly)."""
    out: dict = {"query": qname, "num_cpus": NUM_CPUS, "legs": []}
    if qname in _MEDIA_SCALE_OPS:
        legs = [(SF_DIR, {"GRAFT_MEDIA_CLIPS": "100"}, "100 clips"),
                (SF_DIR, {"GRAFT_MEDIA_CLIPS": "1000"},
                 "1000 clips (10x)")]
    elif qname in _IMG_SCALE_OPS:
        base = _IMG_SCALE_OPS[qname]
        legs = [(SF_DIR, {"GRAFT_IMG_ROWS": str(base)}, f"{base} images"),
                (SF_DIR, {"GRAFT_IMG_ROWS": str(base * 10)},
                 f"{base * 10} images (10x)")]
    elif qname in _TPCH_SCALE_OPS:
        legs = [(SF_DIR, None, "sf0.1"),
                (_build_sf1_tpch(), None, "sf1(10x)")]
    elif qname in _EVENTS_SCALE_OPS:
        legs = [(SF_DIR, None, "sf0.1"),
                (_build_sf1_events(), None, "sf1(10x)")]
    elif qname in _ENV_SCALE_OPS:
        var, base, unit = _ENV_SCALE_OPS[qname]
        legs = [(SF_DIR, {var: str(base)}, f"{base} {unit}"),
                (SF_DIR, {var: str(base * 10)},
                 f"{base * 10} {unit} (10x)")]
    elif qname in _EMBEDDING_SCALE_OPS:
        legs = [(SF_DIR, None, "sf0.1"),
                (_build_sf1_embeddings(), None, "sf1(10x)")]
    else:
        legs = [(SF_DIR, None, "sf0.1"),
                (_build_sf1_documents(), None, "sf1(10x)")]
    for sf, extra_env, tag in legs:
        probe = fault_probe_fresh()
        code = (
            "import json, time, ray\n"
            f"ray.init(address='local', num_cpus={NUM_CPUS}, "
            "include_dashboard=False, logging_level='ERROR')\n"
            "from pyspider_ray import queries as q\n"
            "from pyspider_ray import training_queries as tq\n"
            "QE = {**q.QUERIES, **tq.QUERIES}\n"
            "t0 = time.perf_counter()\n"
            f"res = QE[{qname!r}]({sf!r})\n"
            "n = res.count() if hasattr(res, 'iter_batches') else len(res)\n"
            "print(json.dumps({'sec': round(time.perf_counter()-t0, 2), "
            "'rows': int(n)}))\n"
            "ray.shutdown()\n")
        env = dict(os.environ)
        if extra_env:
            env.update(extra_env)
        r = subprocess.run([sys.executable, "-c", code],
                           capture_output=True, text=True, check=True,
                           cwd=os.path.dirname(os.path.abspath(__file__)),
                           env=env)
        leg = json.loads(r.stdout.strip().splitlines()[-1])
        leg.update({"sf": tag, "probe_mb_per_s": probe})
        out["legs"].append(leg)
    a, b = out["legs"][0], out["legs"][1]
    out["wall_ratio_10x"] = round(b["sec"] / a["sec"], 2)
    out["rows_ratio_10x"] = round(b["rows"] / max(a["rows"], 1), 2)
    print(json.dumps(out))


def frontier_drill() -> None:
    """Resident-frontier scale drill (BASELINE.md evidence): run the
    real Ray crawl until the frontier holds 10^5 then 10^6 queued
    tasks; at each mark record steady-state round latency (select +
    fetch + status for a full loop_limit budget) and checkpoint
    wall/size.  Flat latency proves the select round is O(budget·log n)
    not O(frontier); checkpoint cost should scale ~linearly with
    resident size."""
    init_ray()
    from pyspider_ray.pipelines import CrawlConfig, CrawlPipeline
    out = "/tmp/pyspider_ray_drill"
    shutil.rmtree(out, ignore_errors=True)
    conc = max(2, NUM_CPUS - 2)
    cfg = CrawlConfig(total=CRAWL_ID_SPACE, n_seeds=2000, n_shards=8,
                      n_hosts=64, use_ray=True, out_dir=out,
                      loop_limit=2000, batch_size=256, concurrency=conc,
                      page_scale=1, persist_payload=False)
    pipe = CrawlPipeline(cfg)
    pipe.seed()

    def dir_bytes(path: str) -> int:
        total = 0
        for root, _, files in os.walk(path):
            for f in files:
                total += os.path.getsize(os.path.join(root, f))
        return total

    marks = [100_000, 1_000_000]
    results: dict[str, dict] = {}
    mi = 0
    for _ in range(600):
        pipe.run_round()
        size = pipe.coord.total_size()
        if mi < len(marks) and size >= marks[mi]:
            lat, admitted = [], 0
            for _ in range(5):
                t0 = time.perf_counter()
                m = pipe.run_round()
                lat.append(time.perf_counter() - t0)
                admitted += m["admitted"]
            t0 = time.perf_counter()
            ckpt_dir = pipe.checkpoint()
            ck_sec = time.perf_counter() - t0
            results[f"{marks[mi]:d}"] = {
                "resident_frontier": pipe.coord.total_size(),
                "round_latency_sec": round(sum(lat) / len(lat), 3),
                "admitted_per_sec": round(admitted / sum(lat), 1),
                "checkpoint_sec": round(ck_sec, 2),
                "checkpoint_mb": round(dir_bytes(ckpt_dir) / 1e6, 1),
            }
            mi += 1
            if mi == len(marks):
                break
    r5, r6 = results.get("100000"), results.get("1000000")
    print(json.dumps({
        "frontier_drill": results,
        "latency_ratio_1e6_vs_1e5": round(
            r6["round_latency_sec"] / r5["round_latency_sec"], 2)
        if r5 and r6 else None,
        "num_cpus": NUM_CPUS,
    }))
    import ray
    ray.shutdown()


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        scaling()
    elif "--frontier-drill" in sys.argv:
        frontier_drill()
    elif "--neardup-scale" in sys.argv:
        neardup_scale()
    elif "--dsir-scale" in sys.argv:
        op_scale("dsir_select")
    elif "--scale-op" in sys.argv:
        op_scale(sys.argv[sys.argv.index("--scale-op") + 1])
    elif "--cpu-probe" in sys.argv:
        # cheap window check before committing to a full --scaling run:
        # host_ceiling ~1.0 means the host can actually show 4x
        print(json.dumps({"fault_probe_mb_per_s": fault_probe_fresh(),
                          "cpu_probe": cpu_parallel_probe()}))
    else:
        main()
