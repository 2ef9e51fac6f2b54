"""crawl_links and crawl_images: a fixed number of crawl rounds from a
seeded frontier, timed from outside through CrawlPipeline's public
calls, then checked against the synthetic web."""

from __future__ import annotations

import gc
import os
import shutil
import time
from statistics import median

import numpy as np

from .common import MemorySampler, Tracer, tail, work_dir

TOTAL = 10 ** 10          # the open synthetic web's id space
N_SEED_URLS = 64
SAMPLE_ROWS = 8

# Settings per workload.  ``rounds_per_s`` sizes a run: a run times
# round(seconds * rounds_per_s) rounds, so every run of one seed does the
# same work and its counts repeat exactly.
WORKLOADS = {
    "crawl_links": {
        "cfg": dict(total=TOTAL, n_seeds=0, n_hosts=64, skew=True,
                    # the hot host (30% of ids) exceeds its budget each
                    # round: the gate defers about 1 in 4 selections
                    host_rate=20.0, host_burst=20.0, fail_permille=20,
                    n_shards=8, page_scale=1, loop_limit=900,
                    use_ray=False),
        "warmup_rounds": 5, "rounds_per_s": 5.0, "checkpoint_every": 10,
        "setup_repeats": 3,
    },
    "crawl_images": {
        "cfg": dict(total=TOTAL, n_seeds=0, show=3, n_hosts=64, skew=False,
                    fail_permille=0, n_shards=2, concurrency=2,
                    page_scale=6, persist_payload=True, loop_limit=300,
                    use_ray=True),
        # each set-up starts a fresh Ray cluster (about 11 s); two keep a
        # run within its share of the benchmark's time budget
        "warmup_rounds": 3, "rounds_per_s": 2.5, "checkpoint_every": 0,
        "setup_repeats": 2,
    },
}


def seed_urls(seed: int, cfg) -> list[str]:
    from pyspider_ray.functions.synthweb import urls_of
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, cfg.total, size=N_SEED_URLS, dtype=np.int64)
    return urls_of(ids, cfg.n_hosts, cfg.skew)


def recording_fetcher():
    """A SyntheticFetcher subclass that logs (taskid, status_code) of
    every fetched row; a fresh class per pipeline keeps the log per run."""
    from pyspider_ray.stages.fetcher import SyntheticFetcher

    class RecordingFetcher(SyntheticFetcher):
        log: list = []

        def __call__(self, batch):
            out = super().__call__(batch)
            self.log.append((out["taskid"].to_pylist(),
                             out["status_code"].to_pylist()))
            return out

    return RecordingFetcher


def collecting_sink():
    """Result sink for the unpersisted replay: keeps result taskids only."""
    class CollectingSink:
        taskids: list = []

        def __call__(self, table, round_dir, part_idx):
            self.taskids.extend(table["taskid"].to_pylist())

    return CollectingSink


def fetch_outcomes(fetcher_cls) -> tuple[set, set]:
    """(every fetched taskid, taskids whose fetch returned 200)."""
    fetched, ok = set(), set()
    for taskids, codes in fetcher_cls.log:
        for tid, code in zip(taskids, codes):
            fetched.add(tid)
            if code == 200:
                ok.add(tid)
    return fetched, ok


def build(name: str, seed: int, out_dir: str, **overrides):
    from pyspider_ray.pipelines import CrawlConfig, CrawlPipeline
    shutil.rmtree(out_dir, ignore_errors=True)
    kw = dict(WORKLOADS[name]["cfg"], out_dir=out_dir)
    kw.update(overrides)
    cfg = CrawlConfig(**kw)
    pipe = CrawlPipeline(cfg)
    pipe.enqueue([{"url": u} for u in seed_urls(seed, cfg)])
    return pipe


def rows_on_disk(results_dir: str) -> int:
    import pyarrow.dataset as pads
    if not os.path.isdir(results_dir) or not os.listdir(results_dir):
        return 0
    return pads.dataset(results_dir).count_rows()


def result_taskids(results_dir: str) -> list[str]:
    import pyarrow.dataset as pads
    return pads.dataset(results_dir).to_table(
        columns=["taskid"])["taskid"].to_pylist()


def sample_failures(results_dir: str, taskids: list[str], seed: int,
                    scale: int) -> int:
    """Decode a seeded sample of result rows against the synthetic web:
    pixels at PSNR >= 40 dB (inf for png) and the exact caption."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    from pyspider_ray.functions import synthweb
    from pyspider_ray.functions.imaging import decode_image, psnr
    if not taskids:
        return 0
    rng = np.random.default_rng(seed)
    pick = sorted(set(rng.choice(len(taskids),
                                 size=min(SAMPLE_ROWS, len(taskids)),
                                 replace=False).tolist()))
    want = [taskids[i] for i in pick]
    rows = pads.dataset(results_dir).to_table(
        columns=["taskid", "url", "bytes", "fmt", "caption"],
        filter=pc.field("taskid").isin(want)).to_pylist()
    bad = len(set(want)) - len({r["taskid"] for r in rows})
    for r in rows:
        url_id = synthweb.parse_url_id(r["url"])
        try:
            score = psnr(synthweb.page_pixels(url_id, scale),
                         decode_image(r["bytes"]))
        except ValueError:
            bad += 1
            continue
        ok = score == float("inf") if r["fmt"] == "png" else score >= 40.0
        if not ok or r["caption"] != synthweb.page_caption(url_id):
            bad += 1
    return bad


def check_crawl(seen: list[str], rows: list[str], fetched: set,
                fetched_ok: set) -> dict:
    """Failure counts, in URLs: duplicates in the URL-seen set, and any
    URL without exactly one result row although its fetch returned 200
    (a 503 that is retried later is not a failure)."""
    seen_set, row_set = set(seen), set(rows)
    return {
        "duplicate_seen": len(seen) - len(seen_set),
        "duplicate_rows": len(rows) - len(row_set),
        "missing_rows": len(fetched_ok - row_set),
        "unexpected_rows": len(row_set - fetched_ok),
        "rows_not_seen": len(row_set - seen_set),
        "fetched_not_seen": len(fetched - seen_set),
    }


def _wrap_driver(tracer: Tracer, pipe) -> None:
    """Spans around the coordinator and politeness calls run_round
    makes; shard work runs inside them (in-process) or behind them
    (Ray actors)."""
    def follow_stats(tr, args, stats):
        stats = stats or {}
        tr.count("frontier.follows_offered",
                 sum(stats.get(k, 0) for k in ("new", "ignored",
                                                "overflow")))
        tr.count("frontier.tasks_new", stats.get("new", 0))

    def selected(tr, args, out):
        tr.count("coordinator.selected", len(out))

    def admitted(tr, args, out):
        tr.count("politeness.offered", len(args[0]))
        tr.count("politeness.admitted", len(out[0]))
        tr.count("politeness.deferred", len(out[1]))

    coord = pipe.coord
    tracer.wrap(coord, "select", "coordinator.select", selected)
    tracer.wrap(coord, "begin_follow_tables", "coordinator.follow")
    tracer.wrap(coord, "finish_follow_tables", "coordinator.follow",
                follow_stats)
    for attr in ("dispatch_status", "begin_status_tables",
                 "finish_status_tables"):
        tracer.wrap(coord, attr, "coordinator.status")
    tracer.wrap(coord, "dispatch_requests", "coordinator.requests")
    tracer.wrap(coord, "drain_counters", "coordinator.counters")
    tracer.wrap(pipe.gate, "admit", "politeness.admit", admitted)
    if not pipe.cfg.use_ray:
        for shard in pipe.shards:     # deferred tasks go back per shard
            tracer.wrap(shard, "requeue", "frontier.requeue")


def _wrap_data_plane(tracer: Tracer, fetcher_cls) -> None:
    """Spans around the in-process data plane: fetch, process (with
    canonicalize and the imaging calls as children), result build and
    the Parquet write."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from pyspider_ray.pipelines import crawl as crawl_mod
    from pyspider_ray.stages import canonicalize as canon_mod
    from pyspider_ray.stages import processor as proc_mod

    def fetched(tr, args, out):
        codes = out["status_code"].to_numpy()
        tr.count("fetcher.rows", len(out))
        tr.count("fetcher.non_200", int((codes != 200).sum()))
        tr.count("fetcher.content_mb", (pc.sum(pc.binary_length(
            out["content"])).as_py() or 0) / 1e6)

    def processed(tr, args, out):
        tr.count("processor.rows", len(out))

    def canonicalized(tr, args, out):
        tr.count("canonicalize.urls", len(args[0]))

    def built(tr, args, out):
        tr.count("crawl.results_mb", out.nbytes / 1e6)

    tracer.wrap(fetcher_cls, "__call__", "fetcher.fetch", fetched)
    tracer.wrap(proc_mod.ProcessorStage, "__call__", "processor.process",
                processed)
    tracer.wrap(canon_mod, "canonicalize_urls", "canonicalize.canonicalize",
                canonicalized)
    tracer.wrap(proc_mod, "decode_image", "imaging.decode")
    tracer.wrap(proc_mod, "phash64", "imaging.phash")
    tracer.wrap(crawl_mod, "ResultBuilder", "crawl.results_build", built)
    tracer.wrap(pq, "write_table", "crawl.results_write")


def timed_rounds(pipe, n_rounds: int, checkpoint_every: int,
                 sampler: MemorySampler, tracer: Tracer | None) -> dict:
    """Run ``n_rounds`` rounds (checkpointing the way run() does) and
    stop the clock once every row of every dispatched round is on disk:
    in-process rounds write their rows before run_round returns; Ray
    rounds need a checkpoint(), which drains the data plane and flushes
    the workers' writes."""
    def checkpoint():
        if tracer is None:
            pipe.checkpoint()
        else:
            with tracer.span("frontier.checkpoint"):
                pipe.checkpoint()

    first = len(pipe.metrics)
    rows0 = rows_on_disk(pipe.results_dir)
    resident0 = len(pipe.seen_taskids())
    pss0 = sampler.start()
    round_s = []
    t0 = time.perf_counter()
    for r in range(n_rounds):
        a = time.perf_counter()
        if tracer is None:
            pipe.run_round()
        else:
            with tracer.span("round"):
                pipe.run_round()
        round_s.append(time.perf_counter() - a)
        if checkpoint_every and (r + 1) % checkpoint_every == 0:
            checkpoint()
        sampler.sample()
    if pipe.cfg.use_ray:
        checkpoint()
    elapsed = time.perf_counter() - t0
    pss1 = sampler.sample()
    persisted = rows_on_disk(pipe.results_dir) - rows0
    phases = pipe.metrics[first:]
    return {"round_s": round_s, "persisted": persisted,
            "urls_per_s": persisted / elapsed, "pss_growth_mb": pss1 - pss0,
            "resident0": resident0,
            "phases": {k: sum(m[k] for m in phases)
                       for k in ("t_drain", "t_follow", "t_select",
                                 "t_dispatch")},
            "deferred": sum(m["deferred"] for m in phases),
            "fetched": sum(m["fetched"] for m in phases)}


def _setup(name: str, seed: int, out_dir: str, warmup: int, **overrides):
    """Construct, seed and warm up; the warm-up ends with a checkpoint so
    the timed window starts with no round in flight."""
    t0 = time.perf_counter()
    pipe = build(name, seed, out_dir, **overrides)
    for _ in range(warmup):
        pipe.run_round()
    pipe.checkpoint()
    return pipe, time.perf_counter() - t0


def _crawl_pass(name, seed, n_rounds, trace, out_dir, sampler, session):
    """Set up (repeatedly, keeping the last pipeline; a Ray workload
    restarts Ray each time), then time the rounds.  Returns (pipe,
    fetcher class, set-up times, Ray start times, timing, tracer)."""
    spec = WORKLOADS[name]
    setups, ray_starts = [], []
    for _ in range(spec["setup_repeats"]):
        pipe = fetcher_cls = None
        gc.collect()
        ray_s = session.restart() if session is not None else 0.0
        ray_starts.append(ray_s)
        fetcher_cls = recording_fetcher() if not spec["cfg"]["use_ray"] \
            else None
        extra = {"fetcher_cls": fetcher_cls} if fetcher_cls else {}
        pipe, s = _setup(name, seed, out_dir, spec["warmup_rounds"], **extra)
        setups.append(ray_s + s)
    tracer = None
    if trace:
        tracer = Tracer()
        _wrap_driver(tracer, pipe)
        if fetcher_cls is not None:
            _wrap_data_plane(tracer, fetcher_cls)
    try:
        timing = timed_rounds(pipe, n_rounds, spec["checkpoint_every"],
                              sampler, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    return pipe, fetcher_cls, setups, ray_starts, timing, tracer


def _replay(name, seed, rounds, trace, out_dir):
    """In-process run of the same seed and rounds through the same stage
    objects.  Traced, it writes Parquet and times the data plane over
    the timed rounds; untraced, results go to a collecting sink."""
    spec = WORKLOADS[name]
    fetcher_cls = recording_fetcher()
    extra = dict(use_ray=False, fetcher_cls=fetcher_cls)
    sink = None
    if not trace:
        sink = extra["sink_cls"] = collecting_sink()
    pipe = build(name, seed, out_dir, **extra)
    for _ in range(spec["warmup_rounds"]):
        pipe.run_round()
    tracer = None
    if trace:
        tracer = Tracer()
        _wrap_data_plane(tracer, fetcher_cls)
    try:
        for _ in range(rounds - spec["warmup_rounds"]):
            if tracer is None:
                pipe.run_round()
            else:
                with tracer.span("round"):
                    pipe.run_round()
    finally:
        if tracer is not None:
            tracer.restore()
    # the last round's fetches have run; its result rows are written
    rows = sink.taskids if sink is not None else result_taskids(
        pipe.results_dir)
    return {"emitted": pipe.emitted_order(), "seen": pipe.seen_taskids(),
            "rows": rows, "fetcher_cls": fetcher_cls, "tracer": tracer}


def run(name: str, seed: int, seconds: int, trace: bool,
        import_s: float, session) -> tuple:
    """Returns (correct, attempted, failed, metrics, info)."""
    spec = WORKLOADS[name]
    use_ray = spec["cfg"]["use_ray"]
    n_rounds = max(12, round(seconds * spec["rounds_per_s"]))
    info: dict = {"workload": name, "seed": seed, "timed_rounds": n_rounds}
    untraced = None
    if trace and not use_ray:
        # the untraced run of the same seed and rounds, in a fresh
        # process like the traced one, gives the tracing overhead
        untraced = untraced_items_per_s(name, seed, seconds)
    out_root = work_dir("out", f"{name}-{seed}")
    sampler = MemorySampler(whole_group=use_ray)
    try:
        pipe, fetcher_cls, setups, ray_starts, timing, tracer = \
            _crawl_pass(name, seed, n_rounds, trace,
                        os.path.join(out_root, "run"), sampler, session)
        if untraced is not None:
            info["untraced_items_per_s"] = untraced
            info["traced_items_per_s"] = timing["urls_per_s"]
            info["tracing_overhead"] = 1.0 - timing["urls_per_s"] / untraced

        seen = pipe.seen_taskids()
        rows = result_taskids(pipe.results_dir)
        sampled_bad = sample_failures(pipe.results_dir, rows, seed,
                                      spec["cfg"]["page_scale"])
        replay = None
        if use_ray:
            # the run's payload files are checked; free their disk space
            # before the replay writes its own
            shutil.rmtree(pipe.results_dir, ignore_errors=True)
            t0 = time.perf_counter()
            replay = _replay(name, seed, spec["warmup_rounds"] + n_rounds,
                             trace, os.path.join(out_root, "replay"))
            info["replay_s"] = time.perf_counter() - t0
            fetched, fetched_ok = fetch_outcomes(replay["fetcher_cls"])
        else:
            fetched, fetched_ok = fetch_outcomes(fetcher_cls)
        fails = check_crawl(seen, rows, fetched, fetched_ok)
        fails["sample_rows"] = sampled_bad
        if replay is not None:
            # the Ray run must match the in-process run of the same seed
            # and rounds (emission order, URL-seen set, result rows)
            a, b = pipe.emitted_order(), replay["emitted"]
            fails["emitted_order"] = sum(x != y for x, y in zip(a, b)) + \
                abs(len(a) - len(b))
            fails["seen_vs_local"] = len(set(seen) ^ set(replay["seen"]))
            fails["rows_vs_local"] = len(set(rows) ^ set(replay["rows"]))
        attempted = max(1, len(fetched))
        failed = min(attempted, sum(fails.values()))
        info.update({"failures": fails, "fetched": timing["fetched"],
                     "deferred": timing["deferred"],
                     "persisted": timing["persisted"],
                     "resident_tasks": len(seen),
                     "setup_runs_s": setups, "import_s": import_s,
                     "ray_start_s": ray_starts,
                     "ray_shutdown_s": session.shutdown_s if session else []})
        round_tail, pct = tail(timing["round_s"])
        info["round_p50_s"] = median(timing["round_s"])
        info["round_tail_s"] = round_tail
        info["round_tail_percentile"] = pct
        info["rounds_beyond_tail"] = sum(x > round_tail
                                         for x in timing["round_s"])
        if not trace:
            metrics = {
                "items_per_s": (timing["urls_per_s"], "1/s"),
                "peak_rss_mb": (sampler.peak_mb, "MB"),
                "setup_s": (import_s + median(setups), "s"),
            }
        else:
            metrics = layer_metrics(timing, tracer, replay, seen)
            info["trace"] = trace_summary(tracer, replay)
            tracer.dump(os.path.join(work_dir("traces"),
                                     f"{name}-{seed}.json"))
        return failed == 0, attempted, failed, metrics, info
    finally:
        shutil.rmtree(out_root, ignore_errors=True)


def untraced_items_per_s(name: str, seed: int, seconds: int) -> float:
    import json
    import subprocess
    import sys

    from .common import ROOT
    proc = subprocess.run(
        [sys.executable, "-m", "crawlbench.bench", "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["metrics"]["items_per_s"]["value"]


def layer_metrics(timing, tracer, replay, seen) -> dict:
    """Per-layer numbers: driver-side spans from the timed run; the data
    plane's from the same run in-process or, for the Ray run, from the
    traced in-process replay."""
    st, ct = tracer.self_times(), tracer.counts
    plane = tracer if replay is None else replay["tracer"]
    pst, pct = plane.self_times(), plane.counts
    resident_growth = len(seen) - timing["resident0"]
    offered = ct.get("frontier.follows_offered", 0)
    gate_offered = ct.get("politeness.offered", 0)
    ph = timing["phases"]
    return {
        "coordinator.select_s": (st.get("coordinator.select", 0), "s"),
        "coordinator.selected": (ct.get("coordinator.selected", 0), "count"),
        "coordinator.follow_s": (st.get("coordinator.follow", 0), "s"),
        "coordinator.status_s": (st.get("coordinator.status", 0), "s"),
        "frontier.follows_offered": (offered, "count"),
        "frontier.tasks_new": (ct.get("frontier.tasks_new", 0), "count"),
        "frontier.new_per_follow": (
            ct.get("frontier.tasks_new", 0) / offered if offered else 0,
            "ratio"),
        "frontier.resident_tasks": (len(seen), "count"),
        "frontier.bytes_per_task": (
            timing["pss_growth_mb"] * 1e6 / resident_growth
            if resident_growth > 0 else 0, "B"),
        "frontier.checkpoint_s": (st.get("frontier.checkpoint", 0), "s"),
        "politeness.admit_s": (st.get("politeness.admit", 0), "s"),
        "politeness.offered": (gate_offered, "count"),
        "politeness.deferred": (ct.get("politeness.deferred", 0), "count"),
        "politeness.admit_ratio": (
            ct.get("politeness.admitted", 0) / gate_offered
            if gate_offered else 0, "ratio"),
        "canonicalize.canonicalize_s": (
            pst.get("canonicalize.canonicalize", 0), "s"),
        "canonicalize.urls": (pct.get("canonicalize.urls", 0), "count"),
        "fetcher.fetch_s": (pst.get("fetcher.fetch", 0), "s"),
        "fetcher.rows": (pct.get("fetcher.rows", 0), "count"),
        "fetcher.content_mb": (pct.get("fetcher.content_mb", 0), "MB"),
        "fetcher.non_200": (pct.get("fetcher.non_200", 0), "count"),
        "processor.process_s": (pst.get("processor.process", 0), "s"),
        "processor.rows": (pct.get("processor.rows", 0), "count"),
        "imaging.decode_s": (pst.get("imaging.decode", 0), "s"),
        "imaging.phash_s": (pst.get("imaging.phash", 0), "s"),
        "crawl.results_build_s": (pst.get("crawl.results_build", 0), "s"),
        "crawl.results_write_s": (pst.get("crawl.results_write", 0), "s"),
        "crawl.results_mb": (pct.get("crawl.results_mb", 0), "MB"),
        "crawl.drain_wait_s": (ph["t_drain"], "s"),
        "crawl.follow_s": (ph["t_follow"], "s"),
        "crawl.select_s": (ph["t_select"], "s"),
        "crawl.dispatch_s": (ph["t_dispatch"], "s"),
        "crawl.round_p50_s": (median(timing["round_s"]), "s"),
        "crawl.round_tail_s": (tail(timing["round_s"])[0], "s"),
    }


def trace_summary(tracer, replay) -> dict:
    """Self time per span name, and how much of the timed rounds' wall
    time the layer spans cover (the rest is run_round's own glue)."""
    self_s = tracer.self_times()
    out = {"self_s": self_s, "counts": dict(tracer.counts)}
    rounds = sum(tracer.durations("round"))
    if rounds:
        out["round_wall_s"] = rounds
        out["layer_coverage"] = 1.0 - self_s["round"] / rounds
    if replay is not None:
        rt = replay["tracer"]
        out["replay"] = {"label": "in-process replay of the same seed "
                                  "and rounds",
                         "self_s": rt.self_times(),
                         "counts": dict(rt.counts)}
    return out
