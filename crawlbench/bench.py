"""One benchmark run in this process: ``python3 -m crawlbench.bench
--workload <name> --seed <n> --seconds <s> --trace <0|1>``.  The runner
(run.py) starts it as a process-group leader under a hard timeout."""

from __future__ import annotations

import argparse
import sys
import time

from .common import ROOT, RaySession, emit

WORKLOADS = ("crawl_links", "crawl_images", "query_exchange")
USES_RAY = {"crawl_links": False, "crawl_images": True,
            "query_exchange": True}

END_TO_END = {"items_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}

_QUERY_LEGS = ("session_windows", "funnel_stages", "customer_order_activity",
               "hash_join_revenue", "jaccard_near_dup", "line_dedup")
PER_LAYER = {
    "coordinator.select_s": "s", "coordinator.selected": "count",
    "coordinator.follow_s": "s", "coordinator.status_s": "s",
    "frontier.follows_offered": "count", "frontier.tasks_new": "count",
    "frontier.new_per_follow": "ratio", "frontier.resident_tasks": "count",
    "frontier.bytes_per_task": "B", "frontier.checkpoint_s": "s",
    "politeness.admit_s": "s", "politeness.offered": "count",
    "politeness.deferred": "count", "politeness.admit_ratio": "ratio",
    "canonicalize.canonicalize_s": "s", "canonicalize.urls": "count",
    "fetcher.fetch_s": "s", "fetcher.rows": "count",
    "fetcher.content_mb": "MB", "fetcher.non_200": "count",
    "processor.process_s": "s", "processor.rows": "count",
    "imaging.decode_s": "s", "imaging.phash_s": "s",
    "crawl.results_build_s": "s", "crawl.results_write_s": "s",
    "crawl.results_mb": "MB", "crawl.drain_wait_s": "s",
    "crawl.follow_s": "s", "crawl.select_s": "s", "crawl.dispatch_s": "s",
    "crawl.round_p50_s": "s", "crawl.round_tail_s": "s",
    **{f"query.{leg}_{kind}": unit for leg in _QUERY_LEGS
       for kind, unit in (("s", "s"), ("rows", "count"))},
}


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def complete(measured: dict, trace: bool) -> dict:
    """Every declared metric of the run's kind, by name with its unit.
    A layer the workload does not exercise did no work: it reads 0."""
    names = PER_LAYER if trace else END_TO_END
    unknown = set(measured) - set(names)
    if unknown:
        raise KeyError(f"undeclared metrics: {sorted(unknown)}")
    out = {}
    for name, unit in names.items():
        if name in measured:
            value, got_unit = measured[name]
            if got_unit != unit:
                raise ValueError(f"{name}: unit {got_unit} != {unit}")
        elif trace:
            value = 0.0
        else:
            raise KeyError(f"end-to-end metric {name} was not measured")
        out[name] = {"value": float(value), "unit": unit}
    return out


def main(argv=None) -> int:
    args = parse(argv)
    t0 = time.perf_counter()
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    import numpy  # noqa: F401
    import pyarrow  # noqa: F401

    import pyspider_ray.pipelines  # noqa: F401
    session = None
    if USES_RAY[args.workload]:
        import ray  # noqa: F401
        session = RaySession()
    import_s = time.perf_counter() - t0
    try:
        if args.workload == "query_exchange":
            from . import query
            result = query.run(args.seed, args.seconds, bool(args.trace),
                               import_s, session)
        else:
            from . import crawl
            result = crawl.run(args.workload, args.seed, args.seconds,
                               bool(args.trace), import_s, session)
    finally:
        if session is not None:
            session.close()
    correct, attempted, failed, measured, info = result
    emit(correct, attempted, failed, complete(measured, bool(args.trace)),
         info)
    return 0


if __name__ == "__main__":
    sys.exit(main())
