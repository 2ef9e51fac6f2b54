"""Smoke test of the benchmark itself (run from the repo root):

    python3 -m pytest crawlbench/tests -q

It runs crawl_links briefly (no Ray), so it takes about a minute."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pyarrow.parquet as pq
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from crawlbench import bench, crawl  # noqa: E402


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]}, spec)


def run_bench(trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, "crawlbench/run.py", "--workload", "crawl_links",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=200)


def test_declared_metrics_match_code():
    e2e, layers, spec = declared()
    assert e2e == bench.END_TO_END
    assert layers == bench.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(bench.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metric_names(trace):
    e2e, layers, _ = declared()
    proc = run_bench(trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = layers if trace else e2e
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_dropped_result_row_trips_the_check(tmp_path):
    fetcher_cls = crawl.recording_fetcher()
    pipe = crawl.build("crawl_links", 5, str(tmp_path / "crawl"),
                       fetcher_cls=fetcher_cls)
    for _ in range(3):
        pipe.run_round()
    pipe.checkpoint()
    fetched, ok = crawl.fetch_outcomes(fetcher_cls)
    seen = pipe.seen_taskids()

    def failures():
        rows = crawl.result_taskids(pipe.results_dir)
        return crawl.check_crawl(seen, rows, fetched, ok)

    assert sum(failures().values()) == 0
    part = next(os.path.join(d, f) for d, _, fs in
                os.walk(pipe.results_dir) for f in fs
                if f.endswith(".parquet"))
    table = pq.read_table(part)
    pq.write_table(table.slice(1), part)
    assert failures()["missing_rows"] == 1


def test_refuses_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "crawlbench"),
                    tmp_path / "crawlbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench(0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
