"""End-to-end crawl loop tests: coverage, exact dedup, payload
invariants (PSNR >= 40 dB + caption equality, BASELINE.json input_hint),
politeness, robots, checkpoint/resume, and Ray-actor mode."""

import shutil

import numpy as np
import pytest

from pyspider_ray.functions import synthweb
from pyspider_ray.functions.imaging import decode_image, psnr
from pyspider_ray.pipelines import CrawlConfig, CrawlPipeline


def fresh(cfg_kw, tmp_path, name):
    out = str(tmp_path / name)
    shutil.rmtree(out, ignore_errors=True)
    cfg = CrawlConfig(out_dir=out, use_ray=False, **cfg_kw)
    return CrawlPipeline(cfg)


BASE = dict(total=300, n_seeds=10, n_shards=4, loop_limit=100)
# an open web whose frontier outgrows each round's selection, so which
# round ingests a plane decides what the next selects emit
SCHEDULE = dict(total=10 ** 6, n_seeds=30, n_shards=2, loop_limit=25,
                show=4)


class TestCrawlE2E:
    def test_full_coverage_and_exact_dedup(self, tmp_path):
        pipe = fresh(BASE, tmp_path, "cov")
        pipe.seed()
        summary = pipe.run(max_rounds=100)
        t = pipe.results_table()
        ids = t["image_id"].to_pylist()
        # every reachable id fetched exactly once (D4 exact dedup)
        assert len(ids) == len(set(ids)) == 300
        assert len(pipe.seen_taskids()) == 300
        assert summary["rounds"] < 100

    def test_payload_invariant(self, tmp_path):
        """Per-row: decoded pixels PSNR>=40dB (inf for png) vs the
        reference generator + exact caption equality."""
        pipe = fresh(dict(BASE, total=60, n_seeds=6), tmp_path, "inv")
        pipe.seed()
        pipe.run(max_rounds=50)
        t = pipe.results_table()
        assert t.num_rows == 60
        for row in t.slice(0, 60).to_pylist():
            url_id = int(row["image_id"].split("-")[1])
            expect = synthweb.page_pixels(url_id)
            got = decode_image(row["bytes"])
            score = psnr(expect, got)
            if row["fmt"] == "png":
                assert score == float("inf")
            else:
                assert score >= 40.0
            assert row["caption"] == synthweb.page_caption(url_id)
            assert (row["h"], row["w"], 3) == expect.shape

    def test_deterministic_rerun(self, tmp_path):
        runs = []
        for i in range(2):
            pipe = fresh(BASE, tmp_path, f"det{i}")
            pipe.seed()
            pipe.run(max_rounds=100)
            runs.append((pipe.emitted_order(), pipe.seen_taskids()))
        assert runs[0][0] == runs[1][0]       # bit-for-bit fetch order
        assert runs[0][1] == runs[1][1]       # identical URL-seen set

    def test_politeness_budget_defers(self, tmp_path):
        # tight host budget: rate 2/s, burst 2 over 5 hosts throttles rounds
        pipe = fresh(dict(BASE, total=100, host_rate=2, host_burst=2),
                     tmp_path, "pol")
        pipe.seed()
        summary = pipe.run(max_rounds=300)
        deferred_total = sum(m["deferred"] for m in pipe.metrics)
        assert deferred_total > 0             # budget actually binds
        t = pipe.results_table()
        ids = t["image_id"].to_pylist()
        assert len(ids) == len(set(ids)) == 100   # still complete, no dupes
        # per-round admitted per host never exceeds burst
        for m in pipe.metrics:
            assert m["admitted"] <= 2 * 5 + 1  # 5 hosts * burst (+control)

    def test_robots_blocking(self, tmp_path):
        # disallow /page/7* on host 0 -> ids 70 and 75 are robots-blocked;
        # the rest keep succeeding so the pause FSM never engages and the
        # blocked pair walks the 403 -> retry ladder -> FAILED path
        pipe = fresh(dict(BASE, total=100, retry_delay={"": 1},
                          robots_disallow={"site0.test": ["/page/7"]}),
                     tmp_path, "rob")
        pipe.seed()
        pipe.run(max_rounds=200)
        fetched = {int(i.split("-")[1])
                   for i in pipe.results_table()["image_id"].to_pylist()}
        assert fetched == set(range(100)) - {70, 75}
        assert sum(m["blocked"] for m in pipe.metrics) >= 8
        from pyspider_ray.model import FAILED
        failed_urls = sorted(
            task["url"] for shard in pipe.shards
            for task in shard.store.values() if task.get("status") == FAILED)
        assert failed_urls == ["http://site0.test/page/70",
                               "http://site0.test/page/75"]

    def test_retry_ladder_with_failures(self, tmp_path):
        pipe = fresh(dict(BASE, total=80, fail_permille=150,
                          retry_delay={"": 1}), tmp_path, "fail")
        pipe.seed()
        pipe.run(max_rounds=400)
        t = pipe.results_table()
        ids = t["image_id"].to_pylist()
        # transient 503s recover deterministically on the first retry
        assert len(ids) == len(set(ids)) == 80

    def test_checkpoint_resume_no_refetch(self, tmp_path):
        out = str(tmp_path / "ck")
        cfg = CrawlConfig(out_dir=out, use_ray=False, **BASE)
        pipe = CrawlPipeline(cfg)
        pipe.seed()
        for _ in range(4):
            pipe.run_round()
        pipe.checkpoint()
        fetched_before = sum(m["fetched"] for m in pipe.metrics)
        full_order = list(pipe.emitted_order())
        # keep running the original to completion as the oracle
        pipe.run(max_rounds=100)
        oracle_order = pipe.emitted_order()
        oracle_ids = sorted(pipe.results_table()["image_id"].to_pylist())

        # "kill" and resume from the checkpoint; finished partitions stay
        resumed = CrawlPipeline.resume(CrawlConfig(out_dir=out, use_ray=False,
                                                   **BASE))
        # the post-checkpoint result partitions were written by the oracle
        # run; drop them to simulate the kill (they're not in the manifest)
        import json, os
        with open(os.path.join(resumed.ckpt_dir, "round=00004",
                               "manifest.json")) as f:
            manifest = json.load(f)
        for d in os.listdir(resumed.results_dir):
            if d not in manifest["completed_result_dirs"]:
                shutil.rmtree(os.path.join(resumed.results_dir, d))
        assert resumed.round_idx == 4
        assert sum(m["fetched"] for m in resumed.metrics) == fetched_before
        resumed.run(max_rounds=100)
        # same final frontier and same results, with no re-fetch of the
        # pre-checkpoint partitions (emission continues, not restarts)
        assert resumed.emitted_order() == oracle_order[len(full_order):]
        assert sorted(resumed.results_table()["image_id"].to_pylist()) == \
            oracle_ids
        assert resumed.seen_taskids() == pipe.seen_taskids()

    def test_resume_flat_pending_ctrl(self, tmp_path):
        """A checkpoint whose pending control tables are one flat list
        (written while one round was in flight) resumes them as one
        plane, the newest round's: here that is exactly the plane the
        checkpoint held, so the resumed run matches an uninterrupted
        one."""
        import json
        import os
        import pickle
        out = str(tmp_path / "flat")
        cfg = CrawlConfig(out_dir=out, use_ray=False, **BASE)
        pipe = CrawlPipeline(cfg)
        pipe.seed()
        pipe.run_round()
        ckpt = pipe.checkpoint()
        assert [p["round"] for p in pipe._pending_ctrl] == [0]
        path = os.path.join(ckpt, "driver.pkl")
        with open(path, "rb") as f:
            state = pickle.load(f)
        flat = state["pending_ctrl"][0]["tables"]
        state["pending_ctrl"] = list(flat)
        with open(path, "wb") as f:
            pickle.dump(state, f)
        before = len(pipe.emitted_order())
        pipe.run(max_rounds=100)
        # drop the partitions the uninterrupted run wrote after the
        # checkpoint, as a kill would have
        with open(os.path.join(ckpt, "manifest.json")) as f:
            keep = set(json.load(f)["completed_result_dirs"])
        for d in os.listdir(pipe.results_dir):
            if d not in keep:
                shutil.rmtree(os.path.join(pipe.results_dir, d))

        resumed = CrawlPipeline.resume(cfg)
        assert [(p["round"], len(p["tables"]))
                for p in resumed._pending_ctrl] == [(0, len(flat))]
        resumed.run(max_rounds=100)
        assert resumed.emitted_order() == pipe.emitted_order()[before:]
        ids = resumed.results_table()["image_id"].to_pylist()
        assert len(ids) == len(set(ids)) == 300

    def test_resume_checkpoint_with_cuckoo_key(self, tmp_path):
        """Shard snapshots written while the shard kept a URL-seen
        cuckoo filter carry it under "cuckoo"; such a checkpoint still
        resumes, and the resumed run emits what the uninterrupted run
        emitted after it."""
        import json
        import os
        import pickle

        import numpy as np

        from pyspider_ray.state.cuckoo import CuckooFilter
        out = str(tmp_path / "cuckoo_ck")
        cfg = CrawlConfig(out_dir=out, use_ray=False, **BASE)
        pipe = CrawlPipeline(cfg)
        pipe.seed()
        for _ in range(4):
            pipe.run_round()
        ckpt = pipe.checkpoint()
        for i in range(cfg.n_shards):
            path = os.path.join(ckpt, f"shard_{i}.pkl")
            with open(path, "rb") as f:
                snap = pickle.load(f)
            assert "cuckoo" not in snap
            seen = CuckooFilter(1 << 10)
            seen.add_many(np.asarray([t["urlhash"] for _, t in snap["store"]],
                                     dtype=np.int64))
            snap["cuckoo"] = seen.snapshot()
            with open(path, "wb") as f:
                pickle.dump(snap, f)
        before = len(pipe.emitted_order())
        pipe.run(max_rounds=100)
        with open(os.path.join(ckpt, "manifest.json")) as f:
            keep = set(json.load(f)["completed_result_dirs"])
        for d in os.listdir(pipe.results_dir):
            if d not in keep:
                shutil.rmtree(os.path.join(pipe.results_dir, d))

        resumed = CrawlPipeline.resume(cfg)
        resumed.run(max_rounds=100)
        assert resumed.emitted_order() == pipe.emitted_order()[before:]
        assert resumed.seen_taskids() == pipe.seen_taskids()
        ids = resumed.results_table()["image_id"].to_pylist()
        assert len(ids) == len(set(ids)) == 300

    def test_in_process_write_failure_raises(self, tmp_path):
        """A result sink that fails makes the in-process round that
        wrote to it raise ResultWriteError, as a Ray worker's flush
        does."""
        from pyspider_ray.pipelines import ResultWriteError

        class FailingSink:
            def __call__(self, table, round_dir, part_idx):
                raise OSError("disk full")

        pipe = fresh(dict(BASE, sink_cls=FailingSink), tmp_path, "sinkfail")
        pipe.seed()
        with pytest.raises(ResultWriteError, match="disk full"):
            pipe.run_round()

    def test_conditional_recrawl_304(self, tmp_path):
        """J5/M8 — an age-based re-crawl of an unchanged page answers 304
        (etag match), succeeds, and produces no duplicate result row."""
        pipe = fresh(dict(BASE, total=50), tmp_path, "etag")
        pipe.seed()
        pipe.run(max_rounds=60)
        assert pipe.results_table().num_rows == 50
        # force an age-0 restart of one crawled URL
        from pyspider_ray.stages.canonicalize import canonicalize_urls
        c = canonicalize_urls(["http://site2.test/page/7"])
        pipe._pending_new.append({
            "taskid": c["taskid"][0], "urlhash": int(c["urlhash"][0]),
            "project": "bench", "url": c["url"][0], "host": c["host"][0],
            "schedule": {"age": 0, "priority": 5},
            "process": {"callback": "on_page"},
        })
        m = pipe.run_round()
        assert m["admitted"] == 1
        pipe.run(max_rounds=pipe.round_idx + 5)
        # no duplicate result (304 skipped the payload), task still SUCCESS
        ids = pipe.results_table()["image_id"].to_pylist()
        assert len(ids) == len(set(ids)) == 50
        from pyspider_ray.model import SUCCESS
        shard = pipe.shards[pipe.coord.route({"taskid": c["taskid"][0],
                                              "url": c["url"][0]})]
        task = shard.get_task("bench", c["taskid"][0])
        assert task["status"] == SUCCESS
        assert task["etag"].startswith("W/")

    def test_metrics_and_active_tasks(self, tmp_path):
        pipe = fresh(dict(BASE, total=120), tmp_path, "met")
        pipe.seed()
        pipe.run(max_rounds=100)
        allc = pipe.metrics_hub.to_dict("all")["bench"]
        assert allc["success"] == 120
        assert allc["pending"] == 0          # every pending resolved
        recent = pipe.coord.get_active_tasks(limit=10)
        assert len(recent) == 10
        times = [t for t, _ in recent]
        assert times == sorted(times, reverse=True)

    def test_hot_host_skew_still_completes(self, tmp_path):
        pipe = fresh(dict(BASE, total=200, skew=True, host_rate=5,
                          host_burst=5), tmp_path, "skew")
        pipe.seed()
        pipe.run(max_rounds=300)
        ids = pipe.results_table()["image_id"].to_pylist()
        assert len(ids) == len(set(ids)) == 200

    def test_hot_host_does_not_starve_others(self, tmp_path):
        """Skew fairness: while the hot host (~50% of URLs under the skew
        fixture) is budget-limited and deferring, the other hosts keep
        being admitted — per-host buckets isolate the hot key."""
        pipe = fresh(dict(BASE, total=400, skew=True, host_rate=3,
                          host_burst=3), tmp_path, "fair")
        pipe.seed()
        saw_concurrent_progress = 0
        for _ in range(60):
            m = pipe.run_round()
            if m["deferred"] > 0 and m["admitted"] > 3:
                # host0 exhausted its 3-token budget yet >3 tasks were
                # admitted => non-hot hosts proceeded this round
                saw_concurrent_progress += 1
        assert saw_concurrent_progress >= 5
        ids = pipe.results_table()["image_id"].to_pylist()
        assert len(ids) == len(set(ids))


class TestMultiProjectQuota:
    def test_fair_share_select(self):
        """O4 — weight-proportional per-project select quotas, clamped to
        [limit/10, limit/3] (scheduler.py:500-522) across two projects of
        very different frontier sizes."""
        from pyspider_ray.state import (Coordinator, FrontierShard,
                                        ProjectConfig, VirtualClock)
        clock = VirtualClock(1.7e9)
        shards = [FrontierShard(i, 2, clock=clock) for i in range(2)]
        coord = Coordinator(shards, clock=clock, loop_limit=100)
        for name in ("big", "small"):
            coord.update_project(ProjectConfig(name, rate=1e9, burst=1e9))
        tasks = []
        for i in range(300):
            tasks.append({"taskid": f"b{i}", "project": "big",
                          "url": f"u{i}"})
        for i in range(20):
            tasks.append({"taskid": f"s{i}", "project": "small",
                          "url": f"v{i}"})
        coord.dispatch_requests(tasks)
        batch = coord.select()
        per = {}
        for t in batch:
            per[t["project"]] = per.get(t["project"], 0) + 1
        # big: weight 300/320 -> limit*0.94 clamped to limit/3 = 33
        # small: weight 20/320 -> 6 -> clamped up to limit/10 = 10
        assert per["big"] == 33
        assert per["small"] == 10


@pytest.mark.usefixtures("ray_session")
class TestCrawlRayMode:
    def test_ray_checkpoint_resume(self, tmp_path):
        """M4 in Ray-actor mode: checkpoint, rebuild actors, resume; no
        re-fetch of finished partitions and identical final results."""
        out = str(tmp_path / "rayck")
        cfg = CrawlConfig(out_dir=out, use_ray=True, batch_size=64,
                          concurrency=2, **dict(BASE, total=150))
        pipe = CrawlPipeline(cfg)
        pipe.seed()
        for _ in range(3):
            pipe.run_round()
        pipe.checkpoint()
        fetched_mid = sum(m["fetched"] for m in pipe.metrics)
        resumed = CrawlPipeline.resume(cfg)
        assert resumed.round_idx == pipe.round_idx
        assert sum(m["fetched"] for m in resumed.metrics) == fetched_mid
        resumed.run(max_rounds=100)
        ids = resumed.results_table()["image_id"].to_pylist()
        assert len(ids) == len(set(ids)) == 150

    def test_ray_frontier_export(self, tmp_path):
        """Portable frontier export in Ray-actor mode: shards write their
        own partitions; the merged table reloads as a taskdb."""
        out = str(tmp_path / "rayexp")
        cfg = CrawlConfig(out_dir=out, use_ray=True, batch_size=64,
                          concurrency=2, **dict(BASE, total=120))
        pipe = CrawlPipeline(cfg)
        pipe.seed()
        pipe.run(max_rounds=100)
        fdir = pipe.export_frontier()
        from pyspider_ray.sources import load_frontier
        table = load_frontier(fdir)
        assert table.num_rows == 120
        from pyspider_ray.model import SUCCESS
        assert set(table["status"].to_pylist()) == {SUCCESS}
        assert pipe.coord.pause_status() == {"bench": False}

    def test_ray_actor_mode_matches_local(self, tmp_path):
        """The Ray run and the in-process run of one seed emit, see and
        write the same.  In the "sub" case batch_rows is 16 (batch_size
        x 4), so the in-process worker splits each 33-row round into
        part-0_<k> sub-parts while the Ray chunks stay whole."""
        import pathlib
        for case, kw, ray_kw in (
                ("whole", {}, {"batch_size": 64}),
                ("sub", {"page_scale": 2, "batch_size": 4}, {})):
            local = fresh(dict(BASE, total=200, **kw), tmp_path,
                          f"raylocal_{case}")
            local.seed()
            local.run(max_rounds=100)

            out = str(tmp_path / f"rayray_{case}")
            cfg = CrawlConfig(out_dir=out, use_ray=True, concurrency=2,
                              **dict(BASE, total=200, **kw, **ray_kw))
            pipe = CrawlPipeline(cfg)
            pipe.seed()
            pipe.run(max_rounds=100)
            assert pipe.emitted_order() == local.emitted_order()
            assert pipe.seen_taskids() == local.seen_taskids()
            a = pipe.results_table().sort_by("taskid")
            b = local.results_table().sort_by("taskid")
            assert a.equals(b)
            assert sorted(a["image_id"].to_pylist()) == \
                [f"img-{i:012d}" for i in range(200)]
            sub_parts = list(pathlib.Path(local.results_dir)
                             .glob("round=*/part-0_*.parquet"))
            assert bool(sub_parts) == (case == "sub")

    def test_ray_checkpoint_keeps_schedule(self, tmp_path):
        """A checkpoint drains both rounds in flight but keeps them
        apart: a Ray run checkpointed after its warm-up emits, sees and
        writes exactly what an in-process run of the same rounds
        without a checkpoint does (a checkpoint that merged the two
        would let the next round ingest both at once)."""
        kw = dict(SCHEDULE, batch_size=64, concurrency=2)
        local = fresh(kw, tmp_path, "sched_local")
        local.seed()
        for _ in range(10):
            local.run_round()

        cfg = CrawlConfig(out_dir=str(tmp_path / "sched_ray"), use_ray=True,
                          **kw)
        pipe = CrawlPipeline(cfg)
        pipe.seed()
        for _ in range(3):
            pipe.run_round()
        pipe.checkpoint()
        assert [p["round"] for p in pipe._pending_ctrl] == [1, 2]
        for _ in range(7):
            pipe.run_round()
        assert pipe.emitted_order() == local.emitted_order()
        assert pipe.seen_taskids() == local.seen_taskids()
        a = sorted(pipe.results_table()["image_id"].to_pylist())
        b = sorted(local.results_table()["image_id"].to_pylist())
        assert a == b and len(a) == len(set(a)) > 0

    def test_ray_resume_continues_emitted_order(self, tmp_path):
        """Resume from a mid-crawl checkpoint restores both planes in
        flight with their rounds; the resumed run emits what the
        uninterrupted run emitted after the checkpoint."""
        cfg = CrawlConfig(out_dir=str(tmp_path / "sched_resume"),
                          use_ray=True, batch_size=64, concurrency=2,
                          **SCHEDULE)
        pipe = CrawlPipeline(cfg)
        pipe.seed()
        for _ in range(4):
            pipe.run_round()
        pipe.checkpoint()
        before = len(pipe.emitted_order())
        for _ in range(6):
            pipe.run_round()
        oracle = pipe.emitted_order()[before:]

        resumed = CrawlPipeline.resume(cfg)
        assert [p["round"] for p in resumed._pending_ctrl] == [2, 3]
        for _ in range(6):
            resumed.run_round()
        assert resumed.emitted_order() == oracle
        assert resumed.seen_taskids() == pipe.seen_taskids()

    def test_worker_busy_in_round_metric(self, tmp_path):
        """Every round reports worker_busy_s: process_chunk seconds of
        the plane it ingested, summed over workers; over a run that is
        positive and at most workers x wall."""
        import time
        cfg = CrawlConfig(out_dir=str(tmp_path / "busy"), use_ray=True,
                          batch_size=64, concurrency=2, **SCHEDULE)
        pipe = CrawlPipeline(cfg)
        pipe.seed()
        t0 = time.perf_counter()
        for _ in range(8):
            pipe.run_round()
        wall = time.perf_counter() - t0
        busy = [m["worker_busy_s"] for m in pipe.metrics]
        assert len(busy) == 8 and min(busy) >= 0
        assert 0 < sum(busy) <= cfg.concurrency * wall


class TestWorkerFaultTolerance:
    def test_worker_death_mid_crawl(self, tmp_path, ray_session):
        """A data-plane worker killed mid-crawl is replaced and its
        chunk re-dispatched; the crawl still reaches full coverage with
        exact dedup (payload part files publish via atomic rename, so
        the retry is idempotent)."""
        import ray
        out = str(tmp_path / "fault")
        cfg = CrawlConfig(out_dir=out, use_ray=True, batch_size=64,
                          concurrency=3, **dict(BASE, total=200))
        pipe = CrawlPipeline(cfg)
        pipe.seed()
        pipe.run_round()
        pipe.run_round()
        # murder one worker while its next chunks are pending
        victim = pipe._worker_pool()[0]
        ray.kill(victim, no_restart=True)
        pipe.run(max_rounds=100)
        ids = pipe.results_table()["image_id"].to_pylist()
        assert len(ids) == len(set(ids)) == 200
        assert victim not in pipe._workers   # replaced, not reused

    def test_worker_death_with_two_rounds_queued(self, tmp_path,
                                                 ray_session):
        """A dead worker takes the chunks of both rounds in flight with
        it; all of them are re-dispatched to one replacement."""
        import ray
        cfg = CrawlConfig(out_dir=str(tmp_path / "fault2"), use_ray=True,
                          batch_size=64, concurrency=3,
                          **dict(BASE, total=200, n_seeds=96, loop_limit=150))
        pipe = CrawlPipeline(cfg)
        pipe.seed()
        pipe.run_round()
        victim = pipe._worker_pool()[0]
        ray.kill(victim, no_restart=True)
        pipe.run_round()
        # chunks of both planes in flight are queued on the dead worker
        queued = [p["round"] for p in pipe._pending_ctrl
                  if any(w is victim for _, w, _ in p["chunks"].values())]
        assert queued == [0, 1]
        # the round that ingests round 0 meets the dead worker and moves
        # the chunks of round 1 too, not only those it waits for
        pipe.run_round()
        assert not [p for p in pipe._pending_ctrl
                    if any(w is victim for _, w, _ in
                           p.get("chunks", {}).values())]
        pipe.run(max_rounds=100)
        ids = pipe.results_table()["image_id"].to_pylist()
        assert len(ids) == len(set(ids)) == 200
        assert victim not in pipe._workers
        assert len(pipe._workers) == cfg.concurrency


LINK_SCRIPT = """# rate: 1000
# burst: 1000
import numpy as np
from pyspider.libs.base_handler import *
from pyspider_ray.functions import synthweb

VERSION = 1


class Handler(BaseHandler):
    def on_start(self, response):
        for url in synthweb.urls_of(np.arange(6, dtype=np.int64), 5):
            self.crawl(url, callback=self.index_page, priority=1)

    def index_page(self, response):
        url_id = synthweb.parse_url_id(response.url)
        kids = synthweb.child_ids(np.asarray([url_id]), 120)[0]
        for kid, host in zip(kids, synthweb.host_of(kids, 5)):
            self.crawl(synthweb.url_of(int(kid), int(host)),
                       callback=self.index_page)
        return {"image_id": f"img-{url_id:012d}", "version": VERSION}
"""


class TestScriptReloadInFlight:
    def test_reload_with_plane_in_flight(self, tmp_path, ray_session):
        """A script reload retires the worker pool while the newest
        round's chunks are still queued on it; those chunks finish
        first, so no row is lost or written twice."""
        import json
        import os
        import pyarrow.dataset as pads
        from pyspider_ray.sources.projectdb import (LocalProjectDB,
                                                    build_handler)
        script = tmp_path / "linkproj.py"
        script.write_text(LINK_SCRIPT)
        project = LocalProjectDB([str(script)]).get_all()[0]
        cfg = CrawlConfig(total=120, n_shards=2, loop_limit=60,
                          use_ray=True, concurrency=2, batch_size=64,
                          out_dir=str(tmp_path / "reload"),
                          handler_cls=build_handler(project),
                          project=project["name"], rate=project["rate"],
                          burst=project["burst"], script_path=str(script))
        pipe = CrawlPipeline(cfg)
        pipe.seed()
        # run until the newest round's plane is in flight with results
        # still to come, then swap the script at the next boundary
        for _ in range(20):
            pipe.run_round()
            newest = pipe._pending_ctrl[-1] if pipe._pending_ctrl else {}
            if newest.get("round") == pipe.round_idx - 1 \
                    and "chunks" in newest and pipe.round_idx >= 4:
                break
        assert "chunks" in newest
        old_pool = list(pipe._workers)
        script.write_text(LINK_SCRIPT.replace("VERSION = 1", "VERSION = 2"))
        pipe.control_inbox.put({"op": "update_script"})
        swap = pipe.round_idx
        pipe.run_round()
        assert not set(map(id, old_pool)) & set(map(id, pipe._workers or []))
        pipe.run(max_rounds=200)
        pipe._flush_writes()
        ids, versions = [], set()
        for d in sorted(os.listdir(pipe.results_dir)):
            rnd = int(d.split("=")[1])
            table = pads.dataset(os.path.join(pipe.results_dir, d))
            for r in table.to_table()["result"].to_pylist():
                r = json.loads(r)
                ids.append(r["image_id"])
                # rounds dispatched before the swap ran on the old class
                assert r["version"] == (1 if rnd < swap else 2), (d, r)
                versions.add(r["version"])
        assert len(ids) == len(set(ids)) == 120
        assert versions == {1, 2}


class TestOutQueueBackpressure:
    def test_send_buffer_halts_select_until_drained(self, tmp_path):
        """W8 (scheduler.py:334-346, 465-475): admitted tasks beyond
        out_queue_limit hold in a driver-side send buffer; the next
        round dispatches FROM THE BUFFER with select halted; the crawl
        still completes exactly."""
        from pyspider_ray.pipelines import CrawlConfig, CrawlPipeline
        cfg = CrawlConfig(total=120, n_seeds=12, n_shards=2,
                          loop_limit=100, out_queue_limit=7,
                          use_ray=False,
                          out_dir=str(tmp_path / "backpressure"))
        pipe = CrawlPipeline(cfg)
        pipe.seed()
        pipe.run(max_rounds=300)
        t = pipe.results_table()
        assert len(set(t["image_id"].to_pylist())) == 120
        buffered = [m["send_buffered"] for m in pipe.metrics]
        assert max(buffered) > 0                  # backpressure engaged
        # no round ever handed more than the limit to the data plane
        assert all(m["fetched"] <= 7 for m in pipe.metrics)
        # a buffered round is followed by a drain round whose emitted
        # count equals the buffer (select halted, no fresh selection)
        for i, m in enumerate(pipe.metrics[:-1]):
            if m["send_buffered"]:
                assert pipe.metrics[i + 1]["emitted"] == m["send_buffered"]
        assert not pipe._send_buffer              # fully drained at end

    def test_drain_bypasses_gate_and_cron_keeps_ticking(self, tmp_path):
        """Buffered tasks consumed their politeness token when FIRST
        admitted; the drain round must not re-rate them (the reference
        force-sends _send_buffer without re-rating, scheduler.py:465-475)
        — so no taskid ever passes gate.admit twice — and cron ticks on
        drain rounds too (_check_cronjob runs every loop)."""
        from pyspider_ray.pipelines import CrawlConfig, CrawlPipeline
        cfg = CrawlConfig(total=60, n_seeds=12, n_shards=2,
                          loop_limit=100, out_queue_limit=5,
                          use_ray=False,
                          out_dir=str(tmp_path / "drain"))
        pipe = CrawlPipeline(cfg)
        pipe.seed()
        gated: list[str] = []
        orig_admit = pipe.gate.admit
        pipe.gate.admit = lambda batch: (
            gated.extend(t["taskid"] for t in batch) or orig_admit(batch))
        ticks = {"n": 0, "drain": 0}
        orig_tick = pipe.coord.tick_cronjobs

        def spy_tick():
            ticks["n"] += 1
            if pipe._send_buffer:
                ticks["drain"] += 1
            return orig_tick()
        pipe.coord.tick_cronjobs = spy_tick
        pipe.run(max_rounds=300)
        t = pipe.results_table()
        assert len(set(t["image_id"].to_pylist())) == 60
        assert max(m["send_buffered"] for m in pipe.metrics) > 0
        # no task rated twice: forced drain batches bypassed the gate
        assert len(gated) == len(set(gated))
        # cron ticked on every round, including the drain rounds
        assert ticks["n"] == len(pipe.metrics)
        assert ticks["drain"] > 0


class TestWorkerSubBatching:
    def test_sub_batched_chunk_matches_single_batch(self, tmp_path):
        """process_chunk slices its chunk into batch_rows sub-batches to
        bound the worker's live set; the control table and the union of
        written payload parts must be identical to the one-batch path."""
        import pyarrow as pa
        import pyarrow.parquet as pq
        import numpy as np
        from pyspider_ray.functions import synthweb
        from pyspider_ray.pipelines.crawl import _WorkerActor

        ids = np.arange(100, 170, dtype=np.uint64)
        urls = synthweb.urls_of(ids, 5)
        table = pa.table({
            "taskid": [f"t{int(i):x}" for i in ids],
            "url": urls,
            "project": ["bench"] * len(ids),
            "priority": pa.array([0] * len(ids), pa.int32()),
            "retried": pa.array([0] * len(ids), pa.int32()),
        })
        pk = {"total": 10 ** 6, "show": 20, "n_hosts": 5}
        outs = {}
        for name, rows in (("one", 10_000), ("sub", 16)):
            w = _WorkerActor({}, pk, persist_payload=True, batch_rows=rows)
            rd = str(tmp_path / name)
            ctrl = w.process_chunk(table, rd, 3)
            w.flush()
            parts = sorted((tmp_path / name).glob("part-*.parquet"))
            payload = pa.concat_tables([pq.read_table(p) for p in parts])
            outs[name] = (ctrl, payload)
        one_ctrl, one_payload = outs["one"]
        sub_ctrl, sub_payload = outs["sub"]
        assert len(list((tmp_path / "one").glob("part-*.parquet"))) == 1
        assert len(list((tmp_path / "sub").glob("part-*.parquet"))) == 5
        assert one_ctrl.sort_by("taskid").equals(sub_ctrl.sort_by("taskid"))
        assert one_payload.sort_by("image_id").equals(
            sub_payload.sort_by("image_id"))


@pytest.mark.parametrize("use_ray", [False, True])
def test_persist_payload_false_writes_no_bytes(tmp_path, request, use_ray):
    """persist_payload=False keeps the metadata columns and drops the
    image bytes on both paths: they run the same worker code."""
    if use_ray:
        request.getfixturevalue("ray_session")
    cfg = CrawlConfig(out_dir=str(tmp_path / "nobytes"), use_ray=use_ray,
                      persist_payload=False, batch_size=64, concurrency=2,
                      **dict(BASE, total=60))
    pipe = CrawlPipeline(cfg)
    pipe.seed()
    for _ in range(4):
        pipe.run_round()
    t = pipe.results_table()
    assert t.num_rows > 0
    assert "bytes" not in t.column_names
    assert {"image_id", "caption", "phash"} <= set(t.column_names)


def test_one_data_plane():
    """The crawl has one data plane: in ``pipelines/crawl.py`` every
    use of the result/control builders and of the part writer is inside
    ``_WorkerActor``, which the Ray pool and the in-process crawl both
    run."""
    import ast
    import pathlib

    from pyspider_ray.pipelines import crawl
    names = {"ResultBuilder", "control_table", "handler_result_table",
             "handler_control_table", "_write_part"}
    tree = ast.parse(pathlib.Path(crawl.__file__).read_text())
    worker = next(n for n in tree.body if isinstance(n, ast.ClassDef)
                  and n.name == "_WorkerActor")
    inside = {id(n) for n in ast.walk(worker)}
    used = [n for n in ast.walk(tree)
            if isinstance(n, ast.Name) and n.id in names]
    outside = [f"{n.id} at line {n.lineno}" for n in used
               if id(n) not in inside]
    assert not outside, outside
    assert {n.id for n in used} == names
