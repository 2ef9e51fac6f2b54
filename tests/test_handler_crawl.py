"""Handler-driven crawl integration: a user BaseHandler drives the Ray
crawl loop end-to-end (the reference's processor/processor.py:102-203 +
run.py:501-582 contract) — link-follow callbacks, result sink, cronjob
intervals (@every fires at ITS OWN interval, not the GCD), messages,
and the process_time_limit cooperative budget through the retry ladder.
"""

import json
import shutil

import numpy as np
import pytest

from pyspider_ray.functions import synthweb
from pyspider_ray.handler import BaseHandler, every
from pyspider_ray.pipelines import CrawlConfig, CrawlPipeline

TOTAL = 120
SHOW = synthweb.DEFAULT_SHOW
N_HOSTS = 5


class LinkHandler(BaseHandler):
    """The synthetic link graph expressed as a user script: on_start
    seeds, index_page parses the fetched page and follows children."""

    def on_start(self, response):
        ids = np.arange(6, dtype=np.int64)
        for url in synthweb.urls_of(ids, N_HOSTS, False):
            self.crawl(url, callback=self.index_page, priority=1)

    def index_page(self, response):
        url_id = synthweb.parse_url_id(response.url)
        caption, img = synthweb.decode_page(response.content)
        kids = synthweb.child_ids(np.asarray([url_id]), TOTAL, SHOW)[0]
        hosts = synthweb.host_of(kids, N_HOSTS, False)
        for kid, host in zip(kids, hosts):
            self.crawl(synthweb.url_of(int(kid), int(host)),
                       callback=self.index_page)
        return {"image_id": f"img-{url_id:012d}", "caption": caption,
                "n_bytes": len(img)}


class CronHandler(LinkHandler):
    @every(minutes=2)
    def job2(self):
        t = int(self.response.save["tick"])
        self.crawl(f"data:,job2/{t}", callback=self.record)

    @every(minutes=3)
    def job3(self):
        t = int(self.response.save["tick"])
        self.crawl(f"data:,job3/{t}", callback=self.record)

    def record(self, response):
        return {"fired": response.text}


class SlowHandler(BaseHandler):
    def on_start(self, response):
        self.crawl("http://site0.test/page/3", callback=self.slow,
                   process_time_limit=0.01, retries=1)

    def slow(self, response):
        import time
        time.sleep(0.05)
        return {"done": response.url}


def run_pipe(handler_cls, tmp_path, name, use_ray=False, rounds=40, **kw):
    out = str(tmp_path / name)
    shutil.rmtree(out, ignore_errors=True)
    cfg = CrawlConfig(total=TOTAL, n_hosts=N_HOSTS, n_shards=4,
                      loop_limit=100, out_dir=out, use_ray=use_ray,
                      handler_cls=handler_cls, project="handlerproj",
                      concurrency=2, **kw)
    pipe = CrawlPipeline(cfg)
    pipe.seed()
    for _ in range(rounds):
        m = pipe.run_round()
        if not m["emitted"] and not m["admitted"] and not pipe._pending_new \
                and not pipe._pending_status and not pipe._pending_ctrl \
                and pipe.coord.is_quiescent():
            break
    return pipe


def results_rows(pipe):
    t = pipe.results_table()
    return [dict(r, result=json.loads(r["result"]))
            for r in t.to_pylist()]


class TestHandlerCrawlE2E:
    def test_link_follow_full_coverage(self, tmp_path):
        """User callbacks drive the whole crawl: every reachable page
        fetched exactly once, results from the user's return dicts."""
        pipe = run_pipe(LinkHandler, tmp_path, "hl", rounds=60)
        rows = results_rows(pipe)
        ids = [r["result"]["image_id"] for r in rows]
        assert len(ids) == len(set(ids)) == TOTAL
        url_id = int(ids[0].split("-")[1])
        assert rows[0]["result"]["caption"] == synthweb.page_caption(url_id)

    def test_link_follow_ray_mode(self, tmp_path, ray_session):
        """Same handler through the Ray actor worker pool."""
        pipe = run_pipe(LinkHandler, tmp_path, "hlray", use_ray=True,
                        rounds=60)
        rows = results_rows(pipe)
        ids = [r["result"]["image_id"] for r in rows]
        assert len(ids) == len(set(ids)) == TOTAL

    def test_cronjob_intervals_independent(self, tmp_path):
        """THE cronjob-tick contract (scheduler.py:437-444 +
        base_handler.py:435-446): with @every(minutes=2) and
        @every(minutes=3) together, each fires at its own interval —
        the GCD-collapse bug would fire both every 60 s."""
        # clock_step=60: one 60s tick batch per round; run enough
        # rounds for several 360s LCM periods
        pipe = run_pipe(CronHandler, tmp_path, "cron", rounds=25,
                        clock_step=60.0)
        rows = results_rows(pipe)
        fired2 = sorted(int(r["url"].split("/")[-1]) for r in rows
                        if r["url"].startswith("data:,job2/"))
        fired3 = sorted(int(r["url"].split("/")[-1]) for r in rows
                        if r["url"].startswith("data:,job3/"))
        assert fired2 and fired3
        assert all(t % 120 == 0 for t in fired2)
        assert all(t % 180 == 0 for t in fired3)
        # intervals between consecutive fires are exactly the @every spec
        assert set(np.diff(fired2)) == {120}
        assert set(np.diff(fired3)) == {180}
        # over the same span, the 2-minute job fires ~1.5x as often.
        # The span ends at the last round whose derived tasks can have
        # completed: the task a fire derives is fetched ROUNDS_IN_FLIGHT
        # rounds after the fire, so each round in flight beyond the
        # first takes one clock_step off the span
        span = pipe.clock.now() - 1_700_000_000.0 - \
            (CrawlPipeline.ROUNDS_IN_FLIGHT - 1) * pipe.cfg.clock_step
        assert len(fired2) == len([t for t in fired2])  # sanity
        assert abs(len(fired2) - span / 120) <= 1
        assert abs(len(fired3) - span / 180) <= 1

    def test_process_time_limit_retry_ladder(self, tmp_path):
        """M14 — a deliberately-slow callback fails its task (not the
        actor) and takes the retry ladder (W4)."""
        pipe = run_pipe(SlowHandler, tmp_path, "slow", rounds=12,
                        clock_step=30.0)
        # the slow task produced NO result
        import os
        import pyarrow.dataset as pads
        pipe._flush_writes()
        rows = []
        if os.path.isdir(pipe.results_dir) and any(
                os.scandir(pipe.results_dir)):
            rows = pads.dataset(pipe.results_dir).to_table().to_pylist()
        assert all("done" not in (r.get("result") or "") for r in rows)
        # and it took the retry ladder to a terminal FAILED status
        from pyspider_ray.model import FAILED
        stored = []
        for shard_rows in pipe.coord._call_all("dump_tasks", "handlerproj"):
            stored.extend(shard_rows)
        failed = [t for t in stored if t["status"] == FAILED]
        assert len(failed) == 1
        assert failed[0]["url"] == "http://site0.test/page/3"

    def test_messages_cross_project(self, tmp_path):
        """J7 — send_message routes an _on_message task back through
        the loop (same project here: project must be registered)."""

        class MsgHandler(BaseHandler):
            def on_start(self, response):
                self.crawl("http://site0.test/page/7",
                           callback=self.page)

            def page(self, response):
                self.send_message("handlerproj", {"hello": response.url})
                return {"ok": 1}

            def on_message(self, project, msg):
                return {"got": msg}

        pipe = run_pipe(MsgHandler, tmp_path, "msg", rounds=10)
        rows = results_rows(pipe)
        got = [r for r in rows if "got" in r["result"]]
        assert len(got) == 1
        assert got[0]["result"]["got"]["hello"].endswith("/page/7")


class TestPluggableComponents:
    def test_custom_fetcher_and_sink(self, tmp_path):
        """§2.10 — fetcher-cls / ResultWorker-style sink overrides ride
        the same crawl loop (run.py --fetcher-cls analogue)."""
        import os
        import pyarrow.parquet as pq
        from pyspider_ray.stages.fetcher import SyntheticFetcher

        class TaggingFetcher(SyntheticFetcher):
            def _fetch_one(self, url, retried, etag="", fetch_type=""):
                code, content, err = super()._fetch_one(
                    url, retried, etag, fetch_type)
                return code, content, err

        class JsonlSink:
            def __call__(self, table, round_dir, part_idx):
                os.makedirs(round_dir, exist_ok=True)
                path = os.path.join(round_dir, f"part-{part_idx}.jsonl")
                with open(path, "a") as f:
                    for row in table.select(["taskid", "url"]).to_pylist():
                        f.write(json.dumps(row) + "\n")

        cfg = CrawlConfig(total=40, n_seeds=4, n_shards=2, loop_limit=100,
                          use_ray=False, out_dir=str(tmp_path / "plug"),
                          fetcher_cls=TaggingFetcher, sink_cls=JsonlSink)
        pipe = CrawlPipeline(cfg)
        pipe.seed()
        pipe.run(max_rounds=60)
        lines = []
        for root, _, files in os.walk(pipe.results_dir):
            for fn in files:
                if fn.endswith(".jsonl"):
                    lines += open(os.path.join(root, fn)).read().splitlines()
        assert len(lines) == 40     # every page went through the sink
        assert all("taskid" in json.loads(l) for l in lines)


class TestScriptCli:
    def test_crawl_from_script_file(self, tmp_path):
        """S6 e2e: a script file with # rate/# burst comments drives the
        crawl loop through the projectdb loader."""
        script = tmp_path / "myproj.py"
        script.write_text(
            "# rate: 100\n# burst: 100\n"
            "from pyspider.libs.base_handler import *\n\n"
            "class Handler(BaseHandler):\n"
            "    def on_start(self, response):\n"
            "        self.crawl('data:,seed', callback=self.page)\n\n"
            "    def page(self, response):\n"
            "        return {'seen': response.text}\n")
        from pyspider_ray.sources.projectdb import (LocalProjectDB,
                                                    build_handler)
        db = LocalProjectDB([str(script)])
        project = db.get_all()[0]
        assert project["rate"] == 100.0
        cfg = CrawlConfig(total=10, n_shards=2, loop_limit=50,
                          use_ray=False, out_dir=str(tmp_path / "cli"),
                          handler_cls=build_handler(project),
                          project=project["name"],
                          rate=project["rate"], burst=project["burst"])
        pipe = CrawlPipeline(cfg)
        pipe.seed()
        pipe.run(max_rounds=20)
        rows = results_rows(pipe)
        assert any(r["result"].get("seen") == "seed" for r in rows)


class TestCookieSession:
    def test_cookie_pure_functions(self):
        from pyspider_ray.functions.cookies import (extract_cookies,
                                                    merge_cookies,
                                                    parse_set_cookie)
        assert parse_set_cookie("sid=abc123; Path=/; HttpOnly") == \
            {"sid": "abc123"}
        jar = extract_cookies({"Set-Cookie": "a=1; Path=/\nb=2"})
        assert jar == {"a": "1", "b": "2"}
        assert merge_cookies({"a": "1"}, None, {"a": "9", "c": "3"}) == \
            {"a": "9", "c": "3"}

    def test_cookie_session_through_crawl(self, tmp_path):
        """T8 — a handler reads response.cookies and threads them onto a
        follow; the jar lands in the stored task's fetch.cookies and
        pack_request folds it into the Cookie header a real fetch actor
        would send."""

        class CookieHandler(BaseHandler):
            def on_start(self, response):
                self.crawl("http://site0.test/page/5",
                           callback=self.login)

            def login(self, response):
                sid = response.cookies["sid"]
                self.crawl("http://site0.test/page/6", callback=self.page,
                           cookies={"sid": sid})
                return {"sid": sid}

            def page(self, response):
                return {"ok": response.url}

        pipe = run_pipe(CookieHandler, tmp_path, "cook", rounds=12,
                        session_cookies=True)
        rows = results_rows(pipe)
        sid_rows = [r for r in rows if "sid" in r["result"]]
        assert len(sid_rows) == 1
        sid = sid_rows[0]["result"]["sid"]
        assert sid and sid != ""
        # the page/6 follow rode the dict path with its cookie jar
        stored = []
        for shard_rows in pipe.coord._call_all("dump_tasks", "handlerproj"):
            stored.extend(shard_rows)
        follow = [t for t in stored if t["url"].endswith("/page/6")]
        assert len(follow) == 1
        assert (follow[0].get("fetch") or {}).get("cookies") == {"sid": sid}
        # and page/6 was fetched+processed
        assert any(r["result"].get("ok", "").endswith("/page/6")
                   for r in rows)
        # request packing folds the jar into the Cookie header
        from pyspider_ray.functions.requests_pack import pack_request
        spec = pack_request(follow[0]["url"], follow[0])
        assert f"sid={sid}" in spec["headers"]["Cookie"]


class TestHandlerCheckpointResume:
    def test_resume_handler_crawl(self, tmp_path):
        """M4 in handler mode: checkpoint mid-crawl, rebuild from disk,
        finish; no page fetched twice, results complete."""
        out = str(tmp_path / "hresume")
        cfg = CrawlConfig(total=TOTAL, n_hosts=N_HOSTS, n_shards=4,
                          loop_limit=100, out_dir=out, use_ray=False,
                          handler_cls=LinkHandler, project="handlerproj",
                          concurrency=2)
        pipe = CrawlPipeline(cfg)
        pipe.seed()
        for _ in range(3):
            pipe.run_round()
        pipe.checkpoint()
        fetched_mid = sum(m["fetched"] for m in pipe.metrics)
        resumed = CrawlPipeline.resume(cfg)
        assert resumed.round_idx == pipe.round_idx
        assert sum(m["fetched"] for m in resumed.metrics) == fetched_mid
        for _ in range(60):
            m = resumed.run_round()
            if not m["emitted"] and not m["admitted"] \
                    and not resumed._pending_new \
                    and not resumed._pending_status \
                    and not resumed._pending_ctrl \
                    and resumed.coord.is_quiescent():
                break
        rows = results_rows(resumed)
        ids = [r["result"]["image_id"] for r in rows]
        assert len(ids) == len(set(ids)) == TOTAL


class TestSendMessageCli:
    def test_spooled_message_reaches_on_message(self, tmp_path):
        """The send_message CLI path (reference run.py:808-835): a
        message spooled into <out_dir>/inbox fires the project's
        on_message through the normal crawl loop, and the inbox file is
        consumed."""
        import os
        import subprocess
        import sys
        from pyspider_ray.send_message import send_message

        class InboxHandler(BaseHandler):
            def on_start(self, response):
                self.crawl("http://site0.test/page/2",
                           callback=self.page)

            def page(self, response):
                return {"ok": 1}

            def on_message(self, project, msg):
                return {"injected": msg, "from": project}

        out = str(tmp_path / "inboxed")
        cfg = CrawlConfig(total=TOTAL, n_hosts=N_HOSTS, n_shards=2,
                          loop_limit=100, out_dir=out, use_ray=False,
                          handler_cls=InboxHandler, project="handlerproj",
                          concurrency=2)
        pipe = CrawlPipeline(cfg)
        pipe.seed()
        pipe.run_round()
        # one message via the library call, one via the actual CLI
        send_message(out, "handlerproj", {"cmd": "reload"})
        subprocess.run(
            [sys.executable, "-m", "pyspider_ray.send_message",
             "--out", out, "handlerproj", '{"cmd": "rotate"}'],
            check=True, cwd="/root/repo", capture_output=True)
        for _ in range(12):
            m = pipe.run_round()
            if not m["emitted"] and not m["admitted"] \
                    and not pipe._pending_new and not pipe._pending_status \
                    and not pipe._pending_ctrl and pipe.coord.is_quiescent():
                break
        rows = results_rows(pipe)
        injected = sorted(r["result"]["injected"]["cmd"] for r in rows
                          if "injected" in r["result"])
        assert injected == ["reload", "rotate"]
        assert all(r["result"]["from"] == "__command__" for r in rows
                   if "injected" in r["result"])
        assert os.listdir(os.path.join(out, "inbox")) == []   # consumed
