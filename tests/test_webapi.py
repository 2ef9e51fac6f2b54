"""Read-only results/metrics HTTP API (pyspider_ray/webapi.py) — the
reference's webui data surface (webui/result.py:20-54) served over
stdlib http.server against a finished crawl."""

import csv
import io
import json
import urllib.request

import pytest

from pyspider_ray.pipelines import CrawlConfig, CrawlPipeline
from pyspider_ray import webapi


def _get(base, path):
    try:
        with urllib.request.urlopen(base + path, timeout=5) as r:
            return (r.status, r.headers.get("Content-Type"),
                    r.read().decode())
    except urllib.error.HTTPError as e:
        return e.code, e.headers.get("Content-Type"), e.read().decode()


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    out = tmp_path_factory.mktemp("webapi") / "crawl"
    cfg = CrawlConfig(total=60, n_seeds=6, n_shards=2, loop_limit=50,
                      use_ray=False, out_dir=str(out))
    pipe = CrawlPipeline(cfg)
    pipe.seed()
    pipe.run(max_rounds=100)
    srv = webapi.serve(pipe)
    base = f"http://127.0.0.1:{srv.server_address[1]}"
    yield base, pipe
    srv.shutdown()


class TestResultsEndpoint:
    def test_paging(self, served):
        base, pipe = served
        code, ctype, body = _get(base, "/results?offset=0&limit=10")
        assert code == 200 and ctype.startswith("application/json")
        page = json.loads(body)
        assert page["count"] == 60
        assert len(page["results"]) == 10
        # distinct second page (resultdb.select offset semantics)
        page2 = json.loads(_get(base, "/results?offset=10&limit=10")[2])
        ids1 = {r["taskid"] for r in page["results"]}
        ids2 = {r["taskid"] for r in page2["results"]}
        assert ids1.isdisjoint(ids2)
        # binary payload columns are summarized, not shipped
        assert all(str(r.get("bytes", "")).startswith("<")
                   for r in page["results"])

    def test_project_filter_and_tail_page(self, served):
        base, pipe = served
        page = json.loads(_get(base, "/results?project=bench&offset=55"
                                     "&limit=20")[2])
        assert page["count"] == 60
        assert len(page["results"]) == 5      # tail page clipped
        missing = json.loads(_get(base, "/results?project=nosuch")[2])
        assert missing["count"] == 0 and missing["results"] == []

    def test_dump_json_txt_csv(self, served):
        base, pipe = served
        code, ctype, body = _get(base, "/results/dump/bench.json?limit=5")
        assert code == 200
        rows = [json.loads(line) for line in body.splitlines()]
        assert len(rows) == 5 and all("url" in r for r in rows)
        code, ctype, body = _get(base, "/results/dump/bench.txt?limit=3")
        assert code == 200 and ctype.startswith("text/plain")
        assert all("\t" in line for line in body.splitlines())
        code, ctype, body = _get(base, "/results/dump/bench.csv?limit=5")
        assert code == 200 and ctype.startswith("text/csv")
        parsed = list(csv.reader(io.StringIO(body)))
        assert len(parsed) == 6               # header + 5 rows
        assert "url" in parsed[0]

    def test_dump_bad_format_400(self, served):
        base, _ = served
        code, _, _ = _get(base, "/results/dump/bench.xml")
        assert code == 400


class TestMetricsEndpoints:
    def test_counters_windows(self, served):
        base, pipe = served
        for window in ("5m", "1h", "1d", "all"):
            body = json.loads(_get(base, f"/counters?window={window}")[2])
            assert "bench" in body
            assert body["bench"].get("success", 0) > 0
        code, _, _ = _get(base, "/counters?window=bogus")
        assert code == 400

    def test_active_tasks_ring(self, served):
        base, pipe = served
        tasks = json.loads(_get(base, "/active_tasks")[2])
        assert 0 < len(tasks) <= 100          # T9 ring bound
        # newest-first ordering
        times = [t[0] for t in tasks]
        assert times == sorted(times, reverse=True)

    def test_round_metrics(self, served):
        base, pipe = served
        metrics = json.loads(_get(base, "/metrics")[2])
        assert metrics and metrics[0]["round"] == 0
        assert sum(m["fetched"] for m in metrics) == 60

    def test_unknown_path_404(self, served):
        base, _ = served
        code, _, body = _get(base, "/nope")
        assert code == 404 and "endpoints" in body


def _post(base, path, body=None):
    data = json.dumps(body or {}).encode()
    req = urllib.request.Request(
        base + path, data=data,
        headers={"Content-Type": "application/json"}, method="POST")
    try:
        with urllib.request.urlopen(req, timeout=10) as r:
            return r.status, json.loads(r.read().decode())
    except urllib.error.HTTPError as e:
        return e.code, json.loads(e.read().decode())


@pytest.fixture()
def live(tmp_path):
    """A MID-CRAWL pipeline (not run to quiescence) + its API server,
    for the runtime-control e2e: pause → select halts → rate update →
    resume."""
    cfg = CrawlConfig(total=400, n_seeds=8, n_shards=2, loop_limit=10,
                      use_ray=False, out_dir=str(tmp_path / "crawl"))
    pipe = CrawlPipeline(cfg)
    pipe.seed()
    for _ in range(3):
        pipe.run_round()
    srv = webapi.serve(pipe)
    base = f"http://127.0.0.1:{srv.server_address[1]}"
    yield base, pipe
    srv.shutdown()


class TestRuntimeControl:
    def test_pause_halts_select_then_resume(self, live):
        base, pipe = live
        # sanity: crawl is live and selecting
        m = pipe.run_round()
        assert m["emitted"] > 0
        code, out = _post(base, "/projects/bench/pause")
        assert code == 200 and out["queued"]
        m = pipe.run_round()               # command applies this round
        assert m["emitted"] == 0           # select halted
        rows = json.loads(_get(base, "/projects")[2])
        # manual pause halts SELECTION only — the project stays active
        # (active=False is the reference's STOP and rejects tasks)
        assert rows == [{"name": "bench", "active": True,
                         "paused": True, "rate": rows[0]["rate"],
                         "burst": rows[0]["burst"],
                         "min_tick": rows[0]["min_tick"]}]
        # a task arriving WHILE paused must queue, not drop
        code, out = _post(base, "/newtask", {
            "taskid": "paused-inject",            # no "project": defaulted
            "url": "http://site0.test/p/888888",
            "schedule": {"priority": 9}})
        assert code == 200
        m = pipe.run_round()
        assert m["emitted"] == 0           # stays halted
        code, out = _post(base, "/projects/bench/unpause")
        assert code == 200 and out["queued"]
        m = pipe.run_round()
        assert m["emitted"] > 0            # select resumed
        for _ in range(4):
            pipe.run_round()
        assert "paused-inject" in pipe.seen_taskids()   # nothing lost

    def test_rate_update_takes_effect_next_round(self, live):
        base, pipe = live
        code, out = _post(base, "/projects/bench/rate",
                          {"rate": 2.5, "burst": 7.0})
        assert code == 200 and out["queued"]
        pipe.run_round()
        rt = pipe.coord.projects["bench"]
        assert rt.cfg.rate == 2.5 and rt.cfg.burst == 7.0
        assert rt.bucket.rate == 2.5 and rt.bucket.burst == 7.0
        code, _ = _post(base, "/projects/bench/rate", {})
        assert code == 400                 # need rate and/or burst

    def test_newtask_and_message_injection(self, live):
        base, pipe = live
        task = {"taskid": "tcontrol1", "project": "bench",
                "url": "http://site0.test/p/999999",
                "schedule": {"priority": 9}}
        code, out = _post(base, "/newtask", task)
        assert code == 200 and out["queued"]
        code, out = _post(base, "/messages",
                          {"project": "bench", "message": {"k": 1}})
        assert code == 200 and out["queued"]
        pipe.apply_controls()
        pending = {t["taskid"] for t in pipe._pending_new}
        assert "tcontrol1" in pending
        assert any(t["url"] == "data:,on_message"
                   for t in pipe._pending_new)
        code, _ = _post(base, "/newtask", {"url": "x"})
        assert code == 400                 # missing taskid

    def test_queues_and_task_lookup(self, live):
        base, pipe = live
        sizes = json.loads(_get(base, "/queues")[2])
        assert sizes.get("bench", 0) > 0
        # a known seed task is inspectable by (project, taskid)
        seed = pipe.seed_tasks()[0]
        code, _, body = _get(base, f"/task?project=bench"
                                   f"&taskid={seed['taskid']}")
        assert code == 200
        task = json.loads(body)
        assert task["taskid"] == seed["taskid"]
        assert task["url"] == seed["url"]
        code, _, _ = _get(base, "/task?project=bench&taskid=nosuch")
        assert code == 404
        code, _, _ = _get(base, "/task?project=bench")
        assert code == 400


DEBUG_SCRIPT = """
from pyspider.libs.base_handler import BaseHandler

class Handler(BaseHandler):
    def on_start(self, response):
        print("debugging", response.url)
        self.crawl("data:,next-page", callback="detail")
        return {"body": response.text}

    def detail(self, response):
        return {"d": 1}
"""


class TestDebugEndpoint:
    def test_debug_one_url_end_to_end(self, live):
        base, _ = live
        code, out = _post(base, "/debug", {
            "script": DEBUG_SCRIPT, "url": "data:,hello"})
        assert code == 200
        assert out["ok"] and out["exception"] is None
        assert out["fetch"]["status_code"] == 200
        assert out["result"] == {"body": "hello"}
        assert len(out["follows"]) == 1
        assert out["follows"][0]["url"] == "data:,next-page"
        assert out["follows"][0]["process"]["callback"] == "detail"
        assert "debugging data:,hello" in out["logs"]

    def test_debug_edited_script_and_task(self, live):
        base, _ = live
        edited = DEBUG_SCRIPT.replace('{"d": 1}', '{"d": 2}')
        task = {"taskid": "t1", "project": "__debug__",
                "url": "data:,detail-body",
                "process": {"callback": "detail"}}
        code, out = _post(base, "/debug",
                          {"script": edited, "task": task})
        assert code == 200 and out["result"] == {"d": 2}

    def test_debug_callback_exception_is_captured(self, live):
        base, _ = live
        bad = DEBUG_SCRIPT.replace('return {"body": response.text}',
                                   'raise RuntimeError("boom")')
        code, out = _post(base, "/debug",
                          {"script": bad, "url": "data:,x"})
        assert code == 200                 # debug never 500s on user code
        assert not out["ok"] and "boom" in out["exception"]

    def test_debug_script_error_and_missing_fields(self, live):
        base, _ = live
        code, out = _post(base, "/debug",
                          {"script": "def broken(:"})
        assert code == 200 and "script error" in out["exception"]
        code, _ = _post(base, "/debug", {"url": "data:,x"})
        assert code == 400                 # need script


SCRIPT_V1 = """# rate: 100
# burst: 100
from pyspider.libs.base_handler import *

class Handler(BaseHandler):
    def on_start(self, response):
        self.crawl('data:,seed1', callback=self.page)

    def page(self, response):
        return {'version': 1, 'seen': response.text}
"""

SCRIPT_V2 = SCRIPT_V1.replace("# rate: 100", "# rate: 7") \
                     .replace("'version': 1", "'version': 2")


class TestScriptEditor:
    def _results(self, pipe):
        rows = pipe.results_table().to_pylist()
        return [json.loads(r["result"]) for r in rows if r.get("result")]

    def test_save_script_hot_swaps_handler(self, tmp_path):
        from pyspider_ray.sources.projectdb import (LocalProjectDB,
                                                    build_handler)
        script = tmp_path / "editproj.py"
        script.write_text(SCRIPT_V1)
        db = LocalProjectDB([str(script)])
        project = db.get_all()[0]
        cfg = CrawlConfig(total=10, n_shards=2, loop_limit=50,
                          use_ray=False, out_dir=str(tmp_path / "out"),
                          handler_cls=build_handler(project),
                          project=project["name"],
                          rate=project["rate"], burst=project["burst"],
                          script_path=str(script))
        pipe = CrawlPipeline(cfg)
        pipe.seed()
        for _ in range(6):
            pipe.run_round()
        v1 = self._results(pipe)
        assert any(r.get("version") == 1 for r in v1)
        old_worker = pipe._local_worker
        srv = webapi.serve(pipe)
        base = f"http://127.0.0.1:{srv.server_address[1]}"
        try:
            # broken script → 400, file untouched
            code, out = _post(base, f"/projects/{cfg.project}/script",
                              {"script": "def broken(:"})
            assert code == 400
            assert script.read_text() == SCRIPT_V1
            # valid new version → saved + queued
            code, out = _post(base, f"/projects/{cfg.project}/script",
                              {"script": SCRIPT_V2})
            assert code == 200 and out["saved"] and out["queued"]
            assert script.read_text() == SCRIPT_V2
            pipe.run_round()      # hot swap applies at the boundary
            # the old-class worker is retired and its writer stopped
            assert pipe._local_worker is not old_worker
            assert not old_worker._writer.is_alive()
            rt = pipe.coord.projects[cfg.project]
            assert rt.cfg.rate == 7.0       # header comment re-read
            # a fresh task now runs through the NEW handler class
            code, _ = _post(base, "/newtask", {
                "taskid": "edit-seed2", "project": cfg.project,
                "url": "data:,seed2",
                "process": {"callback": "page"},
                "schedule": {"priority": 9}})
            assert code == 200
            for _ in range(6):
                pipe.run_round()
            versions = {r["seen"]: r["version"]
                        for r in self._results(pipe) if "seen" in r}
            assert versions.get("seed2") == 2
            assert versions.get("seed1") == 1    # old result unchanged
        finally:
            srv.shutdown()

    def test_save_script_409_when_not_script_driven(self, live):
        base, _ = live
        code, out = _post(base, "/projects/bench/script",
                          {"script": SCRIPT_V1})
        assert code == 409

    def test_save_script_hot_swaps_worker_pool_ray_mode(
            self, tmp_path, ray_session):
        """Ray mode: the swap retires the persistent worker actors and
        the next dispatch spawns a pool carrying the new class."""
        from pyspider_ray.sources.projectdb import (LocalProjectDB,
                                                    build_handler)
        script = tmp_path / "rayproj.py"
        script.write_text(SCRIPT_V1)
        project = LocalProjectDB([str(script)]).get_all()[0]
        cfg = CrawlConfig(total=10, n_shards=2, loop_limit=50,
                          use_ray=True, concurrency=2,
                          out_dir=str(tmp_path / "rayout"),
                          handler_cls=build_handler(project),
                          project=project["name"],
                          rate=project["rate"], burst=project["burst"],
                          script_path=str(script))
        pipe = CrawlPipeline(cfg)
        pipe.seed()
        for _ in range(6):
            pipe.run_round()
        old_pool = list(getattr(pipe, "_workers", None) or [])
        assert old_pool
        script.write_text(SCRIPT_V2)
        pipe.control_inbox.put({"op": "update_script"})
        pipe.run_round()
        assert getattr(pipe, "_workers", None) in (None, [])
        pipe._pending_new.append({
            "taskid": "ray-seed2", "project": cfg.project,
            "url": "data:,seed2", "process": {"callback": "page"},
            "schedule": {"priority": 9}})
        for _ in range(6):
            pipe.run_round()
        pipe._flush_writes()
        versions = {r["seen"]: r["version"]
                    for r in self._results(pipe) if "seen" in r}
        assert versions.get("seed2") == 2
        assert versions.get("seed1") == 1
