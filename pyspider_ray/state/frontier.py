"""Frontier shard: pyspider's scheduler semantics over one urlhash range.

The reference runs ONE scheduler process holding every project's task
queue (docs/Architecture.md:35).  Here that state is hash-partitioned:
shard *i* owns every task with ``urlhash % n_shards == i`` and holds,
per project, the priority/time/processing queues (state.task_queue)
and the exact URL-seen store (the taskdb role, scheduler.py:813-823).
The reference's ``ThreadBaseScheduler`` routes work by
``hash(taskid) % threads`` (scheduler.py:1286-1296), which is exactly
this partitioning — per-key
ordering is the real invariant, so per-shard ordering + deterministic
driver-side interleave reproduces the single-heap order.

Semantics ported method-by-method (file:line cite per method):

- ``on_request``      — scheduler.py:813-823 (J1) + INQUEUE_LIMIT
- ``on_new_request``  — scheduler.py:825-837
- ``on_old_request``  — scheduler.py:839-887 (restart rules J2, postpone
                        D5, cancel D6)
- ``on_task_status``  — scheduler.py:889-911 (J3 processing semi-join)
- ``on_task_done``    — scheduler.py:914-935 (auto_recrawl W5)
- ``on_task_failed``  — scheduler.py:937-988 (retry ladder W4)
- ``select``          — the per-shard half of _check_select
                        (scheduler.py:463-566): check_update + budgeted,
                        bucket-gated pops, hydration (J4)

At 100 TB scale the in-memory store keeps only the compact scheduling
tuple per task (~100 B); payload & track history stay columnar in the
frontier Parquet/Lance table, re-joined by taskid when hydrating.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..model import (ACTIVE, BAD, DEFAULT_RETRY_DELAY, DEFAULT_SCHEDULE,
                     FAILED, SUCCESS)
from .clock import SequenceSource, wall_clock
from .task_queue import TaskQueue


class ProjectConfig:
    """Broadcastable project row (projectdb, database/base/projectdb.py:12-25)."""

    def __init__(self, name: str, rate: float = 1.0, burst: float = 3.0,
                 active: bool = True, retry_delay: dict | None = None,
                 min_tick: int = 0, crawl_config: dict | None = None,
                 paused: bool = False):
        self.name = name
        self.rate = rate
        self.burst = burst
        self.active = active
        # manual pause (webapi /projects/<p>/pause): halts SELECTION
        # only — inbound tasks still verify and queue, unlike
        # active=False (the reference's STOP status) which rejects them
        self.paused = paused
        self.retry_delay = retry_delay or dict(DEFAULT_RETRY_DELAY)
        self.min_tick = min_tick
        self.crawl_config = crawl_config or {}


def _sched(task: dict) -> dict:
    return task.get("schedule") or {}


class FrontierShard:
    def __init__(self, shard_id: int = 0, n_shards: int = 1,
                 clock: Callable[[], float] = wall_clock,
                 inqueue_limit: int = 0,
                 processing_timeout: float = 10 * 60):
        self.shard_id = shard_id
        self.n_shards = n_shards
        self._clock = clock
        self.inqueue_limit = inqueue_limit
        self.processing_timeout = processing_timeout
        self._seq = SequenceSource(base=shard_id << 48)
        self.projects: dict[str, ProjectConfig] = {}
        self.queues: dict[str, TaskQueue] = {}
        # exact URL-seen store: (project, taskid) -> task dict
        self.store: dict[tuple[str, str], dict] = {}
        self._postponed: list[dict] = []
        self.counters: dict[tuple[str, str], int] = {}
        self.emitted_log: list[str] = []  # taskids in emission order (tests)

    # -- project config -----------------------------------------------------
    def update_project(self, cfg: ProjectConfig) -> None:
        self.projects[cfg.name] = cfg
        tq = self.queues.get(cfg.name)
        if tq is None:
            tq = TaskQueue(rate=cfg.rate, burst=cfg.burst, clock=self._clock,
                           sequence=self._seq)
            tq.processing_timeout = self.processing_timeout
            self.queues[cfg.name] = tq
        if cfg.active:
            tq.rate, tq.burst = cfg.rate, cfg.burst
        else:
            tq.rate, tq.burst = 0, 0

    def _queue(self, project: str) -> TaskQueue:
        if project not in self.queues:
            self.update_project(ProjectConfig(project))
        return self.queues[project]

    def _count(self, project: str, key: str, delta: int = 1) -> None:
        k = (project, key)
        self.counters[k] = self.counters.get(k, 0) + delta

    def task_verify(self, task: dict) -> bool:
        """scheduler.py:297-315 — drop malformed / unknown-project tasks."""
        for field in ("taskid", "project", "url"):
            if not task.get(field):
                return False
        cfg = self.projects.get(task["project"])
        return cfg is not None and cfg.active

    # -- bootstrap (S1: taskdb.load_tasks, scheduler.py:263-280) -------------
    def load_tasks(self, rows: list[dict]) -> int:
        n = 0
        for task in rows:
            key = (task["project"], task["taskid"])
            self.store[key] = task
            if task.get("status", ACTIVE) == ACTIVE:
                sched = _sched(task) or DEFAULT_SCHEDULE
                self._queue(task["project"]).put(
                    task["taskid"],
                    sched.get("priority", 0),
                    sched.get("exetime", 0),
                    sequence=task.get("seq"))
                n += 1
        return n

    # -- new-task path -------------------------------------------------------
    def on_request_batch(self, tasks: list[dict]) -> dict:
        """Drain one round's new-task batch (already per-batch deduped by
        the pipeline, D2).  Replays postponed force_updates first
        (scheduler.py:374-385)."""
        stats = {"new": 0, "restart": 0, "ignored": 0, "cancel": 0,
                 "overflow": 0, "invalid": 0, "postponed": 0}
        pending, self._postponed = self._postponed, []
        for task in pending:
            if self._queue(task["project"]).is_processing(task["taskid"]):
                self._postponed.append(task)
            else:
                self._dispatch_request(task, stats)
        for task in tasks:
            if not self.task_verify(task):
                stats["invalid"] += 1
                continue
            # in-queue dedup (D3, scheduler.py:403-406)
            if task["taskid"] in self._queue(task["project"]):
                if not _sched(task).get("force_update"):
                    stats["ignored"] += 1
                    continue
            self._dispatch_request(task, stats)
        return stats

    def _own_rows(self, table):
        """Filter a shared control table down to this shard's hash range
        (``urlhash % n_shards == shard_id``).  The driver ``ray.put``s
        the round's full control table ONCE and every shard slices its
        own rows zero-copy from the object store — idempotent on a
        pre-routed sub-table, so both fan-out styles work."""
        import numpy as np
        import pyarrow as pa
        h = table["urlhash"].to_numpy(zero_copy_only=False)
        mask = (h % self.n_shards) == self.shard_id
        return table if mask.all() else table.filter(pa.array(mask))

    def on_status_table(self, table) -> dict:
        """Columnar status ingestion over the shared round table (see
        ``_own_rows``); pack dicts are built here, in parallel across
        shards, instead of on the driver.  Returns the usual stats plus
        a ``tail`` of (project, process_ok) outcomes for the
        coordinator's active-task ring (pause FSM)."""
        table = self._own_rows(table)
        cols = {name: table[name].to_pylist() for name in table.column_names}
        stats = {"done": 0, "retry": 0, "failed": 0, "not_processing": 0,
                 "bad_pack": 0, "accepted": []}
        outcomes: list[tuple[str, bool]] = []
        etags = cols.get("etag")
        lms = cols.get("last_modified")
        for i in range(len(cols["taskid"])):
            pack = {
                "taskid": cols["taskid"][i],
                "urlhash": cols["urlhash"][i],
                "project": cols["project"][i],
                "url": cols["url"][i],
                "seq": cols["seq"][i],
                "etag": (etags[i] if etags else None),
                "last_modified": (lms[i] if lms else None),
                "track": {
                    "fetch_ok": cols["status_code"][i] < 400,
                    "fetch_time": cols["fetch_time"][i],
                    "status_code": cols["status_code"][i],
                    "process_ok": bool(cols["process_ok"][i]),
                    "process_time": cols["process_time"][i],
                    "follows": cols["n_follows"][i],
                },
            }
            if self._on_task_status(pack, stats):
                outcomes.append((pack["project"], pack["track"]["process_ok"]))
        stats.pop("accepted")
        stats["tail"] = outcomes[-100:]
        return stats

    def on_follow_table(self, table, project: str, priority: int) -> dict:
        """Columnar follow ingestion over the shared round table: filter
        to this shard's hash range (``_own_rows``), then delegate to
        ``on_follow_batch``.  Global first-wins dedup and seq assignment
        already happened on the driver (equal urlhashes route to one
        shard, so the filter never splits a dedup group)."""
        table = self._own_rows(table)
        if not len(table):
            return {}
        has_cb = "callback" in table.column_names
        return self.on_follow_batch(
            table["taskid"].to_pylist(),
            table["urlhash"].to_pylist(),
            table["url"].to_pylist(),
            table["host"].to_pylist(),
            table["seq"].to_pylist(),
            project, priority,
            table["callback"].to_pylist() if has_cb else None,
            table["save"].to_pylist() if has_cb else None,
            table["priority"].to_pylist() if has_cb else None)

    def on_follow_batch(self, taskids: list[str], urlhashes: list[int],
                        urls: list[str], hosts: list[str], seqs: list[int],
                        project: str, priority: int,
                        callbacks: list[str] | None = None,
                        saves: list[str] | None = None,
                        priorities: list[int] | None = None) -> dict:
        """Columnar fast path for plain follow links (no force_update /
        itag / cancel / age): a link whose taskid is already queued or
        stored is ignored (D3/D4 with age=-1 semantics), so task dicts
        are only built for genuinely new URLs.  Behaviorally identical
        to routing each link through on_request_batch; vectorized so the
        80k-links-per-round control stream doesn't serialize on the
        driver.  Handler-driven crawls ride per-follow ``callbacks`` /
        ``saves`` (JSON strings) / ``priorities`` columns; richer
        schedules take the dict path (on_request_batch)."""
        stats = {"new": 0, "ignored": 0, "overflow": 0}
        tq = self._queue(project)
        store = self.store
        limit = self.inqueue_limit
        now = self._clock()
        for i, taskid in enumerate(taskids):
            if taskid in tq or (project, taskid) in store:
                stats["ignored"] += 1
                continue
            if limit and len(tq) >= limit:
                stats["overflow"] += 1
                continue
            prio = priorities[i] if priorities is not None else priority
            task = {"taskid": taskid, "urlhash": urlhashes[i],
                    "project": project, "url": urls[i], "host": hosts[i],
                    "schedule": {"priority": prio},
                    "process": {"callback": (callbacks[i] if callbacks
                                             else "on_page") or "on_page"},
                    "seq": seqs[i], "status": ACTIVE,
                    "updatetime": now}
            if saves is not None and saves[i]:
                task["fetch"] = {"save": saves[i]}
            store[(project, taskid)] = task
            tq.put(taskid, prio, 0, sequence=seqs[i])
            self._count(project, "pending")
            stats["new"] += 1
        return stats

    def _dispatch_request(self, task: dict, stats: dict) -> None:
        project = task["project"]
        if self.inqueue_limit and len(self._queue(project)) >= self.inqueue_limit:
            stats["overflow"] += 1
            return
        old = self.store.get((project, task["taskid"]))
        if old is not None:
            self._on_old_request(task, old, stats)
        else:
            self._on_new_request(task, stats)

    def _put(self, task: dict) -> None:
        sched = _sched(task)
        self._queue(task["project"]).put(
            task["taskid"],
            sched.get("priority", DEFAULT_SCHEDULE["priority"]),
            sched.get("exetime", DEFAULT_SCHEDULE["exetime"]),
            sequence=task.get("seq"))

    def _on_new_request(self, task: dict, stats: dict) -> None:
        task["status"] = ACTIVE
        task["updatetime"] = self._clock()
        key = (task["project"], task["taskid"])
        self.store[key] = task
        self._put(task)
        self._count(task["project"], "pending")
        stats["new"] += 1

    def _on_old_request(self, task: dict, old: dict, stats: dict) -> None:
        now = self._clock()
        sched, old_sched = _sched(task), _sched(old)
        if sched.get("force_update") and \
                self._queue(task["project"]).is_processing(task["taskid"]):
            self._postponed.append(task)
            stats["postponed"] += 1
            return

        restart = False
        age = sched.get("age")
        age = DEFAULT_SCHEDULE["age"] if age is None else age
        if sched.get("itag") and sched["itag"] != old_sched.get("itag"):
            restart = True
        elif age >= 0 and age + (old.get("lastcrawltime") or 0) < now:
            restart = True
        elif sched.get("force_update"):
            restart = True
        if not restart:
            stats["ignored"] += 1
            return

        key = (task["project"], task["taskid"])
        # taskdb.update semantics: the new row overlays the old one, keeping
        # accumulated fields (lastcrawltime, etag, track) it doesn't carry
        for k, v in old.items():
            task.setdefault(k, v)
        if sched.get("cancel"):
            task["status"] = BAD
            task["updatetime"] = now
            self.store[key] = task
            self._queue(task["project"]).delete(task["taskid"])
            stats["cancel"] += 1
            return

        task["status"] = ACTIVE
        task["updatetime"] = now
        self.store[key] = task
        self._put(task)
        if old.get("status") != ACTIVE:
            self._count(task["project"], "pending")
        # restarting a finished task also retracts it from the all-window
        # success/failed totals (scheduler.py:882-885)
        if old.get("status") == SUCCESS:
            self._count(task["project"], "success", -1)
        elif old.get("status") == FAILED:
            self._count(task["project"], "failed", -1)
        stats["restart"] += 1

    # -- status path ---------------------------------------------------------
    def on_status_batch(self, packs: list[dict]) -> dict:
        stats = {"done": 0, "retry": 0, "failed": 0, "not_processing": 0,
                 "bad_pack": 0, "accepted": []}
        for i, pack in enumerate(packs):
            if self._on_task_status(pack, stats):
                stats["accepted"].append(i)
        return stats

    def _on_task_status(self, pack: dict, stats: dict) -> bool:
        """Returns True iff the pack was accepted (fed to done/failed),
        mirroring the early-returns of scheduler.py:889-898."""
        try:
            process_ok = pack["track"]["process_ok"]
        except (KeyError, TypeError):
            stats["bad_pack"] += 1
            return False
        if not self._queue(pack["project"]).done(pack["taskid"]):
            stats["not_processing"] += 1  # scheduler.py:893-895 (W7)
            return False
        if process_ok:
            self._on_task_done(pack)
            stats["done"] += 1
        else:
            retried = self._on_task_failed(pack)
            stats["retry" if retried else "failed"] += 1
        return True

    def _merge_track(self, pack: dict) -> dict:
        key = (pack["project"], pack["taskid"])
        task = self.store.get(key)
        if task is None:
            task = pack
            self.store[key] = task
        else:
            task["track"] = pack.get("track")
            if "schedule" in pack and pack["schedule"] is not None:
                task["schedule"] = pack["schedule"]
        return task

    def _on_task_done(self, pack: dict) -> None:
        now = self._clock()
        task = self._merge_track(pack)
        task["status"] = SUCCESS
        task["lastcrawltime"] = now
        if pack.get("etag"):     # carried for conditional re-crawl (J5)
            task["etag"] = pack["etag"]
        if pack.get("last_modified"):
            task["last_modified"] = pack["last_modified"]
        sched = _sched(task)
        # parity with scheduler.py:919-924: the gate is auto_recrawl plus
        # presence of an ``age`` value, not its sign
        if sched.get("auto_recrawl") and sched.get("age") is not None:
            task["status"] = ACTIVE
            sched["exetime"] = now + sched["age"]
            if "seq" in pack:        # fresh enqueue sequence (AtomInt parity)
                task["seq"] = pack["seq"]
            self._put(task)
        task["updatetime"] = now
        self._count(task["project"], "success")
        self._count(task["project"], "pending", -1)

    def _on_task_failed(self, pack: dict) -> bool:
        """Retry ladder (W4).  Returns True if re-queued for retry."""
        now = self._clock()
        task = self._merge_track(pack)
        sched = task.setdefault("schedule", {})
        retries = sched.get("retries", DEFAULT_SCHEDULE["retries"])
        retried = sched.get("retried") or 0
        cfg = self.projects.get(task["project"])
        ladder = (cfg.retry_delay if cfg else None) or DEFAULT_RETRY_DELAY
        next_delay = ladder.get(retried, ladder.get("", DEFAULT_RETRY_DELAY[""]))

        # ``age`` participates by presence, not sign (scheduler.py:954-960)
        age = sched.get("age")
        has_age = age is not None
        if sched.get("auto_recrawl") and has_age:
            next_delay = min(next_delay, age)
        else:
            if retried >= retries:
                next_delay = -1
            elif has_age and next_delay > age:
                next_delay = age

        if next_delay < 0:
            task["status"] = FAILED
            task["lastcrawltime"] = now
            task["updatetime"] = now
            self._count(task["project"], "failed")
            self._count(task["project"], "pending", -1)
            return False
        sched["retried"] = retried + 1
        sched["exetime"] = now + next_delay
        task["status"] = ACTIVE
        task["lastcrawltime"] = now
        task["updatetime"] = now
        if "seq" in pack:            # fresh enqueue sequence (AtomInt parity)
            task["seq"] = pack["seq"]
        self._put(task)
        self._count(task["project"], "retry")
        return True

    # -- select path ---------------------------------------------------------
    def select(self, budgets: dict[str, int]) -> list[dict]:
        """Pop up to ``budgets[project]`` ready tasks per project under the
        project token bucket; returns hydrated task rows in emission
        order (the per-shard slice of _check_select)."""
        out: list[dict] = []
        for project, budget in budgets.items():
            tq = self._queue(project)
            tq.check_update()
            for _ in range(budget):
                taskid = tq.get()
                if taskid is None:
                    break
                task = self.store.get((project, taskid))
                if task is None:
                    continue
                out.append(task)
                self.emitted_log.append(taskid)
        return out

    def peek_ready(self, project: str, n: int) -> list[tuple[str, int, int]]:
        """Shard half of the cross-shard merge select: top-n ready
        (taskid, priority, sequence) without popping."""
        if project not in self.queues:
            return []
        return self.queues[project].peek_ready(n)

    def take(self, project: str, taskids: list[str]) -> list[dict]:
        """Pop the coordinator-chosen taskids into processing and return
        their hydrated rows (J4) in the given order."""
        tq = self._queue(project)
        out = []
        for taskid in taskids:
            if not tq.take(taskid):
                continue
            task = self.store.get((project, taskid))
            if task is not None:
                out.append(task)
                self.emitted_log.append(taskid)
        return out

    def requeue(self, project: str, items: list[tuple[str, float, int]]) -> int:
        """Politeness deferral: move (taskid, exetime, seq) tuples from
        processing back to the queues without touching retry state."""
        tq = self._queue(project)
        n = 0
        for taskid, exetime, seq in items:
            if not tq.done(taskid):
                continue
            task = self.store.get((project, taskid))
            priority = (_sched(task) or {}).get("priority", 0) if task else 0
            tq.put(taskid, priority, exetime, sequence=seq)
            n += 1
        return n

    def check_update(self) -> None:
        for tq in self.queues.values():
            tq.check_update()

    def check_update_sizes(self) -> dict[str, int]:
        """check_update + queue_sizes fused into one control-plane round
        trip (the select prologue needs both, back-to-back, every round)."""
        self.check_update()
        return self.queue_sizes()

    # -- introspection -------------------------------------------------------
    def queue_size(self, project: str | None = None) -> int:
        if project is not None:
            return len(self._queue(project)) if project in self.queues else 0
        return sum(len(tq) for tq in self.queues.values())

    def queue_sizes(self) -> dict[str, int]:
        return {name: len(tq) for name, tq in self.queues.items()}

    def drain_counters(self) -> dict[tuple[str, str], int]:
        """Partial counters since the last drain (merged into the driver
        MetricsHub each round — A3's partial/final split)."""
        out, self.counters = self.counters, {}
        return out

    def status_count(self, project: str) -> dict[int, int]:
        """A1 — per-project GROUP BY status (sqlite/taskdb.py:85-98)."""
        out: dict[int, int] = {}
        for (proj, _), task in self.store.items():
            if proj == project:
                st = task.get("status", ACTIVE)
                out[st] = out.get(st, 0) + 1
        return out

    def seen_taskids(self, project: str) -> list[str]:
        return sorted(tid for (proj, tid) in self.store if proj == project)

    def dump_tasks(self, project: str) -> list[dict]:
        """Stored task rows for a project (taskdb.load_tasks inverse)."""
        return [task for (proj, _), task in sorted(self.store.items())
                if proj == project]

    def get_task(self, project: str, taskid: str) -> Optional[dict]:
        return self.store.get((project, taskid))

    def is_quiescent(self) -> bool:
        return all(len(tq) == 0 for tq in self.queues.values()) \
            and not self._postponed

    # -- checkpoint ----------------------------------------------------------
    def snapshot(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "n_shards": self.n_shards,
            "store": list(self.store.items()),
            "queues": {name: tq.snapshot() for name, tq in self.queues.items()},
            "counters": list(self.counters.items()),
            "postponed": self._postponed,
            "emitted": len(self.emitted_log),
        }

    @classmethod
    def restore(cls, snap: dict, clock: Callable[[], float] = wall_clock,
                projects: list[ProjectConfig] | None = None) -> "FrontierShard":
        # snapshots written while the shard kept a URL-seen cuckoo filter
        # carry it under "cuckoo"; the exact store answers alone, so the
        # key is ignored
        shard = cls(snap["shard_id"], snap["n_shards"], clock=clock)
        for cfg in projects or []:
            shard.update_project(cfg)
        shard.store = dict((tuple(k), v) for k, v in snap["store"])
        for name, qsnap in snap["queues"].items():
            tq = TaskQueue.restore(qsnap, clock=clock, sequence=shard._seq)
            if name in shard.queues:
                tq.rate = shard.queues[name].rate
                tq.burst = shard.queues[name].burst
            shard.queues[name] = tq
        shard.counters = dict((tuple(k), v) for k, v in snap["counters"])
        shard._postponed = snap["postponed"]
        return shard
