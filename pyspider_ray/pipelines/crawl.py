"""The crawl loop: pyspider's ``run_once`` topology (scheduler.py:661-671
+ run.py:501-582 ``all`` mode) as a round-based pipeline over Ray actors.

Two rounds are in flight.  Round k:

1. feedback — collects the control rows of every round dispatched two
   or more rounds ago: their status packs go to the shards, their
   follows canonicalize into new tasks.  Round k-1's chunks keep
   running on the workers meanwhile, so a round's feedback reaches
   select two rounds later (the reference has no round barrier at all:
   its scheduler keeps selecting while fetchers and processors work);
2. coordinator — status packs, then requests, cronjob ticks and the
   budgeted cross-shard select (reference-identical order);
3. politeness gate — per-host token buckets + robots (deferred tasks
   re-queue, robots-blocked become 403 failures);
4. the data plane — every chunk of the admitted batch is queued at
   once, round-robin over persistent worker actors (fetch → process);
   each worker runs its queue in order, so one that finishes round k-1
   early starts on round k.  Payload rows go to partitioned Parquet
   (one directory per round — resumable); compact control rows (status
   + follows) come back to the driver for round k+2.

The in-process path (``use_ray=False``) runs the same schedule and the
same worker code: one local ``_WorkerActor`` gets each round's batch as
one chunk in a direct call, so the two produce the same emitted order,
seen set and result rows.

Frontier state lives in per-shard actors (``ray.remote`` wrapping
``FrontierShard``); the driver holds only the coordinator's sequential
state, exactly the split the reference has between its singleton
scheduler process and its worker pools.  The virtual clock advances a
fixed step per round, making fetch order and the URL-seen set
bit-for-bit reproducible under a fixed seed list + politeness budget.

Checkpoint/resume (M4): per-shard snapshots + coordinator snapshot +
manifest with lineage (round, virtual time, config digest, finished
result partitions).  A killed run resumes from the last round boundary
and does not re-fetch completed partitions.
"""

from __future__ import annotations

import json
import os
import pickle
import time
from dataclasses import dataclass, field, asdict

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .. import VIRTUAL_EPOCH
from ..functions import synthweb
from ..stages.canonicalize import canonicalize_urls
from ..stages.fetcher import SyntheticFetcher
from ..stages.handler_processor import (HandlerProcessorStage,
                                        handler_control_table,
                                        handler_result_table)
from ..stages.politeness import HostPolicy, PolitenessGate
from ..stages.processor import (CONTROL_COLUMNS, ProcessorStage,
                                ResultBuilder, control_table)
from ..state import (Coordinator, FrontierShard, ProjectConfig, VirtualClock)

FETCH_INPUT_COLUMNS = ("taskid", "urlhash", "project", "url", "host")
BUSY_KEY = "worker_busy_s"   # control-table metadata: process_chunk seconds


class ResultWriteError(RuntimeError):
    """A result part could not be written; its rows are not on disk."""


def _busy_s(tables: list[pa.Table]) -> float:
    """Summed process_chunk seconds of a plane's control tables."""
    return sum(float(t.schema.metadata[BUSY_KEY.encode()]) for t in tables)


def _write_part(results: pa.Table, round_dir: str, part) -> None:
    """Publish one result part as ``round_dir/part-<part>.parquet``
    (tmp file + atomic rename, so a re-run of the same chunk rewrites
    the same file).  Image bytes are already zlib-compressed, so no
    column is recompressed, and the ``bytes`` column gets neither a
    dictionary attempt nor min/max statistics — both are full passes
    over the payload that buy nothing for unique, opaque blobs.

    ``write_batch_size=1`` lets the writer check the page size after
    every value: by default it fills a whole write batch first, so a
    16-row part's ~550 KB payloads (about 9 MB) all went into one
    growing page.  16-row ``page_scale=6`` parts on a 1-CPU host:
    1.85 -> 0.58-1.06 ms per page (a raw file write of the payloads:
    0.20), the values read back identical."""
    os.makedirs(round_dir, exist_ok=True)
    tmp = os.path.join(round_dir, f".part-{part}.tmp")
    small = [c for c in results.column_names if c != "bytes"]
    pq.write_table(results, tmp, compression="none",
                   use_dictionary=small, write_statistics=small,
                   write_batch_size=1)
    os.rename(tmp, os.path.join(round_dir, f"part-{part}.parquet"))


@dataclass
class CrawlConfig:
    total: int = 2_000                 # synthetic URL id-space
    n_seeds: int = 20
    show: int = synthweb.DEFAULT_SHOW  # links per page
    n_hosts: int = 5
    skew: bool = False
    n_shards: int = 4
    project: str = "bench"
    rate: float = 1e10                 # project bucket (bench: 1e10)
    burst: float = 1e10
    host_rate: float = 1e9             # per-host politeness budget
    host_burst: float = 1e9
    robots_disallow: dict = field(default_factory=dict)  # host -> [prefix]
    # True = robots rules come from fetched+parsed robots.txt bodies
    # with a TTL'd cache (stages.robots, T4); the synthetic web serves
    # the bodies derived from robots_disallow. False = static prefixes.
    robots_fetch: bool = False
    robots_ttl: float = 60 * 60
    # >0 = ShardedPolitenessGate with hot-host splitting (north-rule
    # skew path); 0 = single driver-side gate
    gate_shards: int = 0
    hot_host_threshold: int = 256
    retry_delay: dict | None = None    # project retry ladder override (W4)
    fail_permille: int = 0
    session_cookies: bool = False      # T8: fetcher emits Set-Cookie rows
    loop_limit: int = 1000
    # W8 — out-queue backpressure (scheduler.py:334-346, 465-475): cap
    # on tasks handed to the data plane per round; overflow holds in a
    # driver-side send buffer and SELECT HALTS until it drains (the
    # reference stops selecting while out_queue is full).  0 = off
    # (two rounds in flight already bound the queued work at two
    # rounds' selections; this models the reference's explicit limit).
    out_queue_limit: int = 0
    clock_step: float = 1.0
    out_dir: str = "/tmp/pyspider_ray_out"
    use_ray: bool = True
    concurrency: int = 4
    batch_size: int = 256
    follow_priority: int = 0
    seed_priority: int = 1
    page_scale: int = 1                # payload size multiplier (bench knob)
    # a BaseHandler subclass swaps HandlerProcessorStage in as the data
    # plane: user callbacks drive the crawl (processor.py:102-203 role),
    # cronjobs/min_tick/crawl_config/retry_delay are read off the class
    handler_cls: type | None = None
    # the script FILE handler_cls was built from (CLI --script): set, it
    # enables the script-editor surface — POST /projects/<name>/script
    # saves a new version and the loop hot-swaps the handler class +
    # project config + worker pool at the next round boundary
    script_path: str | None = None
    # pluggable components (§2.10, run.py --fetcher-cls / ResultWorker
    # analogues): a fetch stage class (ctor(**fetcher_kwargs), called
    # per Arrow batch) and a result sink class (ctor(), called with
    # (table, round_dir, part_idx) per finished chunk)
    fetcher_cls: type | None = None
    sink_cls: type | None = None
    # False = persist metadata/caption/phash but not image bytes: on a
    # single box the fixed-bandwidth local disk otherwise measures itself
    # rather than the engine (cluster object storage scales with nodes)
    persist_payload: bool = True

    def digest(self) -> str:
        import hashlib
        return hashlib.md5(json.dumps(asdict(self), sort_keys=True,
                                      default=str)
                           .encode()).hexdigest()[:12]


def _project_config(cfg: "CrawlConfig") -> ProjectConfig:
    """Project row for this crawl; handler mode reads min_tick /
    crawl_config / retry_delay off the handler class (§2.10 class
    attrs, base_handler.py:121-143 + scheduler's projectdb join)."""
    retry_delay = cfg.retry_delay
    min_tick = 0
    crawl_config = None
    h = cfg.handler_cls
    if h is not None:
        from ..handler import BaseHandler
        min_tick = int(getattr(h, "_min_tick", 0) or 0)
        if retry_delay is None and getattr(h, "retry_delay", None):
            retry_delay = h.retry_delay
        cc = getattr(h, "crawl_config", None) or {}
        fetch = {k: v for k, v in cc.items() if k in BaseHandler.FETCH_FIELDS}
        process = {k: v for k, v in cc.items()
                   if k in BaseHandler.PROCESS_FIELDS}
        if fetch or process:
            crawl_config = {"fetch": fetch, "process": process}
    return ProjectConfig(cfg.project, rate=cfg.rate, burst=cfg.burst,
                         retry_delay=retry_delay, min_tick=min_tick,
                         crawl_config=crawl_config)


class _ActorShard:
    """Module-level wrapper turned into a Ray actor: owns a FrontierShard
    plus its shard-local virtual clock (synced by the driver)."""

    def __init__(self, shard_id: int, n_shards: int, start_time: float,
                 inqueue_limit: int = 0):
        import gc
        # the store accumulates millions of small dicts; default gen2
        # thresholds make every RPC pay a full-heap scan eventually
        gc.set_threshold(100_000, 50, 100)
        self._clock = VirtualClock(start_time)
        self._shard = FrontierShard(shard_id, n_shards, clock=self._clock,
                                    inqueue_limit=inqueue_limit)

    def call(self, method: str, *args):
        return getattr(self._shard, method)(*args)

    def set_time(self, t: float) -> None:
        self._clock.set(t)

    def snapshot_to(self, path: str) -> None:
        with open(path, "wb") as f:
            pickle.dump(self._shard.snapshot(), f)

    def export_frontier_to(self, out_dir: str) -> str:
        from ..sources.store import export_shard
        return export_shard(self._shard, out_dir)

    def restore_from(self, path: str, projects: list[ProjectConfig]) -> None:
        with open(path, "rb") as f:
            snap = pickle.load(f)
        self._shard = FrontierShard.restore(snap, clock=self._clock,
                                            projects=projects)


class _WorkerActor:
    """Persistent data-plane worker: one fetcher + one processor instance
    live for the whole crawl (T5 script-cache semantics — construction
    cost paid once, not once per round, unlike a per-execution Ray Data
    actor pool).  Each call fetches+processes one Arrow chunk, writes
    its payload rows straight to the round's Parquet partition (wide
    binary columns never travel back to the driver), and returns only
    the compact control columns.  The in-process crawl builds one and
    calls it directly; the Ray crawl runs a pool of them as actors."""

    def __init__(self, fetcher_kwargs: dict, processor_kwargs: dict,
                 persist_payload: bool = True,
                 handler_spec: tuple | None = None,
                 fetcher_cls: type | None = None,
                 sink_cls: type | None = None,
                 batch_rows: int = 256):
        import queue
        import threading
        self.fetcher = (fetcher_cls or SyntheticFetcher)(**fetcher_kwargs)
        self.sink = sink_cls() if sink_cls is not None else None
        if handler_spec is not None:
            handler_cls, project = handler_spec
            self.processor = HandlerProcessorStage(handler_cls, project)
            self.handler_mode = True
        else:
            self.processor = ProcessorStage(**processor_kwargs)
            self.handler_mode = False
        self.persist_payload = persist_payload
        # cap on rows fetched+processed as one in-memory batch: the live
        # set per batch is ~4x the encoded payload bytes (content column,
        # result column, Parquet pages, one row's pixels), so a whole
        # multi-MB-payload chunk at once pushes the worker arena into GBs —
        # and on this host freshly-grown arena pages fault at as little
        # as ~30 MB/s in slow memory phases, which once made a sustained
        # 8k-row round 18x slower than its predecessor.  Sub-batching
        # bounds the high-water mark regardless of chunk size (and is
        # the right shape for real image payloads at 100 TB).
        self.batch_rows = max(1, batch_rows)
        # payload writes happen off the compute path (bounded depth so a
        # slow disk backpressures instead of ballooning memory); flush()
        # joins the queue — called before checkpoints/result reads
        self._write_queue: "queue.Queue" = queue.Queue(maxsize=2)
        # the first failed write; once set, later parts are dropped
        # unwritten and every process_chunk/flush raises it
        self._write_error: tuple | None = None
        self._writer = threading.Thread(target=self._write_loop, daemon=True)
        self._writer.start()

    def _write_loop(self) -> None:
        # never dies before close(): a dead writer would leave the
        # bounded queue full and block process_chunk/flush forever
        while True:
            item = self._write_queue.get()
            if item is None:    # close()
                self._write_queue.task_done()
                return
            results, round_dir, part_idx = item
            try:
                if self._write_error is not None:
                    continue
                if self.sink is not None:   # ResultWorker override hook
                    self.sink(results, round_dir, part_idx)
                else:
                    _write_part(results, round_dir, part_idx)
            except Exception as e:   # re-raised, chained, by the caller
                self._write_error = (round_dir, part_idx, e)
            finally:
                self._write_queue.task_done()

    def _raise_write_error(self) -> None:
        if self._write_error is not None:
            round_dir, part_idx, e = self._write_error
            raise ResultWriteError(
                f"writing result part {part_idx} of {round_dir} failed: "
                f"{e!r}; this worker's later parts were not written") from e

    def flush(self) -> bool:
        self._write_queue.join()
        self._raise_write_error()
        return True

    def close(self) -> None:
        """Stop the writer thread after the parts already queued."""
        self._write_queue.put(None)
        self._writer.join()

    def process_chunk(self, table: pa.Table, round_dir: str,
                      part_idx: int, span: tuple | None = None) -> pa.Table:
        # span-slicing here lets the driver ray.put the round table ONCE
        # and hand (ref, offset, len) to every chunk — one driver-side
        # serialization per round instead of one per chunk
        t0 = time.perf_counter()
        self._raise_write_error()
        if span is not None:
            table = table.slice(span[0], span[1])
        # module names, looked up per call: a wrapper installed on the
        # module after the worker was built still sees every build
        if self.handler_mode:
            build_results, build_ctrl = handler_result_table, \
                handler_control_table
        else:
            build_results, build_ctrl = ResultBuilder, control_table
        n = len(table)
        one_batch = n <= self.batch_rows
        ctrl_parts = []
        for k, off in enumerate(range(0, max(n, 1), self.batch_rows)):
            sub = table.slice(off, self.batch_rows)
            processed = self.processor(self.fetcher(sub))
            results = build_results(processed)
            ctrl_parts.append(build_ctrl(processed))
            if not self.persist_payload and "bytes" in results.column_names:
                results = results.drop_columns(["bytes"])
            if len(results):
                # sub-part names stay idempotent across re-dispatch (a
                # re-run of the same chunk rewrites the same files)
                pid = part_idx if one_batch else f"{part_idx}_{k}"
                self._write_queue.put((results, round_dir, pid))
        self._raise_write_error()
        ctrl = ctrl_parts[0] if len(ctrl_parts) == 1 \
            else pa.concat_tables(ctrl_parts)
        # the body's wall time rides back as schema metadata; the driver
        # sums it per plane into the round metric's worker_busy_s
        return ctrl.replace_schema_metadata(
            {BUSY_KEY: repr(time.perf_counter() - t0)})


class _RayCoordinator(Coordinator):
    """Coordinator over Ray actor handles; fan-outs run in parallel."""

    def _call(self, shard, method: str, *args):
        import ray
        return ray.get(shard.call.remote(method, *args))

    def _call_all(self, method: str, *args) -> list:
        import ray
        return ray.get([s.call.remote(method, *args) for s in self.shards])

    def _submit(self, method: str, args_per_shard: list) -> list:
        import ray
        refs = [s.call.remote(method, *args) if args is not None else None
                for s, args in zip(self.shards, args_per_shard)]
        live = [r for r in refs if r is not None]
        got = iter(ray.get(live))
        return [next(got) if r is not None else None for r in refs]

    def _fanout_submit(self, method: str, table, *extra) -> list:
        # one driver-side serialization per round: the shared control
        # table goes into plasma once; each shard call carries the ref
        # (auto-dereferenced, zero-copy read) and filters locally.
        # Returned refs are gathered later (finish_status_tables), so
        # shard ingestion overlaps the driver's chunk dispatch loop.
        import ray
        ref = ray.put(table)
        return [s.call.remote(method, ref, *extra) for s in self.shards]

    def _fanout_gather(self, handles: list) -> list:
        import ray
        return ray.get(handles)


class CrawlPipeline:
    def __init__(self, cfg: CrawlConfig):
        self.cfg = cfg
        self.clock = VirtualClock(VIRTUAL_EPOCH)
        self.round_idx = 0
        self.metrics: list[dict] = []
        self._pending_status: list[dict] = []   # dict packs (403s, tests)
        self._pending_new: list[dict] = []      # seed/control task dicts
        # one data plane per dispatched round not yet ingested, oldest
        # first: {"round", "chunks", "table_ref", "round_dir"} in flight,
        # {"round", "tables", "busy_s"} once resolved
        self._pending_ctrl: list[dict] = []
        self._send_buffer: list[dict] = []      # W8 out-queue overflow
        self._local_worker: _WorkerActor | None = None   # in-process plane
        # runtime-control command queue (webapi POSTs, reference
        # scheduler xmlrpc scheduler.py:693-736): producers are other
        # threads, the round loop drains it at the round boundary
        import queue as _queue
        import threading
        self.control_inbox: "_queue.Queue[dict]" = _queue.Queue()
        # serializes the round loop with webapi control-plane READS
        # (the reference's xmlrpc handlers share the scheduler ioloop
        # thread — same semantics): the HTTP thread never observes a
        # mid-round coordinator/shard state in the no-ray path
        self.ctl_lock = threading.RLock()
        self._pending_script_reload = False
        os.makedirs(self.results_dir, exist_ok=True)
        os.makedirs(self.ckpt_dir, exist_ok=True)

        if cfg.use_ray:
            import ray
            # workers import this package by path; make that independent of
            # the driver's cwd (repo root = two levels up from this file)
            repo_root = os.path.dirname(os.path.dirname(
                os.path.dirname(os.path.abspath(__file__))))
            env = {"env_vars": {"PYTHONPATH": repo_root + ":" +
                                os.environ.get("PYTHONPATH", "")}}
            # num_cpus=0: shards are a lightweight control plane that must
            # never compete with the data-plane worker pool for CPU slots
            # (a reserved-CPU shard pool can deadlock worker scheduling)
            actor_cls = ray.remote(num_cpus=0, runtime_env=env)(_ActorShard)
            self.shards = [actor_cls.remote(i, cfg.n_shards, self.clock.now())
                           for i in range(cfg.n_shards)]
            self.coord = _RayCoordinator(self.shards, clock=self.clock,
                                         loop_limit=cfg.loop_limit)
        else:
            self.shards = [FrontierShard(i, cfg.n_shards, clock=self.clock)
                           for i in range(cfg.n_shards)]
            self.coord = Coordinator(self.shards, clock=self.clock,
                                     loop_limit=cfg.loop_limit)

        self.coord.update_project(_project_config(cfg))
        robots_cache = None
        if cfg.robots_fetch:
            from ..functions.synthweb import robots_body
            from ..stages.robots import RobotsCache
            disallow = dict(cfg.robots_disallow)
            robots_cache = RobotsCache(
                lambda host: robots_body(disallow.get(host, ())),
                ttl=cfg.robots_ttl, clock=self.clock)
        gate_kwargs = dict(
            default_policy=HostPolicy(cfg.host_rate, cfg.host_burst),
            host_policies={h: HostPolicy(cfg.host_rate, cfg.host_burst,
                                         tuple(rules))
                           for h, rules in cfg.robots_disallow.items()},
            clock=self.clock, robots_cache=robots_cache)
        if cfg.gate_shards > 0:
            from ..stages.politeness import ShardedPolitenessGate
            self.gate = ShardedPolitenessGate(
                n_shards=cfg.gate_shards,
                hot_threshold=cfg.hot_host_threshold, **gate_kwargs)
        else:
            self.gate = PolitenessGate(**gate_kwargs)
        from ..state.metrics import MetricsHub
        self.metrics_hub = MetricsHub(self.clock)

    # -- paths ---------------------------------------------------------------
    @property
    def results_dir(self) -> str:
        return os.path.join(self.cfg.out_dir, "results")

    @property
    def ckpt_dir(self) -> str:
        return os.path.join(self.cfg.out_dir, "checkpoints")

    def _round_dir(self, idx: int) -> str:
        return os.path.join(self.results_dir, f"round={idx:05d}")

    # -- clock sync ----------------------------------------------------------
    def _sync_clocks(self) -> None:
        if self.cfg.use_ray:
            import ray
            ray.get([s.set_time.remote(self.clock.now()) for s in self.shards])

    # -- seeding -------------------------------------------------------------
    def seed_tasks(self) -> list[dict]:
        ids = np.arange(self.cfg.n_seeds, dtype=np.int64)
        urls = synthweb.urls_of(ids, self.cfg.n_hosts, self.cfg.skew)
        cols = canonicalize_urls(urls)
        return [{
            "taskid": cols["taskid"][i],
            "urlhash": int(cols["urlhash"][i]),
            "project": self.cfg.project,
            "url": cols["url"][i],
            "host": cols["host"][i],
            "schedule": {"priority": self.cfg.seed_priority},
            "process": {"callback": "on_page"},
        } for i in range(len(urls))]

    def enqueue(self, tasks: list[dict]) -> int:
        """Public seeding/injection API: queue task dicts for the next
        round's new-task merge (the same path `seed()` and follows
        use).  Each task needs at least ``url``; ``taskid`` /
        ``urlhash`` / ``host`` / ``project`` are derived when absent
        (md5-of-canonical-url identity, reference
        base_handler.get_taskid parity).  Returns the number queued."""
        urls = [t.get("url", "") for t in tasks]
        cols = canonicalize_urls(urls)
        queued = 0
        for i, t in enumerate(tasks):
            if not urls[i]:
                continue
            row = dict(t)
            row.setdefault("taskid", cols["taskid"][i])
            row.setdefault("urlhash", int(cols["urlhash"][i]))
            row.setdefault("host", cols["host"][i])
            row.setdefault("project", self.cfg.project)
            row.setdefault("schedule", {"priority": self.cfg.seed_priority})
            row.setdefault("process", {"callback": "on_page"})
            self._pending_new.append(row)
            queued += 1
        return queued

    def seed(self) -> None:
        if self.cfg.handler_cls is not None:
            # handler projects start from their on_start callback
            # (webui 'run' semantics: a data:,on_start control task)
            self._pending_new.append({
                "taskid": "data:,on_start",
                "project": self.cfg.project,
                "url": "data:,on_start",
                "process": {"callback": "on_start"},
                "schedule": {"priority": 9, "force_update": True},
            })
        else:
            self._pending_new.extend(self.seed_tasks())

    # -- the data plane ------------------------------------------------------
    @staticmethod
    def _save_to_str(s) -> str:
        if s is None:
            return ""
        if isinstance(s, str):
            return s
        return json.dumps(s, default=str)

    @staticmethod
    def _fetch_json(t: dict) -> str:
        """Everything in the stored task's fetch dict except the fields
        with dedicated columns — method, data, headers, cookies, proxy,
        allow_redirects, js_* etc. ride to the fetch stage intact, so
        rich ``crawl()`` kwargs (POST bodies, cookie sessions, js
        fetch_type options) survive the control plane instead of
        degrading to header-less GETs."""
        rest = {k: v for k, v in (t.get("fetch") or {}).items()
                if k not in ("save", "fetch_type")}
        return json.dumps(rest, default=str) if rest else ""

    def _tasks_to_table(self, tasks: list[dict]) -> pa.Table:
        return pa.table({
            "taskid": pa.array([t["taskid"] for t in tasks], pa.string()),
            "urlhash": pa.array([t.get("urlhash", 0) for t in tasks], pa.int64()),
            "project": pa.array([t["project"] for t in tasks], pa.string()),
            "url": pa.array([t["url"] for t in tasks], pa.string()),
            "host": pa.array([t.get("host", "") for t in tasks], pa.string()),
            "retried": pa.array([(t.get("schedule") or {}).get("retried") or 0
                                 for t in tasks], pa.int32()),
            "etag": pa.array([t.get("etag") or "" for t in tasks],
                             pa.string()),
            "last_modified": pa.array([t.get("last_modified") or ""
                                       for t in tasks], pa.string()),
            "fetch_type": pa.array([(t.get("fetch") or {})
                                    .get("fetch_type") or ""
                                    for t in tasks], pa.string()),
            "fetch_json": pa.array([self._fetch_json(t) for t in tasks],
                                   pa.string()),
            # handler protocol columns: callback dispatch + the fetch.save
            # round-trip (base_handler run_task contract)
            "callback": pa.array([(t.get("process") or {}).get("callback")
                                  or "" for t in tasks], pa.string()),
            "save": pa.array([self._save_to_str((t.get("fetch") or {})
                                                .get("save"))
                              for t in tasks], pa.string()),
            "process_time_limit": pa.array(
                [float((t.get("process") or {}).get("process_time_limit")
                       or 0.0) for t in tasks], pa.float64()),
        })

    def _worker_args(self) -> tuple:
        """The data-plane worker's constructor arguments: one recipe for
        the Ray pool, its fault-time replacements and the in-process
        worker."""
        cfg = self.cfg
        fk = {"fail_permille": cfg.fail_permille,
              "page_scale": cfg.page_scale,
              "session_cookies": cfg.session_cookies}
        pk = {"total": cfg.total, "show": cfg.show, "n_hosts": cfg.n_hosts,
              "skew": cfg.skew, "follow_priority": cfg.follow_priority}
        spec = (cfg.handler_cls, cfg.project) if cfg.handler_cls else None
        # keep each worker's in-flight live set near a fixed byte budget
        # (~256 MB): the live set per row is ~4x the encoded payload
        # (content column, result column, Parquet pages, one row's
        # pixels), measured at page_scale 6 as ~62 KB x page_scale^2 per
        # row (peak RSS growth of a 106-row batch: 237 MB for 59 MB of
        # pages), so the 70 KB estimate keeps a ~10% margin.
        # Small-payload chunks stay whole (an A/B showed a 23% throughput
        # tax when 100-row page_scale-6 chunks were force-split); heavy
        # payloads split to stay under the budget regardless of chunk
        # size.
        est_row_bytes = 70_000 * cfg.page_scale ** 2
        batch_rows = max(16, min(cfg.batch_size * 4,
                                 (256 << 20) // est_row_bytes))
        return (fk, pk, cfg.persist_payload, spec, cfg.fetcher_cls,
                cfg.sink_cls, batch_rows)

    def _spawn_worker(self):
        """One Ray worker spawn recipe shared by the pool and fault-time
        replacement, so a replacement for a script-loaded handler gets
        the same PYTHONPATH (handler dir included) as the original."""
        import ray
        cfg = self.cfg
        repo_root = os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))
        path = repo_root
        if cfg.handler_cls is not None:
            # user handler classes unpickle by module reference in the
            # worker; make their source directory importable there (the
            # reference's project_module loader role)
            import inspect
            try:
                hdir = os.path.dirname(os.path.abspath(
                    inspect.getfile(cfg.handler_cls)))
                path = hdir + ":" + path
            except (TypeError, OSError):
                pass
        env = {"env_vars": {"PYTHONPATH": path + ":" +
                            os.environ.get("PYTHONPATH", "")}}
        worker_cls = ray.remote(num_cpus=1, runtime_env=env)(_WorkerActor)
        return worker_cls.remote(*self._worker_args())

    def _worker_pool(self) -> list:
        """Lazily create the persistent data-plane actor pool."""
        if getattr(self, "_workers", None):
            return self._workers
        self._workers = [self._spawn_worker()
                         for _ in range(self.cfg.concurrency)]
        return self._workers

    def _run_data_plane(self, table: pa.Table, round_dir: str) -> dict:
        """fetch → process; payload rows to Parquet, on the worker pool
        (Ray) or one local worker (in-process).  Returns the round's
        plane: in flight (Ray: its queued chunks) or resolved
        (in-process: its control tables and busy seconds)."""
        cfg = self.cfg
        plane = {"round": self.round_idx}
        if cfg.use_ray:
            import math
            import ray
            workers = self._worker_pool()
            # ~4 chunks per worker: per-row cost varies ~10x with page
            # dims, so finer chunks even out each worker's share; chunk
            # overhead stays negligible down to 16 rows
            per = max(16, math.ceil(len(table) / (len(workers) * 4)))
            # one ray.put of the whole round table; chunks are (start,
            # len) spans the worker slices zero-copy from plasma
            table_ref = ray.put(table)
            # every chunk is queued now, round-robin: a worker runs its
            # queue in order, so one that finishes the previous round's
            # share early starts on this round's without a driver trip.
            # Each chunk keeps its worker and span, so a dead worker's
            # chunks can be re-dispatched (idempotent: payload parts
            # publish via atomic rename, control rows are regenerated)
            chunks = {}
            for idx, start in enumerate(range(0, len(table), per)):
                span = (start, min(per, len(table) - start))
                w = workers[(self.round_idx + idx) % len(workers)]
                chunks[idx] = (w.process_chunk.remote(table_ref, round_dir,
                                                      idx, span), w, span)
            plane.update(chunks=chunks, table_ref=table_ref,
                         round_dir=round_dir)
            return plane
        # in-process: the round is one chunk of one local worker, and
        # its rows are on disk before the round returns
        if self._local_worker is None:
            self._local_worker = _WorkerActor(*self._worker_args())
        ctrl = self._local_worker.process_chunk(table, round_dir, 0)
        self._local_worker.flush()
        plane.update(tables=[ctrl], busy_s=_busy_s([ctrl]))
        return plane

    def _ingest_handler_extras(self, ctrl_tables: list[pa.Table]) -> None:
        """Rich follows (age/itag/force_update/...) and cross-project
        messages can't ride the columnar follow path; they re-enter as
        task dicts next round (the reference's own scheduler-inbox path
        for exactly these cases)."""
        from ..stages.handler_processor import message_tasks
        for t in ctrl_tables:
            if "follows_extra_json" in t.column_names:
                for blob in t["follows_extra_json"].to_pylist():
                    if blob:
                        self._pending_new.extend(json.loads(blob))
            if "messages_json" in t.column_names:
                projects = t["project"].to_pylist()
                for i, blob in enumerate(t["messages_json"].to_pylist()):
                    if blob:
                        self._pending_new.extend(
                            message_tasks(blob, projects[i]))

    def _blocked_status(self, task: dict) -> dict:
        """Robots-disallowed → 403 failure pack (tornado_fetcher.py:360-363)."""
        return {
            "taskid": task["taskid"], "urlhash": task.get("urlhash", 0),
            "project": task["project"], "url": task["url"],
            "track": {"fetch_ok": False, "fetch_time": 0.0,
                      "status_code": 403, "process_ok": False,
                      "process_time": 0.0, "follows": 0},
        }

    # -- rounds --------------------------------------------------------------
    MAX_CHUNK_REDISPATCH = 3
    # rounds whose data planes are in flight at a round boundary: round k
    # ingests the planes of rounds <= k - ROUNDS_IN_FLIGHT.  A fixed
    # property of the loop, not a knob — the schedule sets emitted order
    ROUNDS_IN_FLIGHT = 2

    def _replace_worker(self, dead) -> object:
        """Spawn a fresh data-plane worker in a dead one's slot (W:
        worker fault tolerance — frontier state lives in the shard
        actors, so data-plane workers are freely replaceable)."""
        fresh = self._spawn_worker()
        self._workers = [fresh if w is dead else w for w in self._workers]
        return fresh

    def _redispatch_from(self, dead) -> None:
        """Replace a dead worker and re-dispatch every chunk still queued
        on it — with two rounds in flight that can be chunks of both —
        to the replacement, oldest round first."""
        fresh = self._replace_worker(dead)
        for plane in self._pending_ctrl:
            chunks = plane.get("chunks", {})
            for idx in sorted(chunks):
                _, w, span = chunks[idx]
                if w is dead:
                    ref = fresh.process_chunk.remote(
                        plane["table_ref"], plane["round_dir"], idx, span)
                    chunks[idx] = (ref, fresh, span)

    def _resolve_plane(self, plane: dict) -> None:
        """Wait for an in-flight plane's chunks, in chunk order; their
        control tables and summed busy seconds replace the chunk state.
        A worker that died under a chunk is replaced and its chunks
        re-dispatched, up to MAX_CHUNK_REDISPATCH runs of one chunk."""
        import ray
        chunks = plane.get("chunks")
        if chunks is None:
            return
        tables = []
        attempts: dict[int, int] = {}
        for idx in sorted(chunks):
            while True:
                ref, worker, _ = chunks[idx]
                try:
                    tables.append(ray.get(ref))
                    break
                except ray.exceptions.RayActorError:
                    # bounded re-dispatch: a chunk that deterministically
                    # kills its worker must surface, not loop forever
                    attempts[idx] = attempts.get(idx, 0) + 1
                    if attempts[idx] >= self.MAX_CHUNK_REDISPATCH:
                        self._replace_worker(worker)
                        raise RuntimeError(
                            f"data-plane chunk {idx} killed its worker "
                            f"{attempts[idx]} times; giving up")
                    self._redispatch_from(worker)
            del chunks[idx]
        for key in ("chunks", "table_ref", "round_dir"):
            del plane[key]
        plane["tables"] = tables
        plane["busy_s"] = _busy_s(tables)

    def _resolve_planes(self) -> None:
        """Drain every plane in flight; each stays its own entry, so the
        rounds that ingest them do not change."""
        for plane in self._pending_ctrl:
            self._resolve_plane(plane)

    def _collect_ctrl(self) -> tuple[list[pa.Table], float]:
        """Ingest the planes this round is due — those dispatched
        ROUNDS_IN_FLIGHT or more rounds ago; the newer ones keep
        running.  Their status packs reach the shards in one
        submission, oldest plane first and chunk order within a plane.
        Returns the control tables and the workers' busy seconds."""
        last = self.round_idx - self.ROUNDS_IN_FLIGHT
        due = [p for p in self._pending_ctrl if p["round"] <= last]
        tables: list[pa.Table] = []
        busy = 0.0
        for plane in due:
            self._resolve_plane(plane)
            tables.extend(plane["tables"])
            busy += plane["busy_s"]
        self._pending_ctrl = [p for p in self._pending_ctrl
                              if p["round"] > last]
        self.coord.begin_status_tables(tables)
        self.coord.finish_status_tables()
        return tables, busy

    def apply_controls(self) -> list[dict]:
        """Drain queued runtime-control commands — the reference
        scheduler's xmlrpc surface (scheduler.py:693-736 update_project
        / newtask / send_task, run.py:808-835 send_message) — at the
        round boundary.  Producers (the webapi's POST handlers) enqueue
        from their own threads; commands apply between rounds, the same
        loop-polled semantics as the reference's projectdb re-read."""
        import copy
        import queue as _queue
        applied: list[dict] = []
        while True:
            try:
                cmd = self.control_inbox.get_nowait()
            except _queue.Empty:
                break
            op = cmd.get("op")
            project = cmd.get("project") or self.cfg.project
            rt = self.coord.projects.get(project)
            if op in ("pause", "unpause") and rt is not None:
                # manual pause halts SELECTION only; inbound follows /
                # retries / newtasks keep queueing (active=False is the
                # reference's STOP and would reject them at task_verify)
                cfg2 = copy.copy(rt.cfg)
                cfg2.paused = (op == "pause")
                self.coord.update_project(cfg2)
            elif op == "update_rate" and rt is not None:
                cfg2 = copy.copy(rt.cfg)
                if cmd.get("rate") is not None:
                    cfg2.rate = float(cmd["rate"])
                if cmd.get("burst") is not None:
                    cfg2.burst = float(cmd["burst"])
                self.coord.update_project(cfg2)
            elif op == "newtask" and cmd.get("task"):
                task = dict(cmd["task"])
                # default the crawl's project so a bare /newtask isn't
                # silently dropped by task_verify's project check
                task.setdefault("project", project)
                self._pending_new.append(task)
            elif op == "message":
                from ..send_message import message_task
                self._pending_new.append(
                    message_task(project, cmd.get("message")))
            elif op == "update_script":
                # the script file was already validated + written by
                # the producer; run_round applies the swap right after
                # _collect_ctrl, draining the plane still in flight first
                self._pending_script_reload = True
            applied.append(cmd)
        return applied

    def _apply_script_update(self) -> None:
        """Hot-swap the handler script — the reference's script-editor
        save path (webui/debug.py save → projectdb.update → scheduler
        update_project → processor rebuilds the project module): rebuild
        the handler class from the saved script file, refresh the
        project config (rate/burst are script header comments,
        min_tick/crawl_config/retry_delay are class attrs), and retire
        the worker pool so the next data-plane dispatch spawns workers
        carrying the new class (handler classes pickle by value).
        Called at the round boundary."""
        self._pending_script_reload = False
        cfg = self.cfg
        if not cfg.script_path:
            return
        from ..sources.projectdb import LocalProjectDB
        from ..sources.projectdb import build_handler as _build
        db = LocalProjectDB([cfg.script_path])
        projects = db.get_all()
        if not projects:
            return
        # the planes still in flight finish on the old class first (a
        # dead worker's chunks re-run on an old-class replacement), and
        # their payload writes are durable before the pool is retired
        self._resolve_planes()
        self._flush_writes()
        project = projects[0]
        cfg.handler_cls = _build(project)
        cfg.rate, cfg.burst = project["rate"], project["burst"]
        self.coord.update_project(_project_config(cfg))
        if getattr(self, "_workers", None):
            import ray
            for w in self._workers:
                try:
                    ray.kill(w)
                except Exception:
                    pass
        self._workers = None
        if self._local_worker is not None:   # in-process: rebuilt lazily
            self._local_worker.close()
            self._local_worker = None

    def run_round(self) -> dict:
        with self.ctl_lock:
            return self._run_round_locked()

    def _run_round_locked(self) -> dict:
        cfg = self.cfg
        self._sync_clocks()
        self.apply_controls()
        # operator inbox (send_message CLI, reference run.py:808-835):
        # spooled task files enter this round's request phase
        from ..send_message import drain_inbox
        self._pending_new.extend(drain_inbox(cfg.out_dir))
        status, self._pending_status = self._pending_status, []
        new, self._pending_new = self._pending_new, []
        # run_once phase order (scheduler.py:661-671): status → requests
        # (control dicts, then the columnar follow stream) → cron → select
        t0 = time.perf_counter()
        self.coord.dispatch_status(status)
        ctrl_tables, busy_s = self._collect_ctrl()
        if self._pending_script_reload:
            self._apply_script_update()
        t_drain = time.perf_counter()
        self.coord.dispatch_requests(new)
        # async follow fan-out: shards ingest while the driver parses
        # handler extras; gathered before select (shard mailbox FIFO keeps
        # follow-before-select ordering regardless)
        self.coord.begin_follow_tables(ctrl_tables, cfg.project,
                                       cfg.follow_priority)
        if cfg.handler_cls is not None:
            self._ingest_handler_extras(ctrl_tables)
        self.coord.finish_follow_tables()
        t_follow = time.perf_counter()
        # Cron ticks EVERY loop, drain rounds included (the reference
        # runs _check_cronjob unconditionally, scheduler.py:661-671,
        # even while the out queue is full).
        control = [self.coord._on_select_task(
            t, self.coord.projects[t["project"]])
            for t in self.coord.tick_cronjobs()]
        if self._send_buffer:
            # W8 drain: selection halts until the buffer empties, and
            # the buffered tasks already consumed politeness tokens when
            # first admitted — the reference force-sends its _send_buffer
            # without re-rating (scheduler.py:465-475) — so they bypass
            # the gate; only this round's fresh cron controls are rated.
            forced, self._send_buffer = self._send_buffer, []
            batch = forced + control
        else:
            forced = []
            batch = control + self.coord.select()
        t_select = time.perf_counter()

        admitted, deferred, blocked = self.gate.admit(batch[len(forced):])
        admitted = forced + admitted
        if cfg.out_queue_limit and len(admitted) > cfg.out_queue_limit:
            self._send_buffer = admitted[cfg.out_queue_limit:]
            admitted = admitted[:cfg.out_queue_limit]
        if deferred:
            per_shard: dict[int, dict[str, list]] = {}
            for t in deferred:
                idx = self.coord.route(t)
                per_shard.setdefault(idx, {}).setdefault(t["project"], []).append(
                    (t["taskid"], self.clock.now() + self.gate.defer_delay,
                     self.coord._next_seq()))
            for idx, projs in per_shard.items():
                for project, items in projs.items():
                    self.coord._call(self.coord.shards[idx], "requeue",
                                     project, items)
        self._pending_status.extend(self._blocked_status(t) for t in blocked)

        n_results = 0
        if admitted:
            table = self._tasks_to_table(admitted)
            round_dir = self._round_dir(self.round_idx)
            self._pending_ctrl.append(self._run_data_plane(table, round_dir))
            n_results = len(admitted)  # 1 control row per admitted task

        t_dispatch = time.perf_counter()
        self.metrics_hub.ingest_shard_deltas(self.coord.drain_counters())
        metric = {"round": self.round_idx, "emitted": len(batch),
                  "admitted": len(admitted), "deferred": len(deferred),
                  "blocked": len(blocked), "fetched": n_results,
                  "pending_new": len(self._pending_new),
                  "send_buffered": len(self._send_buffer),
                  "vtime": self.clock.now(),
                  # driver-phase wall breakdown (seconds): drain = wait on
                  # the due round's data plane + status ingest; follow =
                  # follow fan-out (+handler extras); select =
                  # cron+select+gate; dispatch = table build + chunk
                  # submission
                  "t_drain": round(t_drain - t0, 4),
                  # process_chunk seconds summed over the due plane (all
                  # workers; in-process, the one local worker)
                  "worker_busy_s": round(busy_s, 4),
                  "t_follow": round(t_follow - t_drain, 4),
                  "t_select": round(t_select - t_follow, 4),
                  "t_dispatch": round(t_dispatch - t_select, 4)}
        self.metrics.append(metric)
        self.round_idx += 1
        self.clock.advance(cfg.clock_step)
        return metric

    def run(self, max_rounds: int = 10_000,
            checkpoint_every: int = 0,
            stop_on_quiescent: bool = True) -> dict:
        while self.round_idx < max_rounds:
            m = self.run_round()
            if checkpoint_every and self.round_idx % checkpoint_every == 0:
                self.checkpoint()
            if stop_on_quiescent and not m["emitted"] and not m["admitted"] \
                    and not self._pending_new and not self._pending_status \
                    and not self._pending_ctrl and not self._send_buffer \
                    and self.coord.is_quiescent():
                break
        return {"rounds": self.round_idx,
                "fetched": sum(m["fetched"] for m in self.metrics),
                "metrics": self.metrics}

    def export_frontier(self, out_dir: str | None = None) -> str:
        """Portable columnar taskdb snapshot (sources/store.py) with
        lineage — engine-agnostic alternative to the pickle checkpoints."""
        from ..sources.store import export_frontier as _export
        from ..sources.store import write_frontier_manifest
        out_dir = out_dir or os.path.join(self.cfg.out_dir, "frontier")
        lineage = {"round": self.round_idx, "vtime": self.clock.now(),
                   "config_digest": self.cfg.digest()}
        if not self.cfg.use_ray:
            return _export(self.shards, out_dir, lineage)
        import ray
        os.makedirs(out_dir, exist_ok=True)
        paths = ray.get([s.export_frontier_to.remote(out_dir)
                         for s in self.shards])
        return write_frontier_manifest(out_dir, paths, lineage)

    def _flush_writes(self) -> None:
        if self.cfg.use_ray and getattr(self, "_workers", None):
            import ray
            for w in list(self._workers):
                try:
                    ray.get(w.flush.remote())
                except ray.exceptions.RayActorError:
                    self._redispatch_from(w)

    # -- inspection ----------------------------------------------------------
    def seen_taskids(self) -> list[str]:
        out: list[str] = []
        for ids in self.coord._call_all("seen_taskids", self.cfg.project):
            out.extend(ids)
        return sorted(out)

    def emitted_order(self) -> list[str]:
        return [tid for _, tid in self.coord.emitted_log]

    def results_dataset(self):
        import ray.data as rd
        self._flush_writes()
        return rd.read_parquet(self.results_dir)

    def results_table(self) -> pa.Table:
        import pyarrow.dataset as pads
        self._flush_writes()
        return pads.dataset(self.results_dir).to_table()

    # -- checkpoint / resume (M4) --------------------------------------------
    def checkpoint(self) -> str:
        # every plane in flight is drained and its result partitions made
        # durable first; each plane stays its own entry, so a checkpoint
        # never changes which round ingests it
        self._resolve_planes()
        self._flush_writes()
        tag = f"round={self.round_idx:05d}"
        cdir = os.path.join(self.ckpt_dir, tag + ".tmp")
        os.makedirs(cdir, exist_ok=True)
        if self.cfg.use_ray:
            import ray
            ray.get([s.snapshot_to.remote(os.path.join(cdir, f"shard_{i}.pkl"))
                     for i, s in enumerate(self.shards)])
        else:
            for i, s in enumerate(self.shards):
                with open(os.path.join(cdir, f"shard_{i}.pkl"), "wb") as f:
                    pickle.dump(s.snapshot(), f)
        state = {
            "coordinator": self.coord.snapshot(),
            "gate": self.gate.snapshot(),
            "pending_status": self._pending_status,
            "pending_new": self._pending_new,
            "pending_ctrl": self._pending_ctrl,
            "send_buffer": self._send_buffer,
            "metrics": self.metrics,
        }
        with open(os.path.join(cdir, "driver.pkl"), "wb") as f:
            pickle.dump(state, f)
        self.metrics_hub.dump(os.path.join(cdir, "metrics.json"))
        manifest = {
            "round": self.round_idx,
            "vtime": self.clock.now(),
            "config_digest": self.cfg.digest(),
            "n_shards": self.cfg.n_shards,
            "completed_result_dirs": sorted(
                d for d in os.listdir(self.results_dir)
                if d.startswith("round=")),
            "fetched": sum(m["fetched"] for m in self.metrics),
        }
        with open(os.path.join(cdir, "manifest.json"), "w") as f:
            json.dump(manifest, f, indent=1)
        final = os.path.join(self.ckpt_dir, tag)
        if os.path.exists(final):
            import shutil
            shutil.rmtree(final)
        os.rename(cdir, final)  # atomic publish
        return final

    @classmethod
    def resume(cls, cfg: CrawlConfig) -> "CrawlPipeline":
        """Rebuild from the newest checkpoint under cfg.out_dir; completed
        result partitions are kept (not re-fetched)."""
        ckpts = sorted(d for d in os.listdir(os.path.join(cfg.out_dir,
                                                          "checkpoints"))
                       if d.startswith("round=") and not d.endswith(".tmp"))
        if not ckpts:
            raise FileNotFoundError("no checkpoint to resume from")
        cdir = os.path.join(cfg.out_dir, "checkpoints", ckpts[-1])
        with open(os.path.join(cdir, "manifest.json")) as f:
            manifest = json.load(f)
        if manifest["config_digest"] != cfg.digest():
            raise ValueError("checkpoint was written by a different config")

        pipe = cls(cfg)
        pipe.round_idx = manifest["round"]
        pipe.clock.set(manifest["vtime"])
        pipe._sync_clocks()
        projects = [_project_config(cfg)]
        if cfg.use_ray:
            import ray
            ray.get([s.restore_from.remote(
                os.path.join(cdir, f"shard_{i}.pkl"), projects)
                for i, s in enumerate(pipe.shards)])
        else:
            for i in range(cfg.n_shards):
                with open(os.path.join(cdir, f"shard_{i}.pkl"), "rb") as f:
                    snap = pickle.load(f)
                pipe.shards[i] = FrontierShard.restore(
                    snap, clock=pipe.clock, projects=projects)
            pipe.coord.shards = pipe.shards
        with open(os.path.join(cdir, "driver.pkl"), "rb") as f:
            state = pickle.load(f)
        pipe.coord.restore_state(state["coordinator"])
        pipe.gate.restore_buckets(state["gate"])
        pipe._pending_status = state["pending_status"]
        pipe._pending_new = state["pending_new"]
        planes = state.get("pending_ctrl", [])
        if planes and isinstance(planes[0], pa.Table):
            # written when one round was in flight: a flat list of that
            # round's control tables, resumed as its one plane
            planes = [{"round": pipe.round_idx - 1, "tables": planes,
                       "busy_s": 0.0}]
        pipe._pending_ctrl = planes
        pipe._send_buffer = state.get("send_buffer", [])
        mpath = os.path.join(cdir, "metrics.json")
        if os.path.exists(mpath):
            pipe.metrics_hub.load(mpath)
        pipe.metrics = state["metrics"]
        return pipe


def _main() -> None:
    import argparse
    ap = argparse.ArgumentParser(description="run a synthetic crawl")
    ap.add_argument("--total", type=int, default=2000)
    ap.add_argument("--seeds", type=int, default=20)
    ap.add_argument("--shards", type=int, default=4)
    ap.add_argument("--hosts", type=int, default=5)
    ap.add_argument("--out", default="/tmp/pyspider_ray_crawl")
    ap.add_argument("--rounds", type=int, default=1000)
    ap.add_argument("--loop-limit", type=int, default=1000)
    ap.add_argument("--concurrency", type=int, default=4)
    ap.add_argument("--skew", action="store_true")
    ap.add_argument("--no-ray", action="store_true")
    ap.add_argument("--resume", action="store_true")
    ap.add_argument("--checkpoint-every", type=int, default=0)
    ap.add_argument("--script", default=None,
                    help="handler script file: its BaseHandler subclass "
                         "drives the crawl; # rate/# burst comments set "
                         "the project bucket (S6)")
    ap.add_argument("--serve-api", type=int, default=None, metavar="PORT",
                    help="serve the read-only results/metrics HTTP API "
                         "on this port during and after the crawl "
                         "(0 = ephemeral; see pyspider_ray.webapi)")
    ap.add_argument("--serve-forever", action="store_true",
                    help="with --serve-api: keep serving after the "
                         "crawl finishes until interrupted")
    args = ap.parse_args()

    import ray
    if not args.no_ray and not ray.is_initialized():
        ray.init(address="local", include_dashboard=False,
                 logging_level="ERROR")
    extra = {}
    if args.script:
        from ..sources.projectdb import LocalProjectDB, build_handler
        db = LocalProjectDB([args.script])
        project = db.get_all()[0]
        extra = {"handler_cls": build_handler(project),
                 "project": project["name"],
                 "rate": project["rate"], "burst": project["burst"],
                 "script_path": os.path.abspath(args.script)}
    cfg = CrawlConfig(total=args.total, n_seeds=args.seeds,
                      n_shards=args.shards, n_hosts=args.hosts,
                      out_dir=args.out, loop_limit=args.loop_limit,
                      concurrency=args.concurrency, skew=args.skew,
                      use_ray=not args.no_ray, **extra)
    if args.resume:
        pipe = CrawlPipeline.resume(cfg)
    else:
        pipe = CrawlPipeline(cfg)
        pipe.seed()
    api = None
    if args.serve_api is not None:
        from ..webapi import serve
        api = serve(pipe, port=args.serve_api)
        print(json.dumps({"api": f"http://127.0.0.1:"
                                 f"{api.server_address[1]}"}),
              flush=True)
    summary = pipe.run(max_rounds=args.rounds,
                       checkpoint_every=args.checkpoint_every)
    pipe.checkpoint()
    table = pipe.results_table()
    uniq_col = "image_id" if "image_id" in table.column_names else "taskid"
    print(json.dumps({
        "rounds": summary["rounds"],
        "fetched": summary["fetched"],
        "results": table.num_rows,
        "unique_images": len(set(table[uniq_col].to_pylist())),
        "out_dir": cfg.out_dir,
    }), flush=True)
    if api is not None and args.serve_forever:
        try:
            import time as _time
            while True:
                _time.sleep(3600)
        except KeyboardInterrupt:
            pass
    if api is not None:
        api.shutdown()
    if not args.no_ray:
        ray.shutdown()


if __name__ == "__main__":
    _main()
