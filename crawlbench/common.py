"""Shared plumbing: paths, the Ray session, memory sampling, spans and
the result line.  Nothing here starts a thread, process or Ray session
at import time."""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".crawlbench")
# one unix socket path under the Ray temp dir is
# "<temp>/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store",
# up to 64 characters past <temp>; Linux caps socket paths at 107
RAY_TEMP_MAX = 40


def work_dir(*parts: str) -> str:
    path = os.path.join(WORK, *parts)
    os.makedirs(path, exist_ok=True)
    return path


# -- Ray session ---------------------------------------------------------------

def ray_temp_dir() -> str:
    """Ray's session directory, inside the checkout when the socket
    paths fit; a fresh /tmp directory otherwise (removed at exit)."""
    cand = os.path.join(WORK, "ray")
    if len(cand) <= RAY_TEMP_MAX:
        os.makedirs(cand, exist_ok=True)
        return cand
    import tempfile
    return tempfile.mkdtemp(prefix="crawlbench-ray-")


def start_ray(temp: str, num_cpus: int = 4) -> None:
    """Ray with 4 logical CPUs (hash_join_revenue's fixed 2-actor pool
    hangs at 1-2) and the checkout on the workers' PYTHONPATH (workers
    started from another cwd cannot import the package otherwise)."""
    import logging

    import ray
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=512 << 20, _temp_dir=temp,
             runtime_env={"env_vars": {"PYTHONPATH": ROOT}})
    import ray.data as rd
    rd.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


class RaySession:
    """The run's Ray cluster.  ``restart()`` stops the running cluster, if
    any, and starts a fresh one, so a workload can time its whole set-up
    (Ray start included) several times in one run."""

    def __init__(self):
        self.temp = ray_temp_dir()
        self.shutdown_s: list[float] = []

    def restart(self) -> float:
        """Seconds the (re)start took, not counting the shutdown."""
        import ray
        if ray.is_initialized():
            t0 = time.perf_counter()
            ray.shutdown()
            self.shutdown_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        start_ray(self.temp)
        return time.perf_counter() - t0

    def close(self) -> None:
        import ray
        if ray.is_initialized():
            ray.shutdown()
        if not self.temp.startswith(WORK):
            import shutil
            shutil.rmtree(self.temp, ignore_errors=True)


# -- memory ------------------------------------------------------------------

def _memory_kb(pid: int | str) -> tuple[int, int]:
    """A process's proportional set size (shared pages count once) now,
    and its peak since its high-water mark was last reset: the PSS now
    plus the resident memory it has given back since (VmHWM - VmRSS)."""
    pss = rss = hwm = 0
    try:
        with open(f"/proc/{pid}/smaps_rollup") as f:
            for line in f:
                if line.startswith("Pss:"):
                    pss = int(line.split()[1])
                    break
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    hwm = int(line.split()[1])
                elif line.startswith("VmRSS:"):
                    rss = int(line.split()[1])
    except OSError:
        pass
    return pss, pss + max(0, hwm - rss)


def _reset_high_water(pid: int | str) -> None:
    try:
        with open(f"/proc/{pid}/clear_refs", "w") as f:
            f.write("5")          # 5: reset VmHWM to the current VmRSS
    except OSError:
        pass


def group_pids(pgid: int | None = None) -> list[int]:
    """Live processes of a process group, by default ours (the runner
    starts the workload as a group leader; Ray's daemons and workers
    inherit the group).  Zombies have exited and are left out."""
    if pgid is None:
        pgid = os.getpgrp()
    out = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z" and int(fields[2]) == pgid:
            out.append(int(name))
    return out


class MemorySampler:
    """Peak memory of the driver, or of the driver plus the run's Ray
    processes: at each sample, the sum over processes of each one's peak
    proportional set size since ``start()`` (see ``_memory_kb``).  The
    kernel's per-process high-water mark catches peaks between samples,
    such as a worker's exchange buffers freed before a query leg returns;
    summing per-process peaks taken at different moments can overstate
    the peak of the sum, and a process that ends between samples is
    missed."""

    def __init__(self, whole_group: bool):
        self.whole_group = whole_group
        self.peak_mb = 0.0

    def _pids(self) -> list:
        return group_pids() if self.whole_group else ["self"]

    def start(self) -> float:
        """Reset every process's high-water mark; the first sample."""
        for pid in self._pids():
            _reset_high_water(pid)
        return self.sample()

    def sample(self) -> float:
        """Record the peak; return the summed PSS now, in MB."""
        now = peak = 0
        for pid in self._pids():
            a, b = _memory_kb(pid)
            now, peak = now + a, peak + b
        self.peak_mb = max(self.peak_mb, peak / 1024.0)
        return now / 1024.0


# -- spans -------------------------------------------------------------------

class Tracer:
    """In-memory spans (name, start, end, parent) and counts, recorded by
    wrapping public callables from outside.  Self time is a span's
    duration minus its children's; spans nest on the calling thread."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] += n

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper;
        ``on_result(tracer, args, result)`` records counts."""
        had_own = attr in vars(owner)
        orig = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = orig(*args, **kwargs)
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig, had_own))

    def restore(self) -> None:
        for owner, attr, orig, had_own in reversed(self._undo):
            if had_own:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)
        self._undo.clear()

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for i, (name, t0, t1, _) in enumerate(self.spans):
            out[name] += (t1 - t0) - child[i]
        return dict(out)

    def durations(self, name: str) -> list[float]:
        return [t1 - t0 for n, t0, t1, _ in self.spans if n == name]

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, f)


# -- statistics and the result line --------------------------------------------

def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it."""
    s = sorted(values)
    k = len(s) - 11
    if k < 0:
        return s[-1], 100.0
    return s[k], 100.0 * (k + 1) / len(s)


def emit(correct: bool, attempted: int, failed: int, metrics: dict,
         info: dict) -> None:
    """Run info first, then the result object as the last stdout line."""
    print(json.dumps({"run_info": info}, default=str), flush=True)
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}),
          flush=True)
