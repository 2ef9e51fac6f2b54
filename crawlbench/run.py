#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last line.

    python3 crawlbench/run.py --workload crawl_links --seed 1 \
        --seconds 8 --trace 0

The workload runs in a child process that leads its own process group,
so the run's Ray daemons and workers belong to that group.  The runner
enforces a hard timeout, then stops every process left in the group and
waits until each has ended.  A hang or a crash becomes a named failure
with the result line still printed.  Ray processes found running before
the run are reported, not touched.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from crawlbench.common import group_pids  # noqa: E402

DEADLINE_S = 160          # the child's budget; the whole run ends by 180 s
REAP_S = 10


def _cmdline(pid: str) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


def stale_ray_processes() -> list[int]:
    out = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        cmd = _cmdline(pid)
        if cmd.startswith("ray::") or "/ray/core/src/ray/" in cmd:
            out.append(int(pid))
    return out


def reap_group(pgid: int) -> list[int]:
    """SIGKILL whatever is left in the group; wait until none remain."""
    left = group_pids(pgid)
    if left:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + REAP_S
    while group_pids(pgid) and time.monotonic() < deadline:
        time.sleep(0.1)
    return left


def host_spin_s() -> float:
    """Seconds for 10^6 pure-Python additions.  A shared host's CPU
    speed can drift (by up to 1.8x over minutes on a 4-vCPU VM); the run
    info records this before and after the run so a reader can tell the
    host's phase."""
    t0 = time.perf_counter()
    x = 0
    for i in range(1_000_000):
        x += i
    return time.perf_counter() - t0


def failure(name: str, detail: dict) -> None:
    print(json.dumps({"run_info": dict(detail, failure=name)}), flush=True)
    print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                      "metrics": {}}), flush=True)


def main() -> int:
    if not os.path.isdir(os.path.join(ROOT, "pyspider_ray")):
        print("crawlbench: the pyspider_ray package is not next to "
              "crawlbench/; run from a full checkout", file=sys.stderr)
        return 2
    stale = stale_ray_processes()
    if stale:
        print(f"crawlbench: {len(stale)} Ray processes were already "
              f"running before this run: {stale[:20]}", file=sys.stderr)
    env = dict(os.environ, PYTHONPATH=ROOT + os.pathsep +
               os.environ.get("PYTHONPATH", ""))
    spin_before = host_spin_s()
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-m", "crawlbench.bench", *sys.argv[1:]],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True)
    timed_out = False
    try:
        out, _ = proc.communicate(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        timed_out = True
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
    finally:
        leftover = reap_group(proc.pid)
        for sub in ("ray", "out"):
            shutil.rmtree(os.path.join(ROOT, ".crawlbench", sub),
                          ignore_errors=True)
    detail = {"argv": sys.argv[1:], "wall_s": time.monotonic() - t0,
              "host_spin_s": [spin_before, host_spin_s()],
              "stale_ray_processes_at_start": len(stale),
              "killed_leftover_processes": len(leftover)}
    if leftover:
        print(f"crawlbench: stopped {len(leftover)} processes the run "
              f"left behind", file=sys.stderr)
    lines = out.strip().splitlines()
    if timed_out:
        failure(f"timeout: no result within {DEADLINE_S} s", detail)
        return 1
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0 or not isinstance(result, dict) \
            or "correct" not in result:
        failure(f"workload exited with code {proc.returncode} "
                f"and no result", detail)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"run_info": detail}))
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
