"""Shared plumbing for the repository benchmark.

Everything here is measurement: the noise envelope each result carries,
order statistics, the cold set-up timer, the machine-speed probe, payload
digests and the span arithmetic behind the per-layer split.  Nothing here
imports ``repro`` at module level, so ``run.py`` can report a missing
source tree cleanly.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import time
from pathlib import Path

#: The checkout the benchmark runs in: the directory above this package.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for stores and cache directories, inside the checkout.
WORK = ROOT / ".bench_work"

#: Cold set-ups measured per run; the run reports their median.
SETUP_REPEATS = 3


def program_env() -> dict:
    """Environment for child processes that run the program from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-linux fallback
        return os.cpu_count() or 1


def git_sha() -> str:
    """The checkout's commit, or ``"unknown"`` outside a git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_seconds() -> float:
    """CPU time of this process plus its reaped children (user + system)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def envelope_start() -> dict:
    import numpy

    return {
        "cpus": available_cpus(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "loadavg_before": list(os.getloadavg()),
        "_wall0": time.perf_counter(),
        "_cpu0": cpu_seconds(),
    }


def envelope_finish(env: dict) -> dict:
    env = dict(env)
    env["wall_s"] = time.perf_counter() - env.pop("_wall0")
    env["cpu_s"] = cpu_seconds() - env.pop("_cpu0")
    env["loadavg_after"] = list(os.getloadavg())
    return env


def peak_rss_mb_here() -> float:
    """Peak RSS of this process and of its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is KiB on Linux


def quantile(values, q: float) -> float:
    """Nearest-rank quantile: the smallest sample with ``q`` of the mass at
    or below it.  With fewer than ``1 / (1 - q)`` samples this is the
    maximum — the caller states the sample count beside it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no samples")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values) -> float:
    return statistics.median(values)


def digest(obj) -> str:
    """sha256 of an object's canonical JSON form."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def timed_setups(argv: list[str], ready_line: str | None = None) -> list[float]:
    """Wall seconds from spawning ``argv`` until it is ready, repeated.

    Without ``ready_line`` the child is ready when it exits 0.  With it,
    the child is ready when it prints a line starting with
    ``ready_line``; it is then terminated and reaped.
    """
    samples = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        if ready_line is None:
            proc = subprocess.run(
                argv, env=program_env(), cwd=ROOT, capture_output=True, timeout=60
            )
            if proc.returncode != 0:
                raise RuntimeError(
                    f"set-up child failed: {proc.stderr.decode(errors='replace')[-500:]}"
                )
            samples.append(time.perf_counter() - started)
            continue
        proc = subprocess.Popen(
            argv, env=program_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True
        )
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - started)
            if not line.startswith(ready_line):
                raise RuntimeError(f"set-up child printed {line!r}")
        finally:
            proc.terminate()
            proc.wait(timeout=30)
            proc.stdout.close()
    return samples


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


# --------------------------------------------------------------------------
# Span arithmetic.  Spans are ``SpanRecord.to_dict()`` mappings; worker
# spans share the parent's CLOCK_MONOTONIC timeline.
# --------------------------------------------------------------------------


def layer_of(span: dict) -> str:
    """The program layer a span's self time belongs to."""
    name = span["name"]
    if name == "backends.evaluate":
        backend = span["attrs"].get("backend", "")
        return {"simulated": "simulate", "network": "net"}.get(backend, "core")
    if name.startswith("bench."):
        return "bench"
    if name == "sweep.run":
        return "sweep"
    return name.split(".", 1)[0]


def _descendants(spans: list[dict], root_id: str) -> list[dict]:
    children: dict[str, list[dict]] = {}
    for span in spans:
        children.setdefault(span["parent_id"], []).append(span)
    out, stack = [], [root_id]
    while stack:
        for child in children.get(stack.pop(), ()):
            out.append(child)
            stack.append(child["span_id"])
    return out


def self_times(spans: list[dict]) -> dict[str, float]:
    """Classic self time per span id: its wall minus the union of the
    intervals its direct children cover (clipped to the span).  Spans of
    parallel pool workers each keep their own self time, so these sum
    to more than the wall clock on a multi-process run."""
    by_parent: dict[str, list[dict]] = {}
    for span in spans:
        by_parent.setdefault(span["parent_id"], []).append(span)
    result = {}
    for span in spans:
        lo, hi = span["start_s"], span["start_s"] + span["wall_s"]
        covered, cursor = 0.0, lo
        kids = sorted(
            (max(lo, c["start_s"]), min(hi, c["start_s"] + c["wall_s"]))
            for c in by_parent.get(span["span_id"], ())
        )
        for start, end in kids:
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        result[span["span_id"]] = max(0.0, span["wall_s"] - covered)
    return result


def timeline_shares(spans: list[dict], root: dict) -> dict[str, float]:
    """Split the root span's wall time between layers, instant by instant.

    At each instant the *leaf-most* open spans under the root (open
    spans with no open child) share it equally, so parallel pool chunks
    split the instants they overlap and the shares sum to the root's
    wall time exactly.  Returns seconds per layer.
    """
    lo, hi = root["start_s"], root["start_s"] + root["wall_s"]
    members = [root] + _descendants(spans, root["span_id"])
    parent_of = {s["span_id"]: s["parent_id"] for s in members}
    depth = {root["span_id"]: 0}
    for span in members[1:]:  # _descendants lists parents before children
        depth[span["span_id"]] = depth[span["parent_id"]] + 1
    events = []
    for span in members:
        start = min(max(span["start_s"], lo), hi)
        end = min(max(span["start_s"] + span["wall_s"], lo), hi)
        if end > start:
            # At equal timestamps: ends before starts, children end
            # before parents, parents start before children.
            d = depth[span["span_id"]]
            events.append((start, 1, d, span["span_id"]))
            events.append((end, 0, -d, span["span_id"]))
    events.sort()
    layer = {s["span_id"]: layer_of(s) for s in members}
    open_children: dict[str, int] = {}
    active: set[str] = set()
    leaves: set[str] = set()
    shares: dict[str, float] = {}
    last = lo
    for when, kind, _depth, span_id in events:
        if when > last and leaves:
            part = (when - last) / len(leaves)
            for leaf in leaves:
                shares[layer[leaf]] = shares.get(layer[leaf], 0.0) + part
        last = max(last, when)
        parent = parent_of.get(span_id)
        if kind == 1:
            active.add(span_id)
            if open_children.get(span_id, 0) == 0:
                leaves.add(span_id)
            if parent in active:
                open_children[parent] = open_children.get(parent, 0) + 1
                leaves.discard(parent)
        else:
            active.discard(span_id)
            leaves.discard(span_id)
            if parent in active:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return shares



#: The speed probe's median on the 2-CPU machine the bounds were first set
#: on.  Only a scale: rescaled timings read as if the machine ran at that
#: speed.
PROBE_REF_S = 0.025


def rescale(seconds: list[float], probes: list[float]) -> list[float]:
    """Timings rescaled to the reference machine speed.

    ``probes[i]`` and ``probes[i + 1]`` are :func:`probe_s` readings
    taken just before and after ``seconds[i]`` was measured.  The host
    this benchmark was defined on switches between a fast and a ~1.8x
    slower state every few seconds; the probe slows down with it, so a
    rescaled timing keeps the program's own cost and drops the host's.
    """
    return [
        value * PROBE_REF_S / ((probes[i] + probes[i + 1]) / 2)
        for i, value in enumerate(seconds)
    ]


def probe_s() -> float:
    """Median wall seconds of a fixed pure-Python loop (heap, dict and
    float traffic, like the simulators'): the machine's speed right now."""
    import heapq
    import random

    samples = []
    for _ in range(3):
        rng = random.Random(12345)
        heap: list = []
        table: dict = {}
        started = time.perf_counter()
        for i in range(30000):
            heapq.heappush(heap, (rng.random(), i))
            if len(heap) > 64:
                key, value = heapq.heappop(heap)
                table[value % 997] = table.get(value % 997, 0.0) + key * 1.5
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)
