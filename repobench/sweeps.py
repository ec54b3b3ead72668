"""The two sweep workloads: ``sim-sweep`` and ``net-sweep``.

A *unit* is one cold pass over the workload's specs: a fresh store
directory, one :meth:`SweepRunner.run` per spec.  A run repeats units
for its time budget and reports medians, because identical units in one
process spread by tens of percent on a small shared machine.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
import tempfile
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from common import (
    ROOT,
    WORK,
    cpu_seconds,
    digest,
    median,
    metric,
    peak_rss_mb_here,
    probe_s,
    rescale,
    self_times,
    timed_setups,
    timeline_shares,
)
from repro.net import flows
from repro.obs.metrics import get_registry
from repro.obs.trace import tracer
from repro.scenarios.spec import parse_scenario
from repro.scenarios.sweep import SweepRunner, evaluate_point, expand_grid

BUILTIN = ROOT / "src" / "repro" / "scenarios" / "builtin"
EXPECTED = Path(__file__).resolve().parent / "expected.json"

#: Units a run always measures, whatever its time budget.
MIN_UNITS = 3
#: Grid points per run re-evaluated in-process as a correctness sample.
SAMPLE_POINTS = 2
#: Share of a traced unit's wall time that may fall outside named layers.
MAX_UNATTRIBUTED = 0.10
NET_WORKERS = [1, 2, 4, 8, 16, 32, 64, 96, 128, 192, 256]


def _builtin(name: str) -> dict:
    return json.loads((BUILTIN / f"{name}.json").read_text())


def stratified(rng: random.Random, lo: float, hi: float, count: int, digits: int) -> list[float]:
    """One seeded value from each of ``count`` equal slices of [lo, hi).

    Every seed then spans the range alike, so the seed changes the
    inputs but not how much work they are."""
    width = (hi - lo) / count
    return [round(lo + (i + rng.random()) * width, digits) for i in range(count)]


def sim_specs(seed: int) -> list[dict]:
    """Figure 2's Spark GD job on the simulated backend, 1..64 workers,
    over a seeded 8 jitter x 3 straggler-fraction grid."""
    rng = random.Random(f"sim-sweep:{seed}")
    doc = _builtin("figure2")
    doc["name"] = "bench-sim-sweep"
    doc["workers"] = {"min": 1, "max": 64}
    doc["backend"] = {
        "kind": "simulated",
        "simulation": {
            "iterations": 10,
            "seed": rng.randrange(1 << 16),
            "jitter_sigma": 0.05,
            "straggler_slowdown": 3.0,
            "overhead": "spark-like",
        },
    }
    doc["sweep"] = {
        "jitter_sigma": stratified(rng, 0.0, 0.15, 8, 4),
        "straggler_fraction": stratified(rng, 0.0, 0.3, 3, 3),
    }
    return [doc]


def net_specs(seed: int) -> list[dict]:
    """The two network builtins over 1..256 workers, 5 seeded sweep values each."""
    rng = random.Random(f"net-sweep:{seed}")
    rack = _builtin("rack-oversubscription")
    rack["workers"] = NET_WORKERS
    rack["backend"]["simulation"]["seed"] = rng.randrange(1 << 16)
    rack["sweep"] = {"oversubscription_ratio": stratified(rng, 1.0, 16.0, 5, 2)}
    geo = _builtin("geo-training")
    geo["workers"] = NET_WORKERS
    geo["backend"]["simulation"]["seed"] = rng.randrange(1 << 16)
    geo["sweep"] = {"wan_latency_ms": stratified(rng, 1.0, 50.0, 5, 1)}
    return [rack, geo]


@dataclass(frozen=True)
class SweepWorkload:
    name: str
    make_specs: Callable[[int], list[dict]]
    mode: str


WORKLOADS = {
    "sim-sweep": SweepWorkload("sim-sweep", sim_specs, "auto"),
    "net-sweep": SweepWorkload("net-sweep", net_specs, "serial"),
}

_SETUP_CHILD = """
import json, sys
from repro.scenarios.spec import parse_scenario
from repro.scenarios.sweep import SweepRunner
specs = [parse_scenario(d) for d in json.load(open(sys.argv[1]))]
SweepRunner(mode=sys.argv[2], cache_dir=sys.argv[3])
"""


def _curve_points(specs) -> int:
    return sum(len(expand_grid(s)) * len(s.workers) for s in specs)


@dataclass
class Unit:
    """One cold pass over a workload's specs."""

    wall_s: float
    cpu_s: float
    payloads: list[dict]
    store_stats: dict
    pool_workers: int

    @property
    def digests(self) -> tuple[str, ...]:
        return tuple(digest(p) for p in self.payloads)


def _unit(workload: SweepWorkload, specs) -> Unit:
    store = tempfile.mkdtemp(dir=WORK)
    try:
        runner = SweepRunner(mode=workload.mode, cache_dir=store)
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        with tracer().span("bench.unit"):
            results = []
            for spec in specs:
                with tracer().span("bench.sweep", {"scenario": spec.name}):
                    results.append(runner.run(spec))
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
        return Unit(
            wall,
            cpu,
            [r.payload() for r in results],
            runner.store.stats(),
            runner.max_workers or runner.cpus,
        )
    finally:
        shutil.rmtree(store, ignore_errors=True)


def _traced_unit(workload: SweepWorkload, specs) -> tuple[Unit, dict]:
    """A unit under the tracer; returns it with its per-layer metrics."""
    before = _counters()
    original = _traced_flows() if workload.mode == "serial" else None
    tracer().start()
    try:
        unit = _unit(workload, specs)
    finally:
        spans = [r.to_dict() for r in tracer().stop()]
        if original is not None:
            flows.solve_flows = original
    after = _counters()
    delta = {k: after.get(k, 0.0) - before.get(k, 0.0) for k in after}
    return unit, _layer_metrics(spans, unit.store_stats, delta, unit.pool_workers)


def _traced_flows():
    """Wrap ``repro.net.flows.solve_flows`` in a benchmark span."""
    original = flows.solve_flows

    def solve_flows(*args, **kwargs):
        with tracer().span("net.solve_flows"):
            return original(*args, **kwargs)

    flows.solve_flows = solve_flows
    return original


def _counters() -> dict[str, float]:
    return {m.name: m.value for m in get_registry().metrics() if m.kind == "counter"}


def _layer_metrics(spans: list[dict], store_stats: dict, counters: dict, workers: int) -> dict:
    roots = [s for s in spans if s["name"] == "bench.unit"]
    root = roots[0]
    own = self_times(spans)
    parent_pid = root["pid"]
    sweeps = [s for s in spans if s["name"] == "sweep.run"]
    tasks = [s for s in spans if s["name"] == "sched.task"]
    chunks = [s for s in tasks if str(s["attrs"].get("task", "")).startswith("chunk-")]
    pooled = [s for s in chunks if s["pid"] != parent_pid]

    def self_sum(pred) -> float:
        return sum(own[s["span_id"]] for s in spans if pred(s))

    def evaluates(backend):
        return [
            s for s in spans
            if s["name"] == "backends.evaluate" and s["attrs"].get("backend") == backend
        ]

    sim = evaluates("simulated")
    sim_points = sum(int(s["attrs"].get("points", 0)) for s in sim)
    analytic = evaluates("analytic")
    network = evaluates("network")
    solves = [s for s in spans if s["name"] == "net.solve_flows"]
    sweep_wall = sum(s["wall_s"] for s in sweeps)
    first_starts = []
    for sweep in sweeps:
        lo, hi = sweep["start_s"], sweep["start_s"] + sweep["wall_s"]
        mine = [c["start_s"] for c in chunks if lo <= c["start_s"] <= hi]
        if mine:
            first_starts.append(min(mine) - lo)
    shares = timeline_shares(spans, root)
    named = sum(v for k, v in shares.items() if k not in ("bench", "sweep"))
    reused = store_stats.get("points_reused", 0)
    computed = store_stats.get("points_computed", 0)
    return {
        "scenarios.compile_s": self_sum(lambda s: s["name"] == "scenarios.compile"),
        "scenarios.compiles": sum(1 for s in spans if s["name"] == "scenarios.compile"),
        "sched.chunks": len(chunks),
        "sched.pool_busy_frac": (
            sum(s["wall_s"] for s in pooled) / (workers * sweep_wall) if pooled else 0.0
        ),
        "sched.slowest_chunk_s": max((s["wall_s"] for s in chunks), default=0.0),
        "sched.first_chunk_start_s": (
            sum(first_starts) / len(first_starts) if first_starts else 0.0
        ),
        "sched.parent_inline_s": sum(
            s["wall_s"] for s in tasks if s["pid"] == parent_pid
        ),
        "core.evaluations": len(analytic),
        "core.evaluate_s": sum(own[s["span_id"]] for s in analytic),
        "simulate.evaluate_s": sum(own[s["span_id"]] for s in sim),
        "simulate.evaluations": len(sim),
        "simulate.us_per_curve_point": (
            sum(own[s["span_id"]] for s in sim) / sim_points * 1e6 if sim_points else 0.0
        ),
        "net.evaluate_s": sum(own[s["span_id"]] for s in network),
        "net.solve_flows_s": sum(own[s["span_id"]] for s in solves),
        "net.solve_flows_calls": len(solves),
        "net.flow_rounds": counters.get("repro_backends_flow_rounds_total", 0.0),
        "net.flows": counters.get("repro_backends_flows_total", 0.0),
        "store.plan_s": self_sum(lambda s: s["name"] == "store.plan"),
        "store.commit_s": self_sum(lambda s: s["name"] == "store.commit"),
        "store.hits": store_stats.get("hits", 0),
        "store.deltas": store_stats.get("deltas", 0),
        "store.misses": store_stats.get("misses", 0),
        "store.reused_frac": reused / (reused + computed) if reused + computed else 0.0,
        "store.bytes_mapped": store_stats.get("bytes_mapped", 0),
        "trace.unattributed_frac": 1.0 - named / root["wall_s"],
        "_shares": {k: v / root["wall_s"] for k, v in shares.items()},
    }


def _sample_check(specs, payloads, seed: int) -> tuple[int, int]:
    """Re-evaluate seeded grid points in-process; ``times_s`` bytes must match."""
    rng = random.Random(f"sample:{seed}")
    attempted = failed = 0
    for _ in range(SAMPLE_POINTS):
        which = rng.randrange(len(specs))
        spec, payload = specs[which], payloads[which]
        grid = expand_grid(spec)
        index = rng.randrange(len(grid))
        fresh = evaluate_point(spec, grid[index])
        got = np.asarray(payload["points"][index]["times_s"], dtype=np.float64)
        want = np.asarray(fresh["times_s"], dtype=np.float64)
        attempted += 1
        if got.tobytes() != want.tobytes() or payload["points"][index]["overrides"] != grid[index]:
            failed += 1
            print(f"sample mismatch: {spec.name} point {index}", file=sys.stderr)
    return attempted, failed


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    docs = workload.make_specs(seed)
    specs = [parse_scenario(d) for d in docs]
    inputs_sha = digest(docs)

    spec_file = Path(tempfile.mkdtemp(dir=WORK)) / "specs.json"
    spec_file.write_text(json.dumps(docs))
    setups = timed_setups(
        [sys.executable, "-c", _SETUP_CHILD, str(spec_file), workload.mode, str(spec_file.parent)]
    )
    shutil.rmtree(spec_file.parent, ignore_errors=True)

    points = _curve_points(specs)
    units: list[Unit] = []
    traced: list[Unit] = []
    layer_rows: list[dict] = []
    probes = [probe_s()]
    started = time.perf_counter()
    while True:
        units.append(_unit(workload, specs))
        if trace:
            unit, row = _traced_unit(workload, specs)
            traced.append(unit)
            layer_rows.append(row)
        probes.append(probe_s())
        elapsed = time.perf_counter() - started
        if len(units) >= MIN_UNITS and elapsed * (1 + 1 / len(units)) > seconds:
            break

    walls = [u.wall_s for u in units]
    digests = {u.digests for u in units + traced}
    traced_walls = [u.wall_s for u in traced]
    attempted = len(walls) + len(traced_walls)
    failed = 0
    if len(digests) != 1:
        failed += 1
        print(f"{name}: payload digests differ between units: {digests}", file=sys.stderr)
    expected = json.loads(EXPECTED.read_text()).get(name, {})
    if str(seed) in expected:
        attempted += 1
        if list(next(iter(digests))) != expected[str(seed)]:
            failed += 1
            print(f"{name}: payload digests differ from the recorded ones", file=sys.stderr)
    sample_attempted, sample_failed = _sample_check(specs, units[-1].payloads, seed)
    attempted += sample_attempted
    failed += sample_failed
    for row in layer_rows:
        attempted += 1
        if row["trace.unattributed_frac"] > MAX_UNATTRIBUTED:
            failed += 1
            print(
                f"{name}: {row['trace.unattributed_frac']:.3f} of traced wall time"
                f" is not attributed to a layer (limit {MAX_UNATTRIBUTED})",
                file=sys.stderr,
            )

    # Probes bracket each (untraced, traced) round of units.
    scaled = rescale(walls, probes)
    latency_ms = [w * 1e3 for w in scaled]
    rate = [points / w for w in scaled]
    detail = {
        "workload": name,
        "seed": seed,
        "inputs_sha256": inputs_sha,
        "payload_sha256": sorted(digests)[0],
        "units": len(walls),
        "curve_points_per_unit": points,
        "unit_wall_s": walls,
        "unit_cpu_s": [u.cpu_s for u in units],
        "probe_s": probes,
        "setup_samples_s": setups,
    }
    if trace:
        rows = layer_rows
        keys = [k for k in rows[0] if not k.startswith("_")]
        layer = {k: median([r[k] for r in rows]) for k in keys}
        layer["obs.tracing_overhead_frac"] = median(traced_walls) / median(walls) - 1.0
        detail["traced_unit_wall_s"] = traced_walls
        detail["timeline_shares"] = rows[len(rows) // 2]["_shares"]
        return {"attempted": attempted, "failed": failed, "layers": layer, "detail": detail}
    end_to_end = {
        "setup_s": metric(median(setups), "s"),
        "peak_rss_mb": metric(peak_rss_mb_here(), "MB"),
        "curve_points_per_s": metric(median(rate), "1/s"),
        "low_p50_ms": metric(median(latency_ms), "ms"),
        "high_p50_ms": metric(median(latency_ms), "ms"),
        "max_rate_rps": metric(1e3 / median(latency_ms), "1/s"),
    }
    return {"attempted": attempted, "failed": failed, "metrics": end_to_end, "detail": detail}
