"""Dependency-aware graph execution, inline or over an executor.

:class:`GraphScheduler` walks a validated :class:`~repro.sched.graph.TaskGraph`:
pool-marked tasks go to the supplied :class:`concurrent.futures.Executor`
(submitted eagerly, the moment their dependencies complete), everything
else runs inline in the calling thread.  Ready pool tasks are always
submitted *before* inline work runs, so a cheap inline task (a sweep's
reference point, a merge) overlaps the pool's expensive chunks instead
of serialising in front of them.

Failure is the design centre, because the callers cache results on
success: the first task that raises stops the run — every not-yet-started
future is cancelled, every already-running one is drained (a process
pool cannot interrupt a running call, but it must not race the caller's
cleanup) — and one :class:`~repro.sched.graph.TaskFailure` naming the
task surfaces.  Tasks downstream of the failure are never started, so a
caller that writes caches only after :meth:`GraphScheduler.run` returns
can never write a partial result.

Every run also answers "where did the time go": the report carries
per-task queue-wait (ready → started) and run durations, inline tasks
record ``sched.task`` spans when tracing is on, and the scheduler
feeds ``repro_sched_*`` counters/histograms on the global registry.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, Executor, Future, wait
from dataclasses import dataclass, field

from repro.obs.metrics import get_registry
from repro.obs.trace import tracer
from repro.sched.graph import Task, TaskFailure, TaskGraph, resolve_args

_REG = get_registry()
_TASKS = _REG.counter("repro_sched_tasks_total", "Graph tasks completed")
_POOL_TASKS = _REG.counter(
    "repro_sched_pool_tasks_total", "Graph tasks executed on an executor"
)
_FAILURES = _REG.counter("repro_sched_failures_total", "Graph tasks that raised")
_QUEUE_WAIT = _REG.histogram(
    "repro_sched_queue_wait_seconds", "Task wait between ready and started"
)
_RUN_SECONDS = _REG.histogram(
    "repro_sched_task_run_seconds", "Task run duration, timed where the call runs"
)


def _timed_call(fn, *args) -> tuple[object, float]:
    """Call ``fn(*args)``; return its value and the call's own duration.

    Module-level so process pools can pickle it: a pooled task is timed
    inside the worker, so its run time excludes executor queue wait and
    transport.
    """
    t0 = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - t0


@dataclass(frozen=True)
class TaskTiming:
    """Where one task's wall-clock went.

    ``queue_wait_s`` is ready → started (how long the task sat behind
    other work once its dependencies finished; for pool tasks, ready →
    submitted); ``run_s`` is the call's own duration, timed in the
    worker for pool tasks, so time spent queued in the executor is in
    neither.
    """

    queue_wait_s: float
    run_s: float
    pooled: bool


@dataclass(frozen=True)
class ExecutionReport:
    """What a graph run produced, and in what order it happened.

    ``values`` maps every task name to its result.  ``started`` and
    ``finished`` record observed scheduling order — the hypothesis suite
    asserts every task *starts* after all of its dependencies
    *finished*, for arbitrary graphs and executors.  ``timings`` holds a
    :class:`TaskTiming` per completed task.
    """

    values: dict[str, object]
    started: tuple[str, ...]
    finished: tuple[str, ...]
    timings: dict[str, TaskTiming] = field(default_factory=dict)


class GraphScheduler:
    """Executes task graphs; one instance is reusable across runs.

    ``executor`` hosts pool-marked tasks; with ``None`` every task runs
    inline (the serial mode — same graph, same results, no transport).
    The scheduler never creates or shuts the executor down: lifecycle
    belongs to the caller, which knows whether the pool is per-run (a
    sweep's process pool) or long-lived (the service's job threads).
    """

    def __init__(self, executor: Executor | None = None) -> None:
        self.executor = executor

    def run(self, graph: TaskGraph) -> ExecutionReport:
        """Execute ``graph``; raises :class:`TaskFailure` on the first error."""
        order = graph.order()  # validates the graph (deps, cycles) up front
        index = {name: i for i, name in enumerate(order)}
        dependents = graph.dependents()
        waiting = {task.name: len(task.deps) for task in graph.tasks}

        values: dict[str, object] = {}
        started: list[str] = []
        finished: list[str] = []
        timings: dict[str, TaskTiming] = {}
        ready: list[str] = sorted(
            (name for name, count in waiting.items() if count == 0),
            key=index.__getitem__,
        )
        ready_at: dict[str, float] = {name: time.perf_counter() for name in ready}
        queue_waits: dict[str, float] = {}
        in_flight: dict[Future, str] = {}

        def complete(name: str, value: object, run_s: float, pooled: bool) -> None:
            values[name] = value
            finished.append(name)
            timings[name] = TaskTiming(
                queue_wait_s=queue_waits.get(name, 0.0), run_s=run_s, pooled=pooled
            )
            _TASKS.inc()
            if pooled:
                _POOL_TASKS.inc()
            _RUN_SECONDS.observe(run_s)
            now = time.perf_counter()
            freed = []
            for child in dependents[name]:
                waiting[child] -= 1
                if waiting[child] == 0:
                    freed.append(child)
            if freed:
                for child in freed:
                    ready_at[child] = now
                ready.extend(sorted(freed, key=index.__getitem__))
                ready.sort(key=index.__getitem__)

        def mark_started(name: str) -> float:
            """Record queue wait; returns the start timestamp."""
            now = time.perf_counter()
            queue_wait = now - ready_at.get(name, now)
            _QUEUE_WAIT.observe(queue_wait)
            queue_waits[name] = queue_wait
            started.append(name)
            return now

        def fail(name: str, error: BaseException) -> None:
            _FAILURES.inc()
            for future in in_flight:
                future.cancel()
            # Drain what could not be cancelled: the caller may tear the
            # pool down (or write caches) the moment we raise, and a
            # still-running task must not race that.
            wait(list(in_flight))
            raise TaskFailure(name, error) from error

        while len(finished) < len(order):
            # Pool tasks first: get the executor busy before any inline
            # work blocks this thread.
            pooled = [n for n in ready if graph[n].pool and self.executor is not None]
            for name in pooled:
                ready.remove(name)
                task = graph[name]
                mark_started(name)
                in_flight[
                    self.executor.submit(_timed_call, task.fn, *resolve_args(task, values))
                ] = name
            if ready:
                name = ready.pop(0)
                task = graph[name]
                t0 = mark_started(name)
                try:
                    with tracer().span("sched.task", {"task": name, "pooled": False}):
                        value = task.fn(*resolve_args(task, values))
                except BaseException as error:  # noqa: BLE001 - rewrapped
                    fail(name, error)
                complete(name, value, time.perf_counter() - t0, pooled=False)
                continue
            if not in_flight:
                break  # graph.order() guarantees this means "all done"
            done, _ = wait(list(in_flight), return_when=FIRST_COMPLETED)
            for future in done:
                name = in_flight.pop(future)
                try:
                    value, run_s = future.result()
                except BaseException as error:  # noqa: BLE001 - rewrapped
                    fail(name, error)
                complete(name, value, run_s, pooled=True)

        return ExecutionReport(
            values=values,
            started=tuple(started),
            finished=tuple(finished),
            timings=timings,
        )


def run_single_task(name: str, fn, *args) -> object:
    """Run one callable through the scheduler, for its failure semantics.

    The evaluation service's async jobs route through this: a job is a
    one-task graph, so job failures carry the same
    :class:`TaskFailure`-with-named-task shape as a failed sweep chunk,
    and anything the sweep layer runs underneath (chunked pools) nests
    naturally.
    """
    graph = TaskGraph()
    graph.add(name, fn, *args)
    return GraphScheduler().run(graph).values[name]
