"""Batched suite scheduling over a bounded, crash-isolated process pool.

``run_suite`` fans a list of :class:`~repro.parallel.tasks.SynthesisTask`
over ``workers`` forked processes.  The pool is hand-rolled rather than
a :class:`concurrent.futures.ProcessPoolExecutor` because the executor
declares the *whole pool* broken when any worker dies — here a
SIGKILLed or crashed worker costs exactly one retry of its task on a
freshly spawned process (``retried=1`` in the task's report and run
record) and the rest of the batch is unaffected.

Scheduling is parent-driven: each worker owns a duplex pipe, the parent
assigns one task at a time to idle workers, so at any instant the
parent knows precisely which task a dead worker was holding.  Per-task
deadlines flow through the engines' cooperative time budgets, with a
hard wall (``hard_deadline_grace`` beyond the budget) as a backstop for
a stuck worker.  Ctrl-C drains gracefully: the shared cancel token
stops every engine's hot loop within milliseconds, partial results are
collected, and the pool shuts down without orphan processes.

Completed tasks merge into the parent's :mod:`repro.obs` state: run
records (:func:`repro.synth.run.run_record`, with the pool's
``worker_id``/``retried``/``workers``/``cpu_count``) are appended to
the trace file — in task order, not completion order, so parallel and
serial traces compare line by line — and each worker's metrics are
published into the parent registry.

Live telemetry (:mod:`repro.obs.events`): when the parent bus has
subscribers at pool-creation time, each worker forwards its progress
events (depth refutations, store hits, ...) over its result pipe *as
they happen*, and the parent re-dispatches them — so a ``--progress``
renderer shows per-worker deepening long before the task's run record
lands.  The scheduler itself emits the pool-lifecycle events
(``worker_spawned``/``worker_crashed``/``worker_retried``/
``task_finished``).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from collections import deque
from multiprocessing.connection import wait as connection_wait
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import repro.obs as obs
from repro.parallel.tasks import SynthesisTask, default_workers, start_worker
from repro.synth.run import run_record

__all__ = ["SuiteRun", "TaskReport", "run_suite"]


def _suite_worker(worker_id: int, conn, cancel_event,
                  forward_events: bool = False):
    token = start_worker(cancel_event, worker_id, (
        lambda payload: conn.send(("event", payload))
    ) if forward_events else None)
    while True:
        message = conn.recv()
        if message is None:
            return
        index, task = message
        started = time.perf_counter()
        try:
            with obs.span("suite.task", label=task.resolved_label(),
                          worker=worker_id):
                result = task.run(cancel_token=token)
            span_tree = (obs.get_tracer().format_tree()
                         if obs.tracing_enabled() else None)
            conn.send((index, "done", result, span_tree,
                       time.perf_counter() - started))
        except BaseException as exc:  # noqa: BLE001 — report, don't die
            try:
                conn.send((index, "error", repr(exc), None,
                           time.perf_counter() - started))
            except Exception:
                return


@dataclass
class TaskReport:
    """Outcome of one suite task, with execution provenance."""

    label: str
    status: str                      # result status, or "error"/"cancelled"
    result: Optional[object] = None  # SynthesisResult when the task ran
    record: Optional[Dict] = None    # schema-valid run record
    error: Optional[str] = None
    worker_id: int = -1
    retried: int = 0
    runtime: float = 0.0
    span_tree: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.result is not None and self.status != "cancelled"


@dataclass
class SuiteRun:
    """Everything ``run_suite`` learned about a batch."""

    reports: List[TaskReport]
    workers: int
    runtime: float = 0.0
    interrupted: bool = False
    metrics: Dict[str, float] = field(default_factory=dict)

    def report(self, label: str) -> TaskReport:
        for item in self.reports:
            if item.label == label:
                return item
        raise KeyError(label)

    def summary(self) -> str:
        done = sum(1 for r in self.reports if r.ok)
        retried = sum(1 for r in self.reports if r.retried)
        tail = " (interrupted)" if self.interrupted else ""
        return (f"suite: {done}/{len(self.reports)} tasks ok, "
                f"{retried} retried, {self.workers} workers, "
                f"{self.runtime:.2f}s{tail}")


class _Worker:
    """Parent-side handle: process, pipe, and the task it holds."""

    def __init__(self, ctx, worker_id: int, cancel_event,
                 forward_events: bool = False):
        self.id = worker_id
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.conn = parent_conn
        self.proc = ctx.Process(target=_suite_worker,
                                args=(worker_id, child_conn, cancel_event,
                                      forward_events),
                                daemon=True)
        self.proc.start()
        child_conn.close()
        self.task_index: Optional[int] = None
        self.assigned_at = 0.0
        obs.emit("worker_spawned", worker=worker_id, role="suite")

    @property
    def idle(self) -> bool:
        return self.task_index is None

    def assign(self, index: int, task: SynthesisTask) -> None:
        self.conn.send((index, task))
        self.task_index = index
        self.assigned_at = time.perf_counter()

    def shutdown(self, timeout: float = 2.0) -> None:
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.proc.join(timeout=timeout)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join()
        self.conn.close()


def run_suite(tasks: Sequence[SynthesisTask],
              workers: Optional[int] = None,
              trace: Optional[str] = None,
              store: Optional[object] = None,
              on_report: Optional[Callable[[TaskReport], None]] = None,
              hard_deadline_grace: float = 10.0,
              drain_grace: float = 5.0) -> SuiteRun:
    """Run ``tasks`` over a pool of ``workers`` processes.

    Returns a :class:`SuiteRun` whose ``reports`` align with ``tasks``
    by position.  ``on_report`` fires in completion order (progress
    printing).  A task whose worker dies is retried exactly once on a
    fresh worker; a second death reports ``status="error"``.  A task
    with a ``time_limit`` that overruns it by ``hard_deadline_grace``
    seconds (stuck worker) is terminated and reported as an error —
    retrying a deterministic overrun would just overrun again.

    ``store`` (a path or open :class:`repro.store.SynthesisStore`)
    attaches one shared persistent store to every task that does not
    already carry its own ``store_path``: workers look repeat
    configurations up before synthesizing and commit what they prove —
    the second run of an unchanged suite is pure cache hits, and a
    crash-retried task reuses whatever its first attempt banked.
    """
    tasks = list(tasks)
    if store is not None:
        from dataclasses import replace as dc_replace
        store_path = getattr(store, "root", None) or str(store)
        tasks = [task if task.store_path is not None
                 else dc_replace(task, store_path=store_path)
                 for task in tasks]
    pool_size = workers if workers is not None else default_workers()
    pool_size = max(1, min(pool_size, max(1, len(tasks))))
    ctx = mp.get_context("fork")
    cancel_event = ctx.Event()
    start = time.perf_counter()
    cpu_count = os.cpu_count() or 1

    reports: Dict[int, TaskReport] = {}
    attempts = [0] * len(tasks)
    pending = deque(range(len(tasks)))
    # Workers forward their live events over the result pipe only when
    # the parent actually listens; decided once, at fork time.
    forward_events = obs.events_enabled()
    pool = [_Worker(ctx, wid, cancel_event, forward_events)
            for wid in range(pool_size)]
    next_worker_id = pool_size
    interrupted = False
    merged_metrics: Dict[str, float] = {}

    def finish(index: int, report: TaskReport) -> None:
        if index in reports:
            # Duplicate completion for a task that already reported —
            # e.g. a crash-retried task whose first attempt's message
            # was consumed after the liveness scan declared it dead.
            # Keep the first report; a second one must never publish
            # its metrics again or emit a second trace record.
            return
        reports[index] = report
        if report.result is not None:
            obs.publish(report.result.metrics)
            obs.merge_metrics(merged_metrics, report.result.metrics)
            report.record = run_record(
                report.result, tasks[index].resolved_library(),
                workers=pool_size, cpu_count=cpu_count,
                worker_id=report.worker_id, retried=report.retried)
        obs.emit("task_finished", label=report.label, status=report.status,
                 worker=report.worker_id, retried=report.retried,
                 runtime=report.runtime)
        if on_report is not None:
            on_report(report)

    def handle_message(worker: _Worker) -> None:
        message = worker.conn.recv()
        if message[0] == "event":
            # A live event forwarded from inside the worker's run —
            # re-dispatch to the parent's subscribers as it happens.
            obs.emit_forwarded(message[1])
            return
        index, kind, payload, span_tree, runtime = message
        worker.task_index = None
        base = dict(label=tasks[index].resolved_label(),
                    worker_id=worker.id, retried=attempts[index],
                    runtime=runtime, span_tree=span_tree)
        if kind == "done":
            finish(index, TaskReport(status=payload.status, result=payload,
                                     **base))
        else:
            finish(index, TaskReport(status="error", error=payload, **base))

    def handle_death(worker_slot: int) -> None:
        nonlocal next_worker_id
        worker = pool[worker_slot]
        index = worker.task_index
        exitcode = worker.proc.exitcode
        worker.conn.close()
        worker.proc.join()
        obs.emit("worker_crashed", worker=worker.id, role="suite",
                 exitcode=exitcode)
        pool[worker_slot] = _Worker(ctx, next_worker_id, cancel_event,
                                    forward_events)
        next_worker_id += 1
        if index is None:
            return
        if attempts[index] == 0:
            attempts[index] = 1
            obs.emit("worker_retried", worker=worker.id,
                     label=tasks[index].resolved_label())
            # Retry at once on the fresh replacement, never on a pool
            # original that happened to go idle first.
            pool[worker_slot].assign(index, tasks[index])
        else:
            finish(index, TaskReport(
                label=tasks[index].resolved_label(), status="error",
                error=f"worker died twice (last exit code {exitcode})",
                worker_id=worker.id, retried=attempts[index]))

    try:
        with obs.span("suite", tasks=len(tasks), workers=pool_size):
            while len(reports) < len(tasks):
                for worker in pool:
                    if worker.idle and pending:
                        index = pending.popleft()
                        worker.assign(index, tasks[index])

                busy = [w for w in pool if not w.idle]
                if busy:
                    try:
                        ready = connection_wait(
                            [w.conn for w in busy], timeout=0.1)
                    except OSError:
                        ready = []
                    for worker in busy:
                        if worker.conn in ready:
                            try:
                                handle_message(worker)
                            except (EOFError, OSError):
                                pass  # death handled by the liveness scan

                for slot, worker in enumerate(pool):
                    if not worker.idle and not worker.proc.is_alive():
                        handle_death(slot)

                now = time.perf_counter()
                for slot, worker in enumerate(pool):
                    if worker.idle:
                        continue
                    budget = tasks[worker.task_index].time_limit
                    if (budget is not None
                            and now - worker.assigned_at
                            > budget + hard_deadline_grace):
                        index = worker.task_index
                        attempts[index] = 2  # an overrun is deterministic
                        worker.proc.terminate()
                        worker.proc.join()
                        worker.conn.close()
                        obs.emit("worker_crashed", worker=worker.id,
                                 role="suite", reason="hard_deadline")
                        finish(index, TaskReport(
                            label=tasks[index].resolved_label(),
                            status="error",
                            error=f"hard deadline exceeded "
                                  f"({budget}s budget + "
                                  f"{hard_deadline_grace}s grace)",
                            worker_id=worker.id,
                            runtime=now - worker.assigned_at))
                        pool[slot] = _Worker(ctx, next_worker_id,
                                             cancel_event, forward_events)
                        next_worker_id += 1
    except KeyboardInterrupt:
        # Graceful drain: cancel every engine cooperatively, collect
        # whatever the workers can still report, never leave orphans.
        interrupted = True
        cancel_event.set()
        while pending:
            index = pending.popleft()
            reports.setdefault(
                index, TaskReport(label=tasks[index].resolved_label(),
                                  status="cancelled",
                                  error="interrupted before start"))
        deadline = time.perf_counter() + drain_grace
        while (any(not w.idle for w in pool)
               and time.perf_counter() < deadline):
            busy = [w for w in pool if not w.idle and w.proc.is_alive()]
            if not busy:
                break
            ready = connection_wait([w.conn for w in busy], timeout=0.1)
            for worker in busy:
                if worker.conn in ready:
                    try:
                        handle_message(worker)
                    except (EOFError, OSError):
                        worker.task_index = None
        for worker in pool:
            if not worker.idle:
                index = worker.task_index
                reports.setdefault(index, TaskReport(
                    label=tasks[index].resolved_label(), status="cancelled",
                    error="interrupted mid-run", worker_id=worker.id))
    finally:
        for worker in pool:
            worker.shutdown()

    ordered = [reports[index] for index in range(len(tasks))
               if index in reports]
    if trace is not None:
        # Append in task order, not completion order, so a parallel
        # suite's trace file is byte-comparable with a serial one.
        for report in ordered:
            if report.record is not None:
                obs.append_record(trace, report.record)
    return SuiteRun(reports=ordered, workers=pool_size,
                    runtime=time.perf_counter() - start,
                    interrupted=interrupted, metrics=merged_metrics)
