"""Speculative depth pipelining for the stateless engines.

The iterative-deepening loop (Figure 1) is inherently serial: depth
``d+1`` is only asked once depth ``d`` answered UNSAT.  For the
engines whose depth queries are independent (``sat``, ``qbf``,
``sword`` — each builds its encoding or search from scratch per depth)
the answer for ``d+1`` can be *speculated* while ``d`` is still being
decided: a window of depth queries runs on persistent worker processes
and a commit pointer advances over consecutive UNSAT answers.  The
first committed SAT depth is the minimum — exactly the serial result,
with the same per-depth decisions — and every dispatched depth beyond
it is wasted speculation, surfaced honestly as
``driver.speculation_wasted_depths`` in the metrics and the
``speculation_wasted_depths`` run-record field.

The BDD engine is *not* pipelined: its cascade BDDs are built
incrementally, each depth extending the previous state, so independent
depth workers would each rebuild the whole prefix and lose the very
sharing that makes the engine fast.  ``synthesize(engine="bdd",
workers=k)`` therefore documents a serial fallback instead.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from multiprocessing.connection import wait as connection_wait
from typing import Dict, Optional, Tuple

import repro.obs as obs
from repro.core.cancel import CancelledError
from repro.core.library import GateLibrary
from repro.core.spec import Specification
from repro.parallel.tasks import start_worker
from repro.synth.result import SynthesisResult

__all__ = ["speculative_synthesize"]


def _depth_server(engine_name: str, spec, library, engine_options,
                  conn, cancel_event):
    """Worker loop: construct the engine once, answer depth queries.

    The loop runs inside an engine session
    (:func:`repro.synth.driver.engine_session`), so the SAT/QBF engines
    keep one warm incremental solver per worker amortized across the
    worker's whole depth window.  The monotone session encodings
    tolerate the gapped, strictly-increasing depth sequence each worker
    sees — missing cascade stages are appended on demand and trailing
    stages never constrain earlier depths' answers.
    """
    from repro.synth.driver import ENGINES, engine_session

    # Depth servers answer bare decide() calls: the deepening loop, and
    # with it all event emission, lives in the parent.
    token = start_worker(cancel_event)
    engine = ENGINES[engine_name](spec, library, cancel_token=token,
                                  **engine_options)
    with engine_session(engine):
        while True:
            message = conn.recv()
            if message is None:
                return
            depth, budget = message
            started = time.perf_counter()
            try:
                outcome = engine.decide(depth, time_limit=budget)
                conn.send((depth, "ok", outcome,
                           time.perf_counter() - started))
            except CancelledError:
                conn.send((depth, "cancelled", None,
                           time.perf_counter() - started))
            except Exception as exc:  # noqa: BLE001 — ship it to the parent
                conn.send((depth, "error", repr(exc),
                           time.perf_counter() - started))


def speculative_synthesize(spec: Specification,
                           library: GateLibrary,
                           engine: str,
                           max_gates: Optional[int] = None,
                           time_limit: Optional[float] = None,
                           use_bounds: bool = False,
                           trace: Optional[str] = None,
                           workers: int = 2,
                           store: Optional[object] = None,
                           orbit: bool = True,
                           engine_options: Optional[Dict] = None
                           ) -> SynthesisResult:
    """Iterative deepening with depths decided speculatively in parallel.

    A scheduler over the same :class:`repro.synth.run.Run` as
    ``synthesize(spec, engine=engine, ...)``, feeding it a
    ``workers``-wide window of depths in commit order: the committed
    decisions and the result status/depth/circuit agree with the serial
    run.  Only runtimes, the ``driver.speculation_*`` metrics and
    per-depth work counters (warm sessions and ``sword``'s
    transposition table no longer span every depth) may differ.
    """
    from repro.synth.driver import MIN_DEPTH_BUDGET, STATELESS_ENGINES
    from repro.synth.run import Run

    if engine not in STATELESS_ENGINES:
        raise ValueError(f"engine {engine!r} cannot be depth-pipelined; "
                         f"stateless engines: {sorted(STATELESS_ENGINES)}")
    workers = max(1, workers)
    engine_options = dict(engine_options or {})
    # The depth servers poll their own token on the pipeline's cancel
    # event; the caller's token sets that event.
    caller_token = engine_options.pop("cancel_token", None)

    run = Run(spec, library, engine, max_gates=max_gates,
              use_bounds=use_bounds, time_limit=time_limit, trace=trace,
              store=store, orbit=orbit, engine_options=engine_options)
    hit = run.lookup()
    if hit is not None:
        return hit
    result = run.begin(engine)

    ctx = mp.get_context("fork")
    cancel_event = ctx.Event()
    conns = []
    procs = []
    for server_id in range(workers):
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        proc = ctx.Process(target=_depth_server,
                           args=(engine, spec, library, engine_options,
                                 child_conn, cancel_event),
                           daemon=True)
        proc.start()
        child_conn.close()
        conns.append(parent_conn)
        procs.append(proc)
        obs.emit("worker_spawned", worker=server_id, role="speculative",
                 engine=engine)

    idle = list(range(workers))
    busy: Dict[int, int] = {}           # worker index -> depth in flight
    outcomes: Dict[int, Tuple[str, object, float]] = {}
    dispatched = set()
    commit = run.start_depth            # the depth the run settles on

    try:
        with obs.span("speculate", spec=result.spec_name, engine=engine,
                      workers=workers):
            while True:
                if caller_token is not None and caller_token.cancelled():
                    cancel_event.set()
                    run.fold(commit, None)
                    break
                # Fill idle workers with the next depths in the window.
                next_depth = max(dispatched, default=run.start_depth - 1) + 1
                while (idle and next_depth <= run.limit
                       and next_depth < commit + workers):
                    budget = run.remaining()
                    if budget is not None and budget <= MIN_DEPTH_BUDGET:
                        break
                    worker = idle.pop()
                    conns[worker].send((next_depth, budget))
                    busy[worker] = next_depth
                    dispatched.add(next_depth)
                    obs.emit("depth_started", spec=result.spec_name,
                             engine=engine, depth=next_depth, worker=worker,
                             speculative=True)
                    next_depth += 1

                if not busy:
                    if commit > run.limit:
                        break  # every depth answered UNSAT: gate_limit
                    # Out of budget before the commit depth could run.
                    result.status = "timeout"
                    break

                ready = connection_wait([conns[w] for w in busy], timeout=0.1)
                for conn in ready:
                    worker = conns.index(conn)
                    depth, kind, payload, runtime = conn.recv()
                    del busy[worker]
                    idle.append(worker)
                    outcomes[depth] = (kind, payload, runtime)

                if (run.deadline is not None
                        and time.perf_counter() > run.deadline
                        and commit not in outcomes):
                    result.status = "timeout"
                    break

                # Advance the commit pointer over consecutive answers.
                settled = False
                while commit in outcomes and not settled:
                    kind, outcome, runtime = outcomes[commit]
                    if kind == "error":
                        raise RuntimeError(
                            f"depth-{commit} worker failed: {outcome}")
                    if kind == "ok":
                        obs.emit("speculation_committed",
                                 spec=result.spec_name, engine=engine,
                                 depth=commit, decision=outcome.status)
                    else:
                        outcome = None  # the depth was cancelled
                    settled = run.fold(commit, outcome, runtime)
                    if not settled:
                        commit += 1  # UNSAT: the pointer moves on
                if settled or (commit > run.limit and not busy):
                    break
    finally:
        cancel_event.set()
        for conn in conns:
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for proc in procs:
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
                proc.join()
        for conn in conns:
            conn.close()

    wasted = sum(1 for depth in dispatched if depth > commit)
    # The workers' engines report their solving mode per depth; the
    # committed trajectory is uniform, so any step's flag is the run's.
    result.incremental = any(step.detail.get("incremental", False)
                             for step in result.per_depth)
    result.workers = workers
    result.cpu_count = os.cpu_count() or 1
    result.speculation_wasted_depths = wasted
    obs.emit("speculation_wasted", spec=result.spec_name, engine=engine,
             wasted=wasted, dispatched=len(dispatched))
    return run.finish({"driver.speculation_dispatched": len(dispatched),
                       "driver.speculation_wasted_depths": wasted,
                       "driver.workers": workers})
