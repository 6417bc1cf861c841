"""Engine-portfolio racing — first complete result wins.

The four engines have wildly different runtime profiles per benchmark
(Table 1: the best engine per spec varies and the spread is orders of
magnitude), so racing them and taking the first finisher beats any
fixed engine choice without having to predict the winner.  Each racer
runs the full iterative-deepening loop in its own forked process; the
first *definitive* result (``realized`` or ``gate_limit``) wins and the
losers are cancelled cooperatively through their
:class:`~repro.core.cancel.CancelToken`, giving them a grace window to
report the partial trajectory they computed — the loser metrics are
merged into the winner's record under ``portfolio.<engine>.*``.

Surfaced as ``synthesize(spec, engine="portfolio")`` and
``python -m repro synth --portfolio``.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as queue_module
import time
from typing import Dict, Optional, Sequence, Tuple

import repro.obs as obs
from repro.core.library import GateLibrary
from repro.core.spec import Specification
from repro.parallel.tasks import SynthesisTask, start_worker
from repro.synth.run import conclude

__all__ = ["LOSER_GRACE", "PORTFOLIO_ENGINES", "portfolio_synthesize"]

#: Engines raced by default, in tie-break priority order.
PORTFOLIO_ENGINES: Tuple[str, ...] = ("bdd", "sword", "sat", "qbf")

#: A result with one of these statuses settles the race.
_DEFINITIVE = frozenset({"realized", "gate_limit"})

#: Seconds the cancelled losers get to report their partial
#: trajectories once a racer has won; stragglers are terminated.
LOSER_GRACE = 5.0

#: Preference order when no racer was definitive.
_STATUS_RANK = {"realized": 0, "gate_limit": 1, "timeout": 2,
                "cancelled": 3}


def _race_worker(task: SynthesisTask, cancel_event, results, racer_id: int,
                 forward_events: bool = False):
    # The racer's live events travel through the shared result queue,
    # so the parent sees per-engine deepening progress mid-race.
    token = start_worker(cancel_event, racer_id, (
        lambda payload: results.put((racer_id, "event", payload))
    ) if forward_events else None)
    try:
        result = task.run(cancel_token=token)
        results.put((racer_id, "ok", result))
    except BaseException as exc:  # noqa: BLE001 — must cross the process gap
        try:
            results.put((racer_id, "error", repr(exc)))
        except Exception:
            pass


def portfolio_synthesize(spec: Specification,
                         library: GateLibrary,
                         engines: Sequence[str] = PORTFOLIO_ENGINES,
                         max_gates: Optional[int] = None,
                         time_limit: Optional[float] = None,
                         use_bounds: bool = False,
                         trace: Optional[str] = None,
                         workers: int = 0,
                         store: Optional[object] = None,
                         orbit: bool = True,
                         engine_options: Optional[Dict] = None):
    """Race ``engines`` on ``spec``; return the first complete result.

    ``workers`` bounds how many racers run concurrently (0 or anything
    larger than the portfolio means "all at once"); every engine is
    raced eventually — a bounded pool launches the next engine when a
    slot frees without a winner.  ``engine_options`` keys naming an
    engine hold per-engine option dicts; remaining keys apply to every
    racer.

    Each racer is a serial ``synthesize()`` run.  The returned
    :class:`~repro.synth.result.SynthesisResult` is the winner's, with
    ``runtime`` rebased to the race's wall-clock time and the race in
    ``winner_engine``, ``workers``, ``cpu_count`` and ``loser_results``
    (engine → result for every racer that reported back, including
    cancelled partials).  A ``cancel_token`` option cancels the race.

    ``store`` (a path or open :class:`repro.store.SynthesisStore`)
    attaches one shared persistent store to every racer: each does its
    own content-addressed lookup and commit in-process — engines are
    distinct keys, so racers never collide — and *cancelled losers
    still bank their partial UNSAT bounds*, turning lost races into a
    head start for the next run of those engines.
    """
    engines = list(engines)
    if not engines:
        raise ValueError("portfolio needs at least one engine")
    unknown = [e for e in engines if e == "portfolio"]
    if unknown:
        raise ValueError("portfolio cannot race itself")
    engine_options = dict(engine_options or {})
    # Racers poll their own token on the race's cancel event; the
    # caller's token sets that event.
    caller_token = engine_options.pop("cancel_token", None)
    per_engine = {name: engine_options.pop(name) for name in list(engine_options)
                  if name in engines and isinstance(engine_options[name], dict)}
    concurrency = len(engines) if workers < 1 else min(workers, len(engines))
    store_path = None
    if store is not None:
        store_path = getattr(store, "root", None) or str(store)

    ctx = mp.get_context("fork")
    cancel_event = ctx.Event()
    results_queue = ctx.Queue()
    forward_events = obs.events_enabled()
    start = time.perf_counter()

    def spawn(racer_id: int):
        name = engines[racer_id]
        options = dict(engine_options)
        options.update(per_engine.get(name, {}))
        task = SynthesisTask(spec=spec, engine=name, library=library,
                             engine_options=options, max_gates=max_gates,
                             time_limit=time_limit, use_bounds=use_bounds,
                             store_path=store_path, orbit=orbit)
        proc = ctx.Process(target=_race_worker,
                           args=(task, cancel_event, results_queue, racer_id,
                                 forward_events),
                           daemon=True)
        proc.start()
        obs.emit("worker_spawned", worker=racer_id, role="portfolio",
                 engine=name)
        return proc

    with obs.span("portfolio", spec=spec.name or "anonymous",
                  engines=",".join(engines)):
        procs: Dict[int, object] = {}
        reported: Dict[int, Tuple[str, object]] = {}
        winner_id: Optional[int] = None
        grace_deadline = None
        while (len(reported) < len(procs)
               or (winner_id is None and len(procs) < len(engines))):
            if caller_token is not None and caller_token.cancelled():
                cancel_event.set()
            # Keep ``concurrency`` racers running until one wins; every
            # engine is raced eventually.
            while (winner_id is None and len(procs) < len(engines)
                   and sum(1 for rid, p in procs.items()
                           if rid not in reported and p.is_alive())
                   < concurrency):
                procs[len(procs)] = spawn(len(procs))
            if grace_deadline is not None \
                    and time.perf_counter() > grace_deadline:
                break
            try:
                racer_id, kind, payload = results_queue.get(timeout=0.05)
            except queue_module.Empty:
                # A racer that died without reporting (OOM-kill, hard
                # crash) must not hang the race: score it as an error.
                for racer_id, proc in procs.items():
                    if racer_id not in reported and not proc.is_alive():
                        proc.join()
                        obs.emit("worker_crashed", worker=racer_id,
                                 role="portfolio", engine=engines[racer_id],
                                 exitcode=proc.exitcode)
                        reported[racer_id] = (
                            "error", f"racer {engines[racer_id]} died "
                                     f"(exit {proc.exitcode})")
                continue
            if kind == "event":
                obs.emit_forwarded(payload)
                continue
            reported[racer_id] = (kind, payload)
            if (winner_id is None and kind == "ok"
                    and payload.status in _DEFINITIVE):
                winner_id = racer_id
                cancel_event.set()
                # Grace window for the cancelled losers to report their
                # partial trajectories; stragglers are terminated.
                grace_deadline = time.perf_counter() + LOSER_GRACE
        for racer_id in set(procs) - set(reported):
            procs[racer_id].terminate()
            reported[racer_id] = ("cancelled", None)
        # Engines never launched lost by walkover.
        for racer_id in range(len(procs), len(engines)):
            reported[racer_id] = ("cancelled", None)
        for proc in procs.values():
            proc.join(timeout=1.0)
            if proc.is_alive():
                proc.terminate()
                proc.join()
        # Forward any racer events still sitting in the queue so the
        # losers' final deepening steps are not silently dropped.
        while True:
            try:
                racer_id, kind, payload = results_queue.get_nowait()
            except queue_module.Empty:
                break
            if kind == "event":
                obs.emit_forwarded(payload)

    if winner_id is None:
        # Nobody was definitive (all timed out / errored): pick the
        # least-bad reporter in portfolio priority order.
        candidates = [rid for rid, (kind, _) in reported.items()
                      if kind == "ok"]
        if not candidates:
            failures = "; ".join(
                f"{engines[rid]}: {payload}"
                for rid, (kind, payload) in sorted(reported.items()))
            raise RuntimeError(f"every portfolio racer failed — {failures}")
        winner_id = min(candidates, key=lambda rid: (
            _STATUS_RANK[reported[rid][1].status], rid))

    final = reported[winner_id][1]
    losers = {engines[rid]: payload
              for rid, (kind, payload) in reported.items()
              if rid != winner_id and kind == "ok"}
    cancelled = sum(1 for rid, (kind, payload) in reported.items()
                    if kind == "cancelled"
                    or (kind == "ok" and payload.status == "cancelled"))
    for name, loser in losers.items():
        for metric, value in loser.metrics.items():
            final.metrics[f"portfolio.{name}.{metric}"] = value
    final.metrics["driver.portfolio_racers"] = len(engines)
    final.metrics["driver.portfolio_cancelled"] = cancelled
    final.runtime = time.perf_counter() - start
    final.winner_engine = engines[winner_id]
    final.workers = concurrency
    final.cpu_count = os.cpu_count() or 1
    final.loser_results = losers
    obs.publish(final.metrics)
    return conclude(final, library, trace, engine="portfolio",
                    winner_engine=final.winner_engine)
