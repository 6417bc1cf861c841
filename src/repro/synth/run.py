"""The lifecycle of one synthesis run, shared by every execution mode.

Plan, store lookup, fold each decided depth in commit order, aggregate,
store commit, run record, ``run_finished``: :class:`Run` owns Figure 1's
lifecycle, and each mode (serial, speculative, portfolio, suite, serve)
only schedules where and when the depths are decided.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple

import repro.obs as obs
from repro.core.library import GateLibrary
from repro.core.spec import Specification
from repro.synth.result import DepthStat, SynthesisResult

__all__ = ["Run", "conclude", "default_gate_limit", "plan_depth_range",
           "run_record"]

#: Result fields written into the run record when set (all volatile).
_PROVENANCE = ("store_hit", "store_resumed_from", "workers", "cpu_count",
               "winner_engine", "speculation_wasted_depths")


def default_gate_limit(n_lines: int) -> int:
    """A generous upper bound on the minimal gate count.

    Any reversible function over ``n`` lines has an MCT realization with
    at most ``n * 2^n`` gates (one stage per truth-table mismatch in a
    transformation-based sweep); the iterative loop never comes close on
    the paper's benchmarks, so the bound only guards against runaway
    loops on unrealizable incompletely specified inputs.
    """
    return n_lines * (1 << n_lines)


def plan_depth_range(spec: Specification,
                     library: GateLibrary,
                     max_gates: Optional[int] = None,
                     use_bounds: bool = False) -> Tuple[int, int]:
    """The iterative-deepening plan: (start depth, inclusive gate limit).

    Every :class:`Run` plans with it, so all execution modes deepen over
    the same range and commit the same trajectory depth for depth.
    """
    limit = (max_gates if max_gates is not None
             else default_gate_limit(spec.n_lines))
    start_depth = 0
    if use_bounds:
        from repro.core.library import mct_gates
        from repro.synth.bounds import lower_bound, upper_bound
        start_depth = lower_bound(spec, library)
        if max_gates is None:
            # The MMD cap is a Toffoli network, so it is only an upper
            # bound for libraries containing every MCT gate.
            if set(mct_gates(spec.n_lines)) <= set(library.gates):
                heuristic_cap = upper_bound(spec)
                if heuristic_cap is not None:
                    limit = min(limit, heuristic_cap)
    return start_depth, limit


def run_record(result: SynthesisResult,
               library: Optional[GateLibrary] = None,
               **placement) -> Dict:
    """The run record of a finished run, for every mode and the CLI.

    A store hit re-emits the stored canonical record with fresh volatile
    fields (``library`` is then unused); the provenance fields of
    ``result`` are written when set.  ``placement`` adds a pool's
    per-task fields (``worker_id``, ``retried``, its ``workers``).
    """
    if result.store_record is not None:
        from repro.store.payload import hit_trace_record
        record = hit_trace_record({"record": result.store_record}, result)
        # Scheduling metrics a parent layered onto the hit (a portfolio's
        # portfolio.* figures) ride along; canonical records drop them.
        record["metrics"] = dict(result.metrics)
    else:
        record = obs.build_run_record(result, library)
    for name in _PROVENANCE:
        value = getattr(result, name)
        if value is not None and value is not False:
            record[name] = value
    record.update(placement)
    return record


def conclude(result: SynthesisResult, library: Optional[GateLibrary],
             trace: Optional[str], engine: Optional[str] = None,
             **fields) -> SynthesisResult:
    """Announce a finished run: its record to ``trace``, ``run_finished``.

    ``engine`` names the run in the event when it is not the result's
    own engine (a portfolio race); ``fields`` are extra event fields.
    """
    if trace is not None:
        obs.append_record(trace, run_record(result, library))
    obs.emit("run_finished", spec=result.spec_name,
             engine=engine or result.engine, status=result.status,
             depth=result.depth, runtime=result.runtime, **fields)
    return result


class Run:
    """One synthesis run: plan and store key on construction, then
    :meth:`lookup`; on a miss :meth:`begin`, :meth:`fold` each decided
    depth in commit order until the run settles, and :meth:`finish`."""

    def __init__(self, spec: Specification, library: GateLibrary,
                 engine, *, max_gates: Optional[int] = None,
                 use_bounds: bool = False,
                 time_limit: Optional[float] = None,
                 trace: Optional[str] = None,
                 store=None, orbit: bool = True,
                 engine_options: Optional[Dict] = None, key=None):
        self.spec = spec
        self.library = library
        self.engine = engine
        self.trace = trace
        self.start_depth, self.limit = plan_depth_range(
            spec, library, max_gates, use_bounds)
        self.started = time.perf_counter()
        self.deadline = (None if time_limit is None
                         else self.started + time_limit)
        self.store = None
        self.key = key
        self.resumed_from: Optional[int] = None
        self.result: Optional[SynthesisResult] = None
        if store is not None:
            from repro.store import open_store
            from repro.store.orbit import derive_store_key
            self.store = open_store(store)
            if key is None:
                self.key = derive_store_key(
                    spec, library, engine, max_gates=max_gates,
                    use_bounds=use_bounds, engine_options=engine_options,
                    orbit=orbit)

    def probe(self) -> Optional[SynthesisResult]:
        """The stored result (runtime set), or None on a miss.

        A miss may still move :attr:`start_depth` past a banked bound.
        """
        if self.store is None:
            return None
        from repro.store.payload import store_lookup
        hit, _entry, start_depth = store_lookup(
            self.store, self.key, self.spec, self.engine, self.start_depth)
        if hit is not None:
            hit.runtime = time.perf_counter() - self.started
            return hit
        if start_depth > self.start_depth:
            self.resumed_from = start_depth - 1
        self.start_depth = start_depth
        return None

    def lookup(self) -> Optional[SynthesisResult]:
        """:meth:`probe`; a hit is announced, the run needs no engine."""
        hit = self.probe()
        if hit is not None:
            conclude(hit, self.library, self.trace, store_hit=True)
        return hit

    def begin(self, engine_name: str) -> SynthesisResult:
        """Open the result the decided depths fold into."""
        self.result = SynthesisResult(
            engine=engine_name, spec_name=self.spec.name or "anonymous",
            status="gate_limit", store_resumed_from=self.resumed_from)
        return self.result

    def remaining(self) -> Optional[float]:
        """Seconds left of the time budget (None when unbounded)."""
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - time.perf_counter())

    def fold(self, depth: int, outcome, runtime: float = 0.0) -> bool:
        """Fold one decided depth into the result; True once it settles.

        It settles on a satisfiable depth (realized), an ``unknown`` one
        (timeout) or a None ``outcome`` (cancelled; the trajectory so far
        is kept).  An UNSAT depth is a proven lower bound: go on.
        """
        result = self.result
        if outcome is None:
            result.status = "cancelled"
            return True
        result.per_depth.append(
            DepthStat(depth=depth, decision=outcome.status, runtime=runtime,
                      detail=dict(outcome.detail),
                      metrics=dict(outcome.metrics),
                      timed_out=outcome.status == "unknown"))
        if outcome.status == "unknown":
            result.status = "timeout"
            return True
        if outcome.status == "sat":
            result.status = "realized"
            result.depth = depth
            result.circuits = outcome.circuits
            result.num_solutions = outcome.num_solutions
            result.quantum_cost_min = outcome.quantum_cost_min
            result.quantum_cost_max = outcome.quantum_cost_max
            result.solutions_truncated = outcome.solutions_truncated
            obs.emit("solution_found", spec=result.spec_name,
                     engine=result.engine, depth=depth,
                     num_solutions=outcome.num_solutions)
            return True
        obs.emit("depth_refuted", spec=result.spec_name,
                 engine=result.engine, depth=depth, proven_bound=depth)
        return False

    def finish(self, metrics: Optional[Dict] = None) -> SynthesisResult:
        """Aggregate the per-depth metrics (plus the scheduler's own),
        publish, bank what the run proved — its UNSAT prefix even when
        interrupted — and :func:`conclude`."""
        result = self.result
        result.runtime = time.perf_counter() - self.started
        totals: Dict[str, float] = {}
        for step in result.per_depth:
            obs.merge_metrics(totals, step.metrics)
        totals["driver.depths_tried"] = len(result.per_depth)
        totals["driver.unsat_depths"] = sum(
            1 for s in result.per_depth if s.decision == "unsat")
        totals["driver.timed_out_depths"] = sum(
            1 for s in result.per_depth if s.timed_out)
        totals.update(metrics or {})
        result.metrics = totals
        obs.publish(result.metrics)
        if self.store is not None:
            from repro.store.payload import store_commit
            store_commit(self.store, self.key, result, self.library,
                         self.start_depth, spec=self.spec)
        return conclude(result, self.library, self.trace)
