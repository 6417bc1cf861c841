"""The iterative exact-synthesis flow (Figure 1 of the paper).

Starting from depth 0, each iteration asks the selected decision engine
whether a cascade of ``d`` gates realizing the specification exists; the
first satisfiable depth is the minimal gate count.  Engines:

* ``"bdd"``   — quantified synthesis on BDDs (Section 5.2, the paper's
  contribution; returns *all* minimal networks),
* ``"qbf"``   — quantified synthesis via a QBF solver (Section 5.1),
* ``"sat"``   — the per-truth-table-row SAT baseline of [9]/[22],
* ``"sword"`` — a specialized word-level search solver standing in for
  SWORD [21, 22] (problem-specific knowledge, no generic encoding).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Optional, Sequence, Type, Union

import repro.obs as obs
from repro.core.cancel import CancelledError
from repro.core.library import GateLibrary
from repro.core.spec import Specification
from repro.synth.bdd_engine import BddSynthesisEngine
from repro.synth.qbf_engine import QbfSolverEngine
from repro.synth.result import SynthesisResult
from repro.synth.run import Run, default_gate_limit, plan_depth_range
from repro.synth.sat_engine import SatBaselineEngine
from repro.synth.sword_engine import SwordEngine

__all__ = ["ENGINES", "INCREMENTAL_ENGINES", "MIN_DEPTH_BUDGET",
           "STATELESS_ENGINES", "default_gate_limit", "engine_session",
           "plan_depth_range", "synthesize"]

ENGINES: Dict[str, Type] = {
    "bdd": BddSynthesisEngine,
    "qbf": QbfSolverEngine,
    "sat": SatBaselineEngine,
    "sword": SwordEngine,
}

#: Engines whose per-depth queries are independent of one another, so
#: depth decisions may be computed out of order (speculative depth
#: pipelining).  The BDD engine is excluded: its cascade is built
#: incrementally and each depth extends the previous one's BDD state.
STATELESS_ENGINES = frozenset({"qbf", "sat", "sword"})

#: Engines able to reuse solver/cascade state across the depth loop: the
#: BDD engine's cascade is incremental by construction, and the SAT/QBF
#: engines keep a warm assumption-based CDCL solver inside a driver
#: session.  All accept an ``incremental=False`` engine option (the
#: CLI's ``--no-incremental``) forcing per-depth scratch evaluation.
INCREMENTAL_ENGINES = frozenset({"bdd", "sat", "qbf"})

#: Smallest per-depth time budget worth starting an engine call for: the
#: engines spend more than this constructing their encoding, so a tinier
#: remaining slice is reported as a timeout instead of being burned.
MIN_DEPTH_BUDGET = 1e-3


@contextmanager
def engine_session(instance, keep_open: bool = False):
    """Engine session protocol around one iterative-deepening run.

    Engines that reuse solver state across depths expose
    ``begin_session()`` / ``end_session()``; the driver (and the
    speculative pipeline's depth servers) bracket their depth loops with
    this context manager so a warm solver lives exactly as long as one
    run.  ``begin_session()`` returns whether an incremental session
    actually opened — the yielded value, recorded as
    ``SynthesisResult.incremental``.

    Engines without the protocol get a compatibility shim: nothing is
    called, and the yielded value falls back to the engine's
    ``incremental`` attribute (the BDD engine's cascade is inherently
    incremental; stateless engines like ``sword`` report False).  A bare
    ``engine.decide()`` call outside any session always evaluates from
    scratch, which keeps one-off depth queries side-effect free.

    An engine whose ``session_active`` property reports an already-open
    session is *resumed*, not restarted — ``begin_session()`` would
    discard the warm solver state a pooled engine was kept alive for.
    ``keep_open=True`` additionally skips ``end_session()`` on exit, so
    the caller (the serve daemon's session pool) owns the session's
    remaining lifetime and must eventually call ``end_session()``.
    """
    begin = getattr(instance, "begin_session", None)
    if begin is None:
        yield bool(getattr(instance, "incremental", False))
        return
    if getattr(instance, "session_active", False):
        active = True
    else:
        active = bool(begin())
    try:
        yield active
    finally:
        if not keep_open:
            end = getattr(instance, "end_session", None)
            if end is not None:
                end()


def _resolve_library(spec: Specification,
                     library: Optional[GateLibrary],
                     kinds: Optional[Sequence[str]],
                     engine: Union[str, object]) -> GateLibrary:
    """The library the run uses, rejecting silently-ignored arguments.

    When ``engine`` is an instance it was already constructed around a
    library; a *conflicting* explicit ``library``/``kinds`` would be
    dead weight the caller almost certainly meant to take effect, so it
    raises instead of being dropped (matching arguments stay allowed —
    callers legitimately pass the same library to both).
    """
    if isinstance(engine, str):
        if library is not None:
            return library
        return GateLibrary.from_kinds(spec.n_lines, kinds or ("mct",))
    bound = getattr(engine, "library", None)
    if bound is None:
        if library is not None:
            return library
        return GateLibrary.from_kinds(spec.n_lines, kinds or ("mct",))
    for argument, value in (("library", library),
                            ("kinds", GateLibrary.from_kinds(
                                spec.n_lines, kinds) if kinds else None)):
        if value is not None and tuple(value.gates) != tuple(bound.gates):
            raise ValueError(
                f"conflicting {argument}: engine instance was built with "
                f"library {bound.name!r} but {argument}={value.name!r} was "
                f"passed explicitly; construct the engine with the intended "
                f"library or drop the argument")
    return bound


def synthesize(spec: Specification,
               library: Optional[GateLibrary] = None,
               kinds: Optional[Sequence[str]] = None,
               engine: Union[str, object] = "bdd",
               max_gates: Optional[int] = None,
               time_limit: Optional[float] = None,
               use_bounds: bool = False,
               trace: Optional[str] = None,
               workers: int = 1,
               store: Optional[Union[str, object]] = None,
               orbit: bool = True,
               warm_instance: Optional[object] = None,
               keep_session: bool = False,
               **engine_options) -> SynthesisResult:
    """Exact synthesis: minimal number of library gates realizing ``spec``.

    Returns a :class:`SynthesisResult`; with the BDD engine it carries
    every minimal network plus the exact solution count and quantum-cost
    range, with the other engines a single realization.

    ``kinds`` defaults to ``("mct",)`` when neither it nor ``library``
    is given.  Passing a ``library`` or ``kinds`` that conflicts with an
    already-constructed engine instance raises :class:`ValueError`
    instead of being silently ignored.

    The depth loop runs inside an engine session
    (:func:`engine_session`): the SAT and QBF engines keep one warm
    assumption-based CDCL solver across all depths (pass
    ``incremental=False`` as an engine option — the CLI's
    ``--no-incremental`` — to force per-depth scratch solving), the BDD
    engine's cascade is incremental by construction, and ``sword``
    re-searches per depth.  ``result.incremental`` records which mode
    actually ran.

    ``use_bounds=True`` seeds the loop with the admissible lower bound of
    :mod:`repro.synth.bounds` (skipping provably unrealizable shallow
    depths) and, for completely specified functions, caps ``max_gates``
    with the MMD-heuristic upper bound.  Note the BDD engine still builds
    the skipped cascade stages — only their equality checks and
    quantifications are saved.

    ``trace`` names a JSONL file; one schema-valid run record (see
    :mod:`repro.obs.runrecord`) is appended per call.  Per-depth engine
    metrics always land in ``result.per_depth[*].metrics`` and the
    run-level aggregate in ``result.metrics`` — the raw counters are so
    cheap they are never turned off; only span *timing* needs an
    explicit ``obs.set_tracing(True)``.

    ``store`` names a persistent store directory (or passes an opened
    :class:`repro.store.SynthesisStore`).  The run is addressed by a
    content digest of the spec, library, engine and answer-affecting
    options (:func:`repro.store.store_key`): a stored result is
    returned without touching an engine (``result.store_hit``), a
    banked UNSAT bound makes the depth loop resume from ``bound + 1``
    (``result.store_resumed_from``), and on the way out the run's own
    proofs are committed for the next caller — including partial
    deepening from timeouts and cancellations.  Requires ``engine`` to
    be an engine *name*; an instance carries state the digest cannot
    faithfully address, so combining the two raises :class:`ValueError`.

    ``orbit`` (default True) canonicalizes the store address over the
    spec's equivalence orbit (:mod:`repro.store.orbit`): line
    relabelings, negation conjugations and the functional inverse all
    share one cache entry, replayed back into the caller's frame
    through a recorded witness transform and re-verified gate for gate.
    It silently degrades to the literal key for incompletely specified
    functions, libraries not closed under the orbit group and wide
    specs; ``orbit=False`` (the CLI's ``--no-orbit``) forces literal
    addressing.  Cold-run results and records are identical either way
    — only the cache address changes.

    **Warm-session reuse** (the serve daemon's pool): ``warm_instance``
    hands in an engine whose deepening session is still open from an
    earlier interrupted run of the *same configuration* — the depth
    loop resumes from its hot solver state instead of re-encoding.  The
    instance must match ``engine`` (still passed as a name, so store
    addressing keeps working) and ``spec``; the caller guarantees the
    library and engine options match the instance's construction (the
    pool keys on the literal store digest, which covers exactly that).
    When a ``cancel_token`` engine option is supplied it is rebound on
    the instance so a fresh request controls cancellation.
    ``keep_session=True`` leaves the session open on the way out and
    hands the engine back via ``result.engine_instance`` — the caller
    then owns ``end_session()``.  Both knobs require serial execution
    (``workers == 1``, not portfolio).

    The call is the in-process depth loop over one
    :class:`repro.synth.run.Run`, which owns the rest of the run's
    lifecycle; the parallel modes (:mod:`repro.parallel`) schedule the
    depths of the same ``Run`` differently:

    * ``engine="portfolio"`` races every registered engine on the spec
      in worker processes and returns the first completed result
      (``workers`` caps the racer count);
    * ``workers > 1`` with a stateless engine (``sat``, ``qbf``,
      ``sword``) pipelines depth decisions ``d..d+workers-1``
      speculatively and commits the lowest satisfiable depth;
    * ``workers > 1`` with the ``bdd`` engine falls back to the serial
      cascade — its depth queries are incremental (each extends the
      previous depth's BDD state), so there is no depth-level
      parallelism to exploit; the argument is accepted and recorded
      but does not change execution.
    """
    if warm_instance is not None or keep_session:
        if engine == "portfolio" or workers > 1:
            raise ValueError(
                "warm_instance/keep_session require serial execution — "
                "engine sessions live in this process")
    if warm_instance is not None:
        if not isinstance(engine, str):
            raise ValueError(
                "warm_instance needs engine passed as a name; passing the "
                "instance twice is ambiguous")
        if getattr(warm_instance, "name", None) != engine:
            raise ValueError(
                f"warm_instance is a {getattr(warm_instance, 'name', '?')!r} "
                f"engine but engine={engine!r} was requested")
        bound_spec = getattr(warm_instance, "spec", None)
        if bound_spec is not None and bound_spec != spec:
            raise ValueError(
                "warm_instance was built for a different specification; "
                "warm sessions are spec-specific (their encodings bake the "
                "truth-table rows in)")
    library = _resolve_library(spec, library, kinds, engine)
    options = dict(max_gates=max_gates, time_limit=time_limit,
                   use_bounds=use_bounds, trace=trace, store=store,
                   orbit=orbit, engine_options=engine_options)
    if engine == "portfolio":
        from repro.parallel.portfolio import portfolio_synthesize
        # workers=1 is synthesize()'s serial default; for a race it
        # means "no cap" — every engine runs concurrently.
        return portfolio_synthesize(
            spec, library, workers=0 if workers <= 1 else workers, **options)
    if workers > 1 and isinstance(engine, str) and engine in STATELESS_ENGINES:
        from repro.parallel.speculative import speculative_synthesize
        return speculative_synthesize(spec, library, engine,
                                      workers=workers, **options)

    run = Run(spec, library, engine, **options)
    hit = run.lookup()
    if hit is not None:
        return hit

    if warm_instance is not None:
        instance = warm_instance
        if "cancel_token" in engine_options:
            from repro.core.cancel import as_token
            instance.cancel_token = as_token(engine_options["cancel_token"])
    elif isinstance(engine, str):
        try:
            engine_cls = ENGINES[engine]
        except KeyError:
            raise ValueError(f"unknown engine {engine!r}; "
                             f"available: {sorted(ENGINES)}") from None
        instance = engine_cls(spec, library, **engine_options)
    else:
        instance = engine

    result = run.begin(instance.name)
    try:
        with obs.span("synthesize", spec=result.spec_name,
                      engine=instance.name), \
                engine_session(instance, keep_open=keep_session) as warm:
            result.incremental = warm
            for depth in range(run.start_depth, run.limit + 1):
                # Clamp: a sliver of budget is not worth an engine call —
                # the encoding construction alone would overrun it.
                remaining = run.remaining()
                if remaining is not None and remaining <= MIN_DEPTH_BUDGET:
                    result.status = "timeout"
                    break
                step_start = time.perf_counter()
                obs.emit("depth_started", spec=result.spec_name,
                         engine=instance.name, depth=depth)
                with obs.span("depth", depth=depth, engine=instance.name):
                    outcome = instance.decide(depth, time_limit=remaining)
                if run.fold(depth, outcome, time.perf_counter() - step_start):
                    break
    except CancelledError:
        # Cooperative cancellation (portfolio loser, Ctrl-C drain, the
        # caller's token) — also while a session opens: keep the
        # trajectory gathered so far for the coordinator to merge.
        run.fold(None, None)

    if keep_session:
        result.engine_instance = instance
    return run.finish()
