"""Per-layer timing of the program, taken from outside it.

:class:`Layers` replaces public functions of the program with timed
wrappers for as long as it is installed, and reads the program's own
``repro.obs`` spans and the counters each ``synthesize()`` result
carries.  Nothing under the program's source tree changes.

Timing is per thread, so concurrent syntheses in the serve daemon do
not charge each other: every wrapped call adds its duration to its
caller's child time, and a layer's *self* time is its duration minus
that child time.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: Spans the program already records; their summed durations are read
#: from the ``repro.obs`` tracer after every synthesis.
SPAN_NAMES = ("bdd.cascade", "bdd.extract", "sat.encode", "sat.solve",
              "sat.canonicalize", "qbf.encode", "qbf.expand", "qbf.solve",
              "qbf.canonicalize", "sword.search")

#: Counters summed over the per-synthesis ``result.metrics``.
SUMMED_COUNTERS = ("bdd.ite_calls", "bdd.ite_cache_hits", "bdd.quant_calls",
                   "bdd.solutions", "sat.conflicts", "sat.canonical_solves",
                   "sat.canonical_conflicts", "qbf.conflicts",
                   "sword.nodes_visited", "sword.tt_prunes")

#: Gauges: the largest value any synthesis reported.
MAX_GAUGES = ("bdd.peak_nodes", "qbf.expanded_clauses")

#: Serve figures, which the harness reads from the daemon's ``stats`` RPC
#: and its own clock; the in-process workloads report them as 0.
SERVE_METRICS = ("serve.overhead_p50_ms", "serve.overhead_p90_ms",
                 "serve.hit_latency_p50_ms", "serve.hit_latency_p90_ms",
                 "serve.miss_latency_p50_ms", "serve.miss_latency_p90_ms",
                 "serve.syntheses", "serve.store_hits",
                 "serve.coalesced_followers", "serve.queue_depth")


class Layers:
    """Timed wrappers around the program's layer entry points."""

    def __init__(self) -> None:
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.spans: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List[Callable[[], None]] = []

    # -- wrapping -------------------------------------------------------------

    def _stack(self) -> List[List[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name: str, elapsed: float, children: float) -> None:
        stack = self._stack()
        if stack:
            stack[-1][0] += elapsed
        with self._lock:
            self.total[name] += elapsed
            self.self_time[name] += elapsed - children

    def timed(self, name: str, fn: Callable,
              on_result: Optional[Callable] = None) -> Callable:
        layers = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = layers._stack()
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                layers._record(name, elapsed, frame[0])
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def timed_generator(self, name: str, fn: Callable) -> Callable:
        """Charge the time spent producing each item, not the consumer's."""
        layers = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                stack = layers._stack()
                frame = [0.0]
                stack.append(frame)
                start = time.perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    elapsed = time.perf_counter() - start
                    stack.pop()
                    layers._record(name, elapsed, frame[0])
                yield item
        return wrapper

    def _replace_function(self, module_name: str, attr: str,
                          wrapper_of: Callable[[Callable], Callable]) -> None:
        """Rebind ``module.attr`` in every loaded module that imported it."""
        original = getattr(sys.modules[module_name], attr)
        wrapped = wrapper_of(original)
        holders = [m for m in list(sys.modules.values())
                   if m is not None and getattr(m, attr, None) is original]
        for module in holders:
            setattr(module, attr, wrapped)

        def undo() -> None:
            for module in holders:
                setattr(module, attr, original)
        self._undo.append(undo)

    def _replace_method(self, cls: type, attr: str, wrapped: Callable) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, wrapped)
        self._undo.append(lambda: setattr(cls, attr, original))

    def install(self) -> None:
        """Wrap the layer entry points and turn on ``repro.obs`` spans."""
        import repro.obs as obs
        import repro.store.orbit  # noqa: F401  (wrapped below)
        import repro.store.payload  # noqa: F401
        import repro.synth.driver  # noqa: F401
        from repro.bdd.manager import BddManager
        from repro.synth.bdd_engine import BddSynthesisEngine
        from repro.synth.qbf_engine import QbfSolverEngine
        from repro.synth.sat_engine import SatBaselineEngine
        from repro.synth.sword_engine import SwordEngine

        self._replace_function(
            "repro.synth.driver", "synthesize",
            lambda fn: self.timed("synthesize", fn, self._harvest))
        self._replace_function(
            "repro.store.orbit", "derive_store_key",
            lambda fn: self.timed("store.key", fn))
        self._replace_function(
            "repro.store.payload", "store_lookup",
            lambda fn: self.timed("store.lookup", fn, self._count_lookup))
        self._replace_function(
            "repro.store.payload", "store_commit",
            lambda fn: self.timed("store.commit", fn))
        for engine, cls in (("bdd", BddSynthesisEngine),
                            ("sat", SatBaselineEngine),
                            ("qbf", QbfSolverEngine),
                            ("sword", SwordEngine)):
            self._replace_method(cls, "decide", self.timed(
                f"decide.{engine}", cls.__dict__["decide"]))
        for attr in ("match_forall", "compact", "count_models"):
            self._replace_method(BddManager, attr, self.timed(
                f"bdd.{attr}", BddManager.__dict__[attr]))
        self._replace_method(BddManager, "iter_models", self.timed_generator(
            "bdd.iter_models", BddManager.__dict__["iter_models"]))
        obs.set_tracing(True)
        self._undo.append(lambda: obs.set_tracing(False))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- harvesting -----------------------------------------------------------

    def _harvest(self, result) -> None:
        """Fold one synthesis' spans and counters into the totals."""
        import repro.obs as obs
        tracer = obs.get_tracer()
        finished, tracer.spans = tracer.spans, []
        with self._lock:
            for span in finished:
                if span.name in SPAN_NAMES and span.duration is not None:
                    self.spans[span.name] += span.duration
            if result.store_hit:
                return  # the counters describe the stored run, not this one
            self.counts["driver.depths"] += len(result.per_depth)
            for name in SUMMED_COUNTERS:
                self.counts[name] += result.metrics.get(name, 0)
            for name in MAX_GAUGES:
                self.counts[name] = max(self.counts[name],
                                        result.metrics.get(name, 0))
            # A manager-lifetime total at each depth: the last one is the run's.
            self.counts["bdd.cache_clears"] += max(
                (step.metrics.get("bdd.cache_clears", 0)
                 for step in result.per_depth), default=0)

    def _count_lookup(self, outcome) -> None:
        hit = outcome[0]
        with self._lock:
            self.counts["store.lookups"] += 1
            if hit is not None:
                self.counts["store.hits"] += 1
                self.counts["store.replayed_circuits"] += len(hit.circuits)

    # -- report ---------------------------------------------------------------

    def snapshot(self) -> Dict:
        """Plain-data totals, for sending across a process boundary."""
        with self._lock:
            return {"total": dict(self.total), "self": dict(self.self_time),
                    "spans": dict(self.spans),
                    "counts": dict(self.counts)}


def layer_metrics(snap: Dict) -> Dict[str, float]:
    """The per-layer metrics of one traced run, from a :meth:`Layers.snapshot`."""
    total = defaultdict(float, snap["total"])
    own = defaultdict(float, snap["self"])
    spans = defaultdict(float, snap["spans"])
    counts = defaultdict(float, snap["counts"])
    quantify = total["bdd.match_forall"]
    compact = total["bdd.compact"]
    bdd_parts = quantify + compact + spans["bdd.cascade"] + spans["bdd.extract"]
    sat_parts = (spans["sat.encode"] + spans["sat.solve"]
                 + spans["sat.canonicalize"])
    qbf_parts = (spans["qbf.encode"] + spans["qbf.expand"] + spans["qbf.solve"]
                 + spans["qbf.canonicalize"])
    ite_calls = counts["bdd.ite_calls"]
    lookups = counts["store.lookups"]
    return {
        "driver.synthesize_s": total["synthesize"],
        "driver.self_s": own["synthesize"],
        "driver.depths": counts["driver.depths"],
        "bdd.decide_s": total["decide.bdd"],
        "bdd.quantify_s": quantify,
        "bdd.cascade_s": spans["bdd.cascade"],
        "bdd.compact_s": compact,
        "bdd.extract_s": spans["bdd.extract"],
        "bdd.enumerate_s": total["bdd.count_models"] + total["bdd.iter_models"],
        "bdd.unattributed_s": total["decide.bdd"] - bdd_parts,
        "bdd.ite_calls": ite_calls,
        "bdd.ite_hit_ratio": (counts["bdd.ite_cache_hits"] / ite_calls
                              if ite_calls else 0.0),
        "bdd.quant_calls": counts["bdd.quant_calls"],
        "bdd.peak_nodes": counts["bdd.peak_nodes"],
        "bdd.cache_clears": counts["bdd.cache_clears"],
        "bdd.solutions": counts["bdd.solutions"],
        "sat.decide_s": total["decide.sat"],
        "sat.encode_s": spans["sat.encode"],
        "sat.solve_s": spans["sat.solve"],
        "sat.canonicalize_s": spans["sat.canonicalize"],
        "sat.unattributed_s": total["decide.sat"] - sat_parts,
        "sat.conflicts": counts["sat.conflicts"],
        "sat.canonical_solves": counts["sat.canonical_solves"],
        "sat.canonical_conflicts": counts["sat.canonical_conflicts"],
        "qbf.decide_s": total["decide.qbf"],
        "qbf.encode_s": spans["qbf.encode"],
        "qbf.expand_s": spans["qbf.expand"],
        "qbf.solve_s": spans["qbf.solve"],
        "qbf.canonicalize_s": spans["qbf.canonicalize"],
        "qbf.unattributed_s": total["decide.qbf"] - qbf_parts,
        "qbf.conflicts": counts["qbf.conflicts"],
        "qbf.expanded_clauses": counts["qbf.expanded_clauses"],
        "sword.decide_s": total["decide.sword"],
        "sword.search_s": spans["sword.search"],
        "sword.unattributed_s": total["decide.sword"] - spans["sword.search"],
        "sword.nodes_visited": counts["sword.nodes_visited"],
        "sword.tt_prunes": counts["sword.tt_prunes"],
        "store.key_s": total["store.key"],
        "store.lookup_s": total["store.lookup"],
        "store.commit_s": total["store.commit"],
        "store.hit_ratio": counts["store.hits"] / lookups if lookups else 0.0,
        "store.replayed_circuits": counts["store.replayed_circuits"],
    }
