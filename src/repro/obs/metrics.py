"""Metrics registry — the counter/gauge half of :mod:`repro.obs`.

Engines publish into a flat, dot-namespaced metric space; the stable
names are documented in ``docs/observability.md``:

* ``bdd.*``    — BDD manager figures (``bdd.nodes``, ``bdd.ite_cache_hits``,
  ``bdd.quant_calls``, ``bdd.peak_nodes``, the table-bookkeeping
  counters ``bdd.utab_grows``, ``bdd.compactions``,
  ``bdd.kernel_services``, ``bdd.kernel_replays`` and the pauses by
  reason ``bdd.kernel_free_extends``, ``bdd.kernel_utab_grows``,
  ``bdd.kernel_ticks``, ...),
* ``sat.*``    — CDCL solver figures (``sat.conflicts``, ``sat.decisions``,
  ``sat.propagations``, ``sat.vars``, ``sat.clauses``, ...),
* ``qbf.*``    — QBF solver figures including universal-expansion sizes,
* ``sword.*``  — word-level search figures (nodes visited, prunes),
* ``driver.*`` — Figure-1 loop outcomes (depths tried / refuted / timed out).

Two flavours exist: **counters** accumulate by summation (conflicts,
cache hits); **gauges** describe a state snapshot and aggregate by
maximum (live node count, instance sizes).  :data:`GAUGE_METRICS` names
the gauges so :func:`merge_metrics` — used by the driver to fold
per-depth figures into a whole-run dict — applies the right rule.
"""

from __future__ import annotations

import threading
from typing import Dict, Mapping, Optional

__all__ = ["GAUGE_METRICS", "MetricsRegistry", "default_registry",
           "merge_metrics", "publish"]

#: Metric names that snapshot a state (aggregated with ``max``); every
#: other metric is a counter (aggregated with ``+``).
GAUGE_METRICS = frozenset({
    "bdd.nodes",
    "bdd.peak_nodes",
    "bdd.eq_size",
    "bdd.num_vars",
    "bdd.bytes",
    "bdd.kernel",
    "bdd.ite_cache_entries",
    "bdd.quant_cache_entries",
    "sat.vars",
    "sat.clauses",
    "qbf.vars",
    "qbf.clauses",
    "qbf.expanded_clauses",
    "qbf.expanded_universals",
    "sword.transpositions",
    "serve.queue_depth",
    "serve.active_jobs",
    "serve.pool_sessions",
})


def merge_metrics(total: Dict[str, float],
                  update: Mapping[str, float]) -> Dict[str, float]:
    """Fold ``update`` into ``total`` in place (sum counters, max gauges)."""
    for name, value in update.items():
        if name in GAUGE_METRICS:
            total[name] = max(total.get(name, value), value)
        else:
            total[name] = total.get(name, 0) + value
    return total


class MetricsRegistry:
    """Process-level accumulation point for engine metrics.

    Values are plain numbers; the registry itself stays out of hot loops
    — engines keep raw integer attributes and publish once per depth
    query, so registry cost never shows up in synthesis runtime.

    Updates are lock-protected so concurrent syntheses in one process
    (the serve daemon's worker threads) never lose increments to a
    read-modify-write race; engines still publish at most once per
    depth, so contention on the lock is negligible.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._values: Dict[str, float] = {}

    def inc(self, name: str, amount: float = 1) -> None:
        """Add to a counter metric."""
        with self._lock:
            self._values[name] = self._values.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        """Set a gauge metric to the latest observed value."""
        with self._lock:
            self._values[name] = value

    def gauge_max(self, name: str, value: float) -> None:
        """Raise a gauge metric to ``value`` if it is the new peak."""
        with self._lock:
            current = self._values.get(name)
            if current is None or value > current:
                self._values[name] = value

    def publish(self, metrics: Mapping[str, float]) -> None:
        """Fold a per-depth metrics dict in (sum counters, max gauges)."""
        with self._lock:
            merge_metrics(self._values, metrics)

    def get(self, name: str, default: Optional[float] = None):
        with self._lock:
            return self._values.get(name, default)

    def snapshot(self) -> Dict[str, float]:
        """A consistent copy of every metric currently held."""
        with self._lock:
            return dict(self._values)

    def reset(self) -> None:
        # Fresh lock first: a fork can inherit a lock snapshotted in the
        # held state from another thread mid-update.
        self._lock = threading.Lock()
        self._values = {}

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, name: str) -> bool:
        return name in self._values


_registry = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide registry every ``synthesize()`` publishes into."""
    return _registry


def publish(metrics: Mapping[str, float]) -> None:
    """Publish a metrics dict to the default registry."""
    _registry.publish(metrics)
