"""Picklable task descriptions shared by the parallel executors.

A :class:`SynthesisTask` is a complete, self-contained description of
one ``synthesize()`` call: it crosses process boundaries by pickling
(``Specification``, ``GateLibrary`` and all engine options are plain
data), and the worker side executes it with :meth:`SynthesisTask.run`.

``crash_once_file`` is a fault-injection hook for the scheduler tests:
when set, the task SIGKILLs its own worker process the *first* time it
runs (creating the file as a tombstone) and executes normally on the
retry.  Production code never sets it.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import repro.obs as obs
from repro.core.cancel import CancelToken
from repro.core.library import GateLibrary
from repro.core.spec import Specification

__all__ = ["SynthesisTask", "default_workers", "start_worker"]


def default_workers(cap: int = 4) -> int:
    """Worker-count default: ``REPRO_WORKERS`` env, else min(cap, CPUs)."""
    env = os.environ.get("REPRO_WORKERS")
    if env:
        return max(1, int(env))
    return max(1, min(cap, os.cpu_count() or 1))


def start_worker(cancel_event, worker_id: int = 0,
                 send_event: Optional[Callable[[Dict], None]] = None
                 ) -> CancelToken:
    """Set up a freshly forked worker; returns its token on the event.

    The parent drives shutdown, so SIGINT is ignored.  The fork copied
    the parent's event bus *with its subscribers* (renderers, file
    appenders); they are dropped so the worker's events reach the
    parent exactly once — through ``send_event``, tagged with
    ``worker_id``, when the parent listens.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    obs.reset_event_bus()
    if send_event is not None:
        def forward(event):
            payload = dict(event)
            payload.setdefault("worker", worker_id)
            send_event(payload)

        obs.subscribe(forward)
    return CancelToken(cancel_event)


@dataclass
class SynthesisTask:
    """One (spec, library, engine) synthesis job for the parallel layer."""

    spec: Specification
    engine: str = "bdd"
    library: Optional[GateLibrary] = None
    kinds: Optional[Tuple[str, ...]] = None
    engine_options: Dict[str, object] = field(default_factory=dict)
    max_gates: Optional[int] = None
    time_limit: Optional[float] = None
    use_bounds: bool = False
    label: Optional[str] = None
    #: Root directory of a shared persistent store (:mod:`repro.store`).
    #: A path, not an open store: tasks cross process boundaries by
    #: pickling, and each worker opens its own handle onto the shared
    #: directory (commits are first-writer-wins, so sharing is safe).
    store_path: Optional[str] = None
    #: Orbit-canonicalized store addressing (the CLI's ``--no-orbit``
    #: turns it off); ignored without ``store_path``.
    orbit: bool = True
    #: Fault injection (tests only): SIGKILL the worker on first run.
    crash_once_file: Optional[str] = None

    def resolved_label(self) -> str:
        if self.label is not None:
            return self.label
        name = self.spec.name or "anonymous"
        lib = self.resolved_library().name
        return f"{name}/{self.engine}/{lib}"

    def resolved_library(self) -> GateLibrary:
        if self.library is not None:
            return self.library
        return GateLibrary.from_kinds(self.spec.n_lines,
                                      self.kinds or ("mct",))

    # -- wire form (fleet queue files) ----------------------------------------

    def to_wire(self) -> Dict[str, object]:
        """A JSON-safe dict round-tripping through :meth:`from_wire`.

        The fleet queue stores tasks as JSON files, not pickles, so any
        host (or a human with an editor) can inspect and author them.
        Custom ``library`` instances have no stable wire form — submit
        kinds-based tasks to a fleet queue instead.
        """
        if self.library is not None:
            raise ValueError(
                "tasks with an explicit GateLibrary instance cannot be "
                "serialized for the fleet queue; use kinds= instead")
        return {
            "spec": {
                "name": self.spec.name,
                "n_lines": self.spec.n_lines,
                "rows": [list(row) for row in self.spec.rows],
            },
            "engine": self.engine,
            "kinds": list(self.kinds) if self.kinds is not None else None,
            "engine_options": dict(self.engine_options),
            "max_gates": self.max_gates,
            "time_limit": self.time_limit,
            "use_bounds": self.use_bounds,
            "label": self.label,
            "orbit": self.orbit,
        }

    @classmethod
    def from_wire(cls, wire: Dict[str, object],
                  store_path: Optional[str] = None) -> "SynthesisTask":
        """Rebuild a task from :meth:`to_wire` output.

        ``store_path`` is deliberately host-local (each fleet worker
        passes its own store directory), so it never travels on the
        wire.
        """
        spec_wire = wire["spec"]
        spec = Specification(
            spec_wire["n_lines"],
            [tuple(row) for row in spec_wire["rows"]],
            name=spec_wire.get("name") or "")
        kinds = wire.get("kinds")
        return cls(spec=spec,
                   engine=wire.get("engine", "bdd"),
                   kinds=tuple(kinds) if kinds is not None else None,
                   engine_options=dict(wire.get("engine_options") or {}),
                   max_gates=wire.get("max_gates"),
                   time_limit=wire.get("time_limit"),
                   use_bounds=bool(wire.get("use_bounds", False)),
                   label=wire.get("label"),
                   store_path=store_path,
                   orbit=bool(wire.get("orbit", True)))

    def run(self, cancel_token: Optional[CancelToken] = None):
        """Execute the task in the current process; returns the result.

        ``cancel_token`` threads the coordinator's cancellation into the
        engine's hot loop (a nested ``"portfolio"`` task relays it to
        its racers).
        """
        from repro.synth.driver import synthesize

        if self.crash_once_file is not None:
            if not os.path.exists(self.crash_once_file):
                with open(self.crash_once_file, "w"):
                    pass
                os.kill(os.getpid(), signal.SIGKILL)
        options = dict(self.engine_options)
        if cancel_token is not None:
            options["cancel_token"] = cancel_token
        return synthesize(self.spec,
                          library=self.library,
                          kinds=self.kinds,
                          engine=self.engine,
                          max_gates=self.max_gates,
                          time_limit=self.time_limit,
                          use_bounds=self.use_bounds,
                          store=self.store_path,
                          orbit=self.orbit,
                          **options)
