"""Driver-level memory management: GC and reordering change resources,
never answers.

The acceptance bar for the packed-table core's memory machinery is
*canonical-record identity*: a run with GC and/or dynamic reordering on
must produce the same canonical record — depth, #SOL, circuits, QC
range, per-depth verdicts — as the default run, byte for byte.  The
``bdd.*`` resource metrics (node counts, gc/reorder counters, store
bytes) are exactly the figures those knobs exist to move, so the
canonical projection strips them; ``bdd.solutions`` is an answer and
stays.
"""

import json

import pytest

import repro.obs as obs
from repro.functions import get_spec
from repro.parallel import SynthesisTask, run_suite
from repro.synth import synthesize
from repro.synth.bdd_engine import BddSynthesisEngine


#: The kernel-pause counters by reason.
REASONS = ("bdd.kernel_free_extends", "bdd.kernel_utab_grows",
           "bdd.kernel_ticks")


def _canonical(result):
    return json.dumps(obs.canonical_record(obs.build_run_record(result)),
                      sort_keys=True)


#: Triggers small enough that a 3_17 run actually collects and sifts
#: (asserted below), large enough to keep the test fast.
MEMORY_OPTIONS = {"reorder": 512, "gc_threshold": 2000}


class TestCanonicalIdentity:
    def test_gc_on_off_records_identical(self):
        spec = get_spec("3_17")
        default = synthesize(spec, engine="bdd")
        collected = synthesize(spec, engine="bdd", gc_threshold=2000)
        assert collected.metrics["bdd.gc_runs"] > 0
        assert collected.metrics["bdd.gc_reclaimed"] > 0
        assert _canonical(collected) == _canonical(default)

    def test_reorder_on_off_records_identical(self):
        spec = get_spec("3_17")
        default = synthesize(spec, engine="bdd")
        managed = synthesize(spec, engine="bdd", **MEMORY_OPTIONS)
        assert managed.metrics["bdd.reorder_runs"] > 0
        assert managed.metrics["bdd.reorder_swaps"] > 0
        assert _canonical(managed) == _canonical(default)
        # The knobs' entire effect lives in the stripped resource
        # metrics; the raw records do differ there.
        assert managed.metrics["bdd.peak_nodes"] \
            != default.metrics["bdd.peak_nodes"] \
            or managed.metrics["bdd.gc_runs"] > 0

    def test_serial_vs_parallel_identical_with_reordering(self):
        # The headline acceptance criterion: canonical records stay
        # byte-identical across the process boundary with reordering
        # (and GC) enabled in every worker.
        names = ["3_17", "decod24-v0"]
        tasks = lambda: [SynthesisTask(spec=get_spec(name), engine="bdd",
                                       time_limit=60,
                                       engine_options=dict(MEMORY_OPTIONS))
                         for name in names]
        serial = run_suite(tasks(), workers=1)
        parallel = run_suite(tasks(), workers=2)
        for ser, par in zip(serial.reports, parallel.reports):
            assert ser.ok and par.ok
            assert obs.canonical_record(ser.record) \
                == obs.canonical_record(par.record)
            # The table-bookkeeping figures are resource metrics: in
            # the raw record, stripped from the canonical one.
            for key in ("bdd.utab_grows", "bdd.compactions", "bdd.kernel"):
                assert key in ser.record["metrics"]
                assert key in par.record["metrics"]
                assert key not in obs.canonical_record(ser.record)["metrics"]


class TestEngineOptions:
    def test_reorder_requires_incremental(self):
        spec = get_spec("3_17")
        from repro.core.library import GateLibrary
        with pytest.raises(ValueError):
            BddSynthesisEngine(spec, GateLibrary.mct(3),
                               incremental=False, reorder=True)

    def test_defaults_leave_memory_machinery_off(self):
        spec = get_spec("3_17")
        from repro.core.library import GateLibrary
        engine = BddSynthesisEngine(spec, GateLibrary.mct(3))
        assert engine.manager._gc_enabled is False
        assert engine.manager._reorder_enabled is False
        for depth in range(7):
            outcome = engine.decide(depth)
        assert outcome.status == "sat"
        assert engine.manager.stats()["gc_runs"] == 0
        assert engine.manager.stats()["reorder_runs"] == 0

    def test_int_reorder_sets_the_sift_trigger(self):
        spec = get_spec("3_17")
        from repro.core.library import GateLibrary
        engine = BddSynthesisEngine(spec, GateLibrary.mct(3), reorder=512)
        assert engine.manager._reorder_enabled is True
        assert engine.manager._reorder_min == 512
        # The X block stays pinned on top (match_forall precondition).
        assert engine.manager._reorder_bounds[0] == engine.n


class TestMemoryMetrics:
    def test_kernel_pause_counters_per_depth(self):
        # Every depth reports its kernel pauses: serviced in place, and
        # unwound and replayed (only auto-GC replays, which the engine
        # never arms).  Both are resource figures, out of canonical
        # records like every bdd.* metric but bdd.solutions.
        from repro.bdd.tables import kernel_available
        result = synthesize(get_spec("mod5d1_s"), engine="bdd")
        for stat in result.per_depth:
            assert stat.metrics["bdd.kernel_replays"] == 0
            assert stat.metrics["bdd.kernel_services"] >= 0
        services = result.metrics["bdd.kernel_services"]
        assert (services > 0) == kernel_available()
        record = obs.build_run_record(result)
        canonical = obs.canonical_record(record)["metrics"]
        for key in ("bdd.kernel_services", "bdd.kernel_replays",
                    *REASONS):
            assert key in record["metrics"]
            assert key not in canonical

    def test_kernel_pauses_split_by_reason_per_depth(self):
        # The services split into free-list extensions, unique-table
        # doublings and allocation ticks; a pause after an insert may
        # both grow the table and fire the tick, so the reasons cover
        # every service and may count one twice.  The fallback has no
        # kernel pauses at all.
        from repro.bdd.tables import kernel_available
        result = synthesize(get_spec("mod5d1_s"), engine="bdd")
        for stat in result.per_depth:
            reasons = sum(stat.metrics[key] for key in REASONS)
            services = stat.metrics["bdd.kernel_services"]
            assert services <= reasons <= 2 * services
        totals = {key: result.metrics[key] for key in REASONS}
        if kernel_available():
            assert totals["bdd.kernel_free_extends"] > 0
            assert totals["bdd.kernel_utab_grows"] > 0
            assert totals["bdd.kernel_ticks"] > 0
        else:
            assert set(totals.values()) == {0}

    def test_bdd_bytes_and_counters_reach_the_record(self):
        result = synthesize(get_spec("3_17"), engine="bdd",
                            gc_threshold=2000)
        record = obs.build_run_record(result)
        assert obs.validate_run_record(record) == []
        metrics = record["metrics"]
        assert metrics["bdd.bytes"] > 0
        for key in ("bdd.gc_runs", "bdd.gc_reclaimed",
                    "bdd.reorder_runs", "bdd.reorder_swaps",
                    "bdd.utab_grows", "bdd.compactions", "bdd.kernel"):
            assert key in metrics
        # Stripped from the canonical projection (resource figures)...
        canonical = obs.canonical_record(record)
        assert not any(k.startswith("bdd.")
                       for k in canonical["metrics"]
                       if k != "bdd.solutions")
        # ...except the one answer metric.
        assert canonical["metrics"]["bdd.solutions"] \
            == result.num_solutions

    def test_gc_lowers_peak_nodes(self):
        spec = get_spec("mod5d1_s")
        default = synthesize(spec, engine="bdd")
        collected = synthesize(spec, engine="bdd", gc_threshold=5000)
        assert collected.metrics["bdd.gc_runs"] > 0
        assert collected.metrics["bdd.peak_nodes"] \
            < default.metrics["bdd.peak_nodes"]
        assert collected.num_solutions == default.num_solutions
        assert sorted(str(c) for c in collected.circuits) \
            == sorted(str(c) for c in default.circuits)
