"""BDD-engine specifics: incrementality, variable orders, extraction."""

import pytest

from repro.core.circuit import Circuit
from repro.core.gates import Toffoli
from repro.core.library import GateLibrary
from repro.core.spec import Specification
from repro.synth.bdd_engine import BddSynthesisEngine


SPEC_317 = Specification.from_permutation((7, 1, 4, 3, 0, 2, 6, 5), name="3_17")


def cnot_spec():
    perm = []
    for i in range(4):
        a, b = i & 1, (i >> 1) & 1
        perm.append(a | ((a ^ b) << 1))
    return Specification.from_permutation(perm, name="cnot")


class TestIncrementalVsMonolithic:
    def test_same_verdicts_and_counts(self):
        spec = cnot_spec()
        library = GateLibrary.mct(2)
        incremental = BddSynthesisEngine(spec, library, incremental=True)
        for depth in range(3):
            monolithic = BddSynthesisEngine(spec, library, incremental=False)
            a = incremental.decide(depth)
            b = monolithic.decide(depth)
            assert a.status == b.status, depth
            if a.status == "sat":
                assert a.num_solutions == b.num_solutions
                assert set(a.circuits) == set(b.circuits)

    def test_incremental_requires_non_decreasing_depths(self):
        engine = BddSynthesisEngine(cnot_spec(), GateLibrary.mct(2))
        engine.decide(2)
        with pytest.raises(ValueError):
            engine.decide(1)

    def test_monolithic_allows_any_order(self):
        # MCT(2) has q = 4 = 2^2: no padding codes, so depth means
        # *exactly* that many gates and depth 2 is unsatisfiable for CNOT.
        engine = BddSynthesisEngine(cnot_spec(), GateLibrary.mct(2),
                                    incremental=False)
        assert engine.decide(2).status == "unsat"
        assert engine.decide(0).status == "unsat"
        assert engine.decide(1).status == "sat"


class TestVariableOrders:
    def test_yx_order_requires_monolithic(self):
        with pytest.raises(ValueError):
            BddSynthesisEngine(cnot_spec(), GateLibrary.mct(2),
                               var_order="yx")

    def test_yx_order_gives_same_answers(self):
        spec = cnot_spec()
        library = GateLibrary.mct(2)
        yx = BddSynthesisEngine(spec, library, incremental=False,
                                var_order="yx")
        xy = BddSynthesisEngine(spec, library, incremental=False,
                                var_order="xy")
        for depth in range(3):
            a = yx.decide(depth)
            b = xy.decide(depth)
            assert a.status == b.status
            if a.status == "sat":
                assert a.num_solutions == b.num_solutions

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError):
            BddSynthesisEngine(cnot_spec(), GateLibrary.mct(2),
                               var_order="zz")


class TestExtraction:
    def test_depth_zero_identity(self):
        identity = Specification.from_permutation((0, 1, 2, 3), name="id")
        engine = BddSynthesisEngine(identity, GateLibrary.mct(2))
        outcome = engine.decide(0)
        assert outcome.status == "sat"
        assert outcome.circuits == [Circuit(2)]
        assert outcome.num_solutions == 1

    def test_enumeration_cap_marks_truncation(self):
        engine = BddSynthesisEngine(SPEC_317, GateLibrary.mct(3),
                                    max_enumerate=3)
        for depth in range(7):
            outcome = engine.decide(depth)
        assert outcome.status == "sat"
        assert outcome.solutions_truncated
        assert len(outcome.circuits) == 3
        assert outcome.num_solutions > 3
        # The QC range comes off the diagram, not the 3-circuit sample:
        # it equals the range of the full enumeration.
        full = BddSynthesisEngine(SPEC_317, GateLibrary.mct(3))
        for depth in range(7):
            complete = full.decide(depth)
        assert not complete.solutions_truncated
        assert (outcome.quantum_cost_min, outcome.quantum_cost_max) == (
            complete.quantum_cost_min, complete.quantum_cost_max)

    def test_managers_without_the_code_walk_give_the_same_rows(self):
        # A manager with only count_models/iter_models (the vendored v2
        # core the benchmark harness injects) packs the same select-code
        # rows from its dict models.
        class DictModelsOnly:
            def __init__(self, manager):
                self.count_models = manager.count_models
                self.iter_models = manager.iter_models

        engine = BddSynthesisEngine(SPEC_317, GateLibrary.mct(3),
                                    compact_between_depths=False,
                                    max_enumerate=5)
        for depth in range(7):
            engine.decide(depth)
        manager = engine.manager
        solutions = manager.match_forall(engine.lines, engine.on_bdds,
                                         engine.dc_bdds, engine.n)
        native = engine._select_codes(manager, solutions, engine.y_vars)
        packed = engine._select_codes(DictModelsOnly(manager), solutions,
                                      engine.y_vars)
        assert native == packed
        assert native[0] == 7 and len(native[1]) == 5 * 6

    def test_full_enumeration_has_no_sample_flag(self):
        engine = BddSynthesisEngine(SPEC_317, GateLibrary.mct(3))
        for depth in range(7):
            outcome = engine.decide(depth)
        assert outcome.status == "sat"
        assert not outcome.solutions_truncated
        assert "qc_range_sample_only" not in outcome.detail

    def test_sample_flag_reaches_run_record(self):
        from repro.obs.runrecord import build_run_record, validate_run_record
        from repro.synth.driver import synthesize
        result = synthesize(SPEC_317, engine="bdd", max_enumerate=2)
        record = build_run_record(result)
        assert validate_run_record(record) == []
        assert record["solutions_truncated"] is True
        complete = synthesize(SPEC_317, engine="bdd")
        assert (record["quantum_cost_min"], record["quantum_cost_max"]) == (
            complete.quantum_cost_min, complete.quantum_cost_max)

    def test_non_minimal_depth_decodes_shorter_circuits(self):
        # MCT(3) has q = 12 < 16: padding codes exist, so deciding depth 2
        # for a depth-1 function is satisfiable and models using padding
        # decode to circuits with the identity slots dropped.
        perm = tuple(x ^ ((x & 1) << 1) for x in range(8))  # CNOT on 3 lines
        spec = Specification.from_permutation(perm, name="cnot3")
        engine = BddSynthesisEngine(spec, GateLibrary.mct(3),
                                    incremental=False)
        outcome = engine.decide(2)
        assert outcome.status == "sat"
        assert any(len(c) == 1 for c in outcome.circuits)
        for circuit in outcome.circuits:
            assert spec.matches_circuit(circuit)
            assert len(circuit) <= 2

    def test_quantum_cost_range_spans_solutions(self):
        engine = BddSynthesisEngine(SPEC_317, GateLibrary.mct(3))
        outcome = None
        for depth in range(7):
            outcome = engine.decide(depth)
        costs = sorted(c.quantum_cost() for c in outcome.circuits)
        assert outcome.quantum_cost_min == costs[0]
        assert outcome.quantum_cost_max == costs[-1]


class TestGuards:
    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BddSynthesisEngine(cnot_spec(), GateLibrary.mct(3))

    def test_timeout_returns_unknown(self):
        engine = BddSynthesisEngine(SPEC_317, GateLibrary.mct(3))
        outcome = engine.decide(0, time_limit=None)
        assert outcome.status == "unsat"
        fresh = BddSynthesisEngine(SPEC_317, GateLibrary.mct(3))
        outcome = fresh.decide(6, time_limit=0.0)
        assert outcome.status == "unknown"

    def test_alloc_tick_uninstalled_after_decide(self):
        # decide() wires the deadline into the manager's allocation tick;
        # a stale deadline from a finished query must never fire later.
        engine = BddSynthesisEngine(SPEC_317, GateLibrary.mct(3))
        engine.decide(0, time_limit=60.0)
        assert engine.manager._alloc_tick is None
        engine.decide(1, time_limit=0.0)
        assert engine.manager._alloc_tick is None

    def test_deadline_interrupts_inside_apply(self):
        # With the per-gate ticks disabled, only the node-allocation tick
        # can notice an expired deadline inside universal_gate_stage's
        # apply runs — deadline enforcement no longer depends on gate
        # boundaries.
        import repro.synth.bdd_engine as mod

        engine = BddSynthesisEngine(SPEC_317, GateLibrary.mct(3))
        original = mod.universal_gate_stage

        def no_tick_stage(lines, select, library, algebra, tick=None):
            return original(lines, select, library, algebra, tick=None)

        mod.universal_gate_stage = no_tick_stage
        try:
            outcome = engine.decide(6, time_limit=0.0)
        finally:
            mod.universal_gate_stage = original
        assert outcome.status == "unknown"
        assert outcome.detail.get("timeout") is True

    def test_compaction_between_depths_keeps_results_valid(self):
        with_compaction = BddSynthesisEngine(SPEC_317, GateLibrary.mct(3),
                                             compact_between_depths=True)
        without = BddSynthesisEngine(SPEC_317, GateLibrary.mct(3),
                                     compact_between_depths=False)
        for depth in range(7):
            a = with_compaction.decide(depth)
            b = without.decide(depth)
            assert a.status == b.status
        assert a.num_solutions == b.num_solutions
        assert set(a.circuits) == set(b.circuits)
