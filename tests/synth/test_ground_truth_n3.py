"""Exhaustive n=3 ground truth: a BFS over the 12-gate MCT library.

Breadth-first search from the identity reaches all 8! = 40,320
reversible functions of three lines.  Counting the gate sequences that
reach each function first gives its minimal gate count D and the number
of minimal networks #SOL, and carrying the cheapest and dearest cost
along them gives the quantum-cost range — all without any synthesis
engine.  The depth histogram must equal the published optimal-count
distribution of Shende, Prasad, Markov and Hayes (quant-ph/0207001):
1/12/102/625/2780/8921/17049/10253/577 functions need 0..8 gates.

The BDD engine is then checked against the BFS on a sample stratified
by depth, seeded from ``REPRO_TEST_SEED`` (``REPRO_TEST_SEED=7 pytest
tests/synth/test_ground_truth_n3.py`` explores another sample).
"""

import os
import random
from operator import itemgetter

import pytest

from repro.core.library import GateLibrary
from repro.core.spec import Specification
from repro.synth.driver import synthesize

SEED = int(os.environ.get("REPRO_TEST_SEED", "0"))
SHENDE = (1, 12, 102, 625, 2780, 8921, 17049, 10253, 577)
PER_DEPTH = 3


@pytest.fixture(scope="module")
def oracle():
    """perm -> (D, #SOL, QC min, QC max) for every 3-line function."""
    library = GateLibrary.mct(3)
    gates = [(tuple(g.apply(x) for x in range(8)), g.quantum_cost(3))
             for g in library]
    identity = tuple(range(8))
    table = {identity: (0, 1, 0, 0)}
    layer = [identity]
    depth = 0
    while layer:
        depth += 1
        found = {}
        for perm in layer:
            _, count, low, high = table[perm]
            pick = itemgetter(*perm)
            for gate, cost in gates:
                nxt = pick(gate)  # perm followed by the gate
                if nxt in table:
                    continue
                seen = found.get(nxt)
                if seen is None:
                    found[nxt] = [count, low + cost, high + cost]
                else:
                    seen[0] += count
                    seen[1] = min(seen[1], low + cost)
                    seen[2] = max(seen[2], high + cost)
        for perm, (count, low, high) in found.items():
            table[perm] = (depth, count, low, high)
        layer = list(found)
    return table


def test_bfs_reproduces_shende_histogram(oracle):
    histogram = [0] * len(SHENDE)
    for depth, _, _, _ in oracle.values():
        histogram[depth] += 1
    assert len(oracle) == 40320
    assert tuple(histogram) == SHENDE


def _sample(oracle):
    by_depth = {}
    for perm, (depth, *_rest) in sorted(oracle.items()):
        by_depth.setdefault(depth, []).append(perm)
    rng = random.Random(SEED)
    return [perm for depth in sorted(by_depth)
            for perm in rng.sample(by_depth[depth],
                                   min(PER_DEPTH, len(by_depth[depth])))]


def test_bdd_engine_matches_bfs_on_seeded_sample(oracle):
    for perm in _sample(oracle):
        depth, count, low, high = oracle[perm]
        spec = Specification.from_permutation(perm, name="bfs")
        result = synthesize(spec, engine="bdd")
        assert (result.depth, result.num_solutions) == (depth, count), perm
        assert (result.quantum_cost_min, result.quantum_cost_max) == (
            low, high), perm
        assert not result.solutions_truncated
        assert len(result.circuits) == count
        assert len(set(result.circuits)) == count
        for circuit in result.circuits:
            assert len(circuit) == depth
            assert circuit.permutation() == perm


def test_truncated_qc_range_matches_bfs(oracle):
    # With enumeration capped at one network, the QC range comes from
    # the dynamic program over the solution BDD; it must still be the
    # exact range over all #SOL minimal networks.
    for perm in _sample(oracle):
        depth, count, low, high = oracle[perm]
        spec = Specification.from_permutation(perm, name="bfs")
        result = synthesize(spec, engine="bdd", max_enumerate=1)
        assert result.num_solutions == count
        assert result.solutions_truncated == (count > 1)
        assert (result.quantum_cost_min, result.quantum_cost_max) == (
            low, high), perm
