"""Answer checks that do not use the program under test.

* An exhaustive breadth-first search over the 12-gate MCT library on
  3 lines gives every 3-line reversible function's minimal gate count
  and the number of distinct minimal gate sequences.  Its depth
  distribution must equal the one Shende et al. published
  (quant-ph/0207001), which validates the oracle itself.
* Table-2 answers (D, #SOL, quantum-cost range) for the wider paper
  rows are pinned from EXPERIMENTS.md.
* A small gate simulator checks every returned circuit against the
  specification's ON/OFF sets; don't-care entries are free.
* Quantum costs use the Barenco et al. MCT costs that RevLib and the
  paper quote: 1 for at most one control, 5 for two, 2^(c+1) - 3 above.

Circuits are plain data here: a list of ``(kind, controls, target,
negative_controls)`` tuples, gates applied first to last.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Set, Tuple

#: Number of 3-line reversible functions whose minimal MCT circuit has
#: 0, 1, ..., 8 gates (Shende, Prasad, Markov, Hayes, quant-ph/0207001).
SHENDE_MCT3_DISTRIBUTION = (1, 12, 102, 625, 2780, 8921, 17049, 10253, 577)

#: Paper rows wider than 3 lines: (D, #SOL, QC min, QC max), pinned from
#: the MCT Table 2 of EXPERIMENTS.md.
PINNED_TABLE2: Dict[str, Tuple[int, int, int, int]] = {
    "mod5mils": (5, 10, 45, 45),
    "graycode4": (3, 1, 3, 3),
    "3_17": (6, 7, 14, 14),
    "mod5d1_s": (6, 5, 34, 34),
    "mod5d2_s": (6, 1, 22, 22),
    "rd32-v0": (4, 4, 12, 12),
    "rd32-v1": (4, 4, 12, 12),
    "mod5-v0": (5, 1176, 9, 21),
    "mod5-v1": (5, 170, 29, 57),
    "mod5-v0_s": (4, 102, 8, 20),
    "mod5-v1_s": (3, 24, 15, 19),
    "decod24-v0": (6, 75, 10, 34),
    "decod24-v1": (6, 3, 14, 22),
    "decod24-v2": (6, 23, 14, 26),
    "decod24-v3": (7, 1950, 11, 43),
    "alu_small": (4, 342, 12, 28),
}

#: Known minimal MCT depths of the full-tier rows (EXPERIMENTS.md and the
#: paper's Table 1); every shallower depth must be refuted.
KNOWN_MIN_DEPTH = {"hwb4": 11, "4_49": 12}

Gate = Tuple[str, Tuple[int, ...], int, Tuple[int, ...]]


def mct_gates(n: int) -> List[Tuple[int, int]]:
    """Every positive-control MCT gate on ``n`` lines as (control mask, target bit)."""
    gates = []
    for target in range(n):
        others = [line for line in range(n) if line != target]
        for size in range(len(others) + 1):
            for controls in itertools.combinations(others, size):
                gates.append((sum(1 << c for c in controls), 1 << target))
    return gates


def bfs_oracle() -> Tuple[Dict[Tuple[int, ...], int], Dict[Tuple[int, ...], int]]:
    """Minimal depth and minimal-sequence count of every 3-line function.

    A function is its truth table ``perm`` (``perm[x]`` is the output
    word for input word ``x``).  Appending gate ``g`` to a cascade
    realizing ``f`` realizes ``x -> g(f(x))``; the count of minimal
    sequences reaching ``h`` is the sum over its minimal predecessors.
    Raises ``RuntimeError`` if the depth distribution is not Shende's.
    """
    gates = mct_gates(3)
    identity = tuple(range(8))
    depth = {identity: 0}
    count = {identity: 1}
    frontier = [identity]
    level = 0
    while frontier:
        following = []
        for f in frontier:
            ways = count[f]
            for mask, bit in gates:
                h = tuple(v ^ bit if v & mask == mask else v for v in f)
                known = depth.get(h)
                if known is None:
                    depth[h] = level + 1
                    count[h] = ways
                    following.append(h)
                elif known == level + 1:
                    count[h] += ways
        frontier = following
        level += 1
    histogram = [0] * (max(depth.values()) + 1)
    for d in depth.values():
        histogram[d] += 1
    if tuple(histogram) != SHENDE_MCT3_DISTRIBUTION:
        raise RuntimeError(f"BFS oracle depth distribution {histogram} "
                           f"differs from Shende et al.'s")
    return depth, count


def rows_of_perm(perm: Sequence[int], n: int) -> List[List[int]]:
    """Specification rows (``rows[x][line]``) of a completely specified function."""
    return [[(out >> line) & 1 for line in range(n)] for out in perm]


def simulate(gates: Sequence[Gate], x: int) -> int:
    state = x
    for _kind, controls, target, negative in gates:
        if all(((state >> c) & 1) == (0 if c in negative else 1)
               for c in controls):
            state ^= 1 << target
    return state


def realizes(gates: Sequence[Gate], rows: Sequence[Sequence[Optional[int]]]) -> bool:
    """Does the circuit meet every specified output bit of ``rows``?"""
    for x, row in enumerate(rows):
        out = simulate(gates, x)
        for line, value in enumerate(row):
            if value is not None and ((out >> line) & 1) != value:
                return False
    return True


def is_mct(gates: Sequence[Gate], n: int) -> bool:
    """Only positive-control Toffoli gates on lines ``0..n-1``."""
    for kind, controls, target, negative in gates:
        if kind != "t" or negative or not 0 <= target < n:
            return False
        if target in controls or any(not 0 <= c < n for c in controls):
            return False
    return True


def mct_cost(num_controls: int) -> int:
    if num_controls <= 1:
        return 1
    if num_controls == 2:
        return 5
    return (1 << (num_controls + 1)) - 3


def quantum_cost(gates: Sequence[Gate]) -> int:
    return sum(mct_cost(len(controls)) for _k, controls, _t, _n in gates)


def parse_real(text: str) -> Tuple[int, List[Gate]]:
    """Read the Toffoli subset of RevLib ``.real`` text.

    Any other gate type is returned with its own kind so that the MCT
    check rejects it.
    """
    names: List[str] = []
    gates: List[Gate] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith(".variables"):
            names = line.split()[1:]
            continue
        if line.startswith("."):
            continue
        kind, *operands = line.split()
        index = {name: i for i, name in enumerate(names)}
        negative = tuple(index[o[1:]] for o in operands[:-1] if o.startswith("-"))
        controls = tuple(index[o.lstrip("-")] for o in operands[:-1])
        gates.append(("t" if kind.startswith("t") else kind,
                      controls, index[operands[-1]], negative))
    return len(names), gates


def _relabel_maps(n: int) -> List[List[int]]:
    """For each line permutation, the induced map on input words."""
    maps = []
    for sigma in itertools.permutations(range(n)):
        maps.append([sum(((x >> line) & 1) << sigma[line] for line in range(n))
                     for x in range(1 << n)])
    return maps


RELABEL3 = _relabel_maps(3)


def relabel(perm: Sequence[int], word_map: Sequence[int]) -> Tuple[int, ...]:
    """Conjugate ``perm`` by a line relabelling (``word_map`` on words)."""
    out = [0] * len(perm)
    for x, y in enumerate(perm):
        out[word_map[x]] = word_map[y]
    return tuple(out)


def invert(perm: Sequence[int]) -> Tuple[int, ...]:
    out = [0] * len(perm)
    for x, y in enumerate(perm):
        out[y] = x
    return tuple(out)


def orbit(perm: Sequence[int]) -> Set[Tuple[int, ...]]:
    """``perm``'s orbit under line relabelling and inverse.

    The MCT library is closed under both, so an orbit shares minimal
    depth and minimal-sequence count.
    """
    return {relabel(p, m) for p in (tuple(perm), invert(perm)) for m in RELABEL3}
