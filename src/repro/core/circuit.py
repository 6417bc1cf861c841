"""Reversible circuits as cascades of gates.

Reversible logic forbids fanout and feedback, so every network is a linear
cascade (Definition 3 in the paper).  A :class:`Circuit` is an immutable
sequence of gates over a fixed number of lines with helpers for
simulation, inversion, permutation extraction and quantum-cost
evaluation.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Tuple

from repro.core.gates import Fredkin, Gate, InversePeres, Peres, Toffoli

__all__ = ["Circuit"]


class Circuit:
    """A cascade of reversible gates over ``n_lines`` circuit lines.

    Gates are applied left to right: ``simulate(x)`` feeds ``x`` into
    ``gates[0]`` first.  States are packed integers (bit ``i`` = line
    ``i``), matching :mod:`repro.core.gates`.
    """

    __slots__ = ("n_lines", "_gates")

    def __init__(self, n_lines: int, gates: Iterable[Gate] = ()):
        if n_lines < 1:
            raise ValueError("a circuit needs at least one line")
        self.n_lines = n_lines
        self._gates: Tuple[Gate, ...] = tuple(gates)
        for gate in self._gates:
            if gate.max_line() >= n_lines:
                raise ValueError(
                    f"gate {gate!r} uses line {gate.max_line()} but the "
                    f"circuit only has {n_lines} lines"
                )

    @classmethod
    def _trusted(cls, n_lines: int, gates: Tuple[Gate, ...]) -> "Circuit":
        """A circuit from gates already known to fit ``n_lines``.

        Skips the per-gate width check, for decoders that draw every
        gate from a library built for ``n_lines`` (the BDD engine's
        answer extraction builds thousands of circuits per query).
        """
        circuit = cls.__new__(cls)
        circuit.n_lines = n_lines
        circuit._gates = gates
        return circuit

    # -- sequence protocol ----------------------------------------------------

    @property
    def gates(self) -> Tuple[Gate, ...]:
        return self._gates

    def __len__(self) -> int:
        return len(self._gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self._gates)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Circuit(self.n_lines, self._gates[index])
        return self._gates[index]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Circuit)
                and self.n_lines == other.n_lines
                and self._gates == other._gates)

    def __hash__(self) -> int:
        return hash((self.n_lines, self._gates))

    def __repr__(self) -> str:
        body = " ".join(repr(g) for g in self._gates) or "identity"
        return f"Circuit(n={self.n_lines}: {body})"

    # -- construction ----------------------------------------------------------

    def appended(self, gate: Gate) -> "Circuit":
        """A new circuit with ``gate`` appended at the output side."""
        return Circuit(self.n_lines, self._gates + (gate,))

    def concatenated(self, other: "Circuit") -> "Circuit":
        if other.n_lines != self.n_lines:
            raise ValueError("cannot concatenate circuits with different widths")
        return Circuit(self.n_lines, self._gates + other._gates)

    def inverse(self) -> "Circuit":
        """The circuit realizing the inverse permutation.

        Reverses the cascade and inverts each gate (MCT and MCF are
        self-inverse; Peres maps to inverse-Peres).
        """
        return Circuit(self.n_lines,
                       tuple(g.inverse() for g in reversed(self._gates)))

    # -- semantics ---------------------------------------------------------------

    def simulate(self, state: int) -> int:
        """Propagate one packed input assignment through the cascade."""
        if not 0 <= state < (1 << self.n_lines):
            raise ValueError(f"state {state} out of range for {self.n_lines} lines")
        for gate in self._gates:
            state = gate.apply(state)
        return state

    def simulate_bits(self, bits: Sequence[int]) -> List[int]:
        """Simulate with the assignment given as a list (index = line)."""
        if len(bits) != self.n_lines:
            raise ValueError("wrong number of input bits")
        state = sum((1 if b else 0) << i for i, b in enumerate(bits))
        out = self.simulate(state)
        return [(out >> i) & 1 for i in range(self.n_lines)]

    def permutation(self) -> Tuple[int, ...]:
        """The full truth table as a permutation of ``range(2**n_lines)``.

        Evaluated bit-parallel over word-level *columns*: one ``2**n``-bit
        integer per line, whose bit ``x`` is that line's value when the
        input is ``x``.  Each gate then becomes a handful of bigint
        AND/XOR operations applied to all ``2**n`` inputs at once,
        instead of ``2**n`` scalar :meth:`simulate` walks — the same
        shape the word-level search engine uses for its table checks.
        :meth:`simulate` stays the scalar reference semantics (the two
        are pinned equal by a test).
        """
        n = self.n_lines
        rows = 1 << n
        full = (1 << rows) - 1
        # Identity columns by block doubling: line l alternates blocks of
        # 2**l zeros and 2**l ones up the 2**n inputs.
        cols: List[int] = []
        for line in range(n):
            block = ((1 << (1 << line)) - 1) << (1 << line)
            col = block
            shift = 1 << (line + 1)
            while shift < rows:
                col |= col << shift
                shift <<= 1
            cols.append(col)
        for gate in self._gates:
            cls = gate.__class__
            if cls is Toffoli:
                active = full
                negatives = gate.negative_controls
                for c in gate.controls:
                    active &= (cols[c] ^ full) if c in negatives else cols[c]
                cols[gate.target] ^= active
            elif cls is Fredkin:
                a, b = gate.targets
                cond = full
                for c in gate.controls:
                    cond &= cols[c]
                diff = (cols[a] ^ cols[b]) & cond
                cols[a] ^= diff
                cols[b] ^= diff
            elif cls is Peres:
                a, b = gate.targets
                c = gate.control
                cols[b] ^= cols[c] & cols[a]
                cols[a] ^= cols[c]
            elif cls is InversePeres:
                a, b = gate.targets
                c = gate.control
                cols[b] ^= cols[c] & (cols[a] ^ full)
                cols[a] ^= cols[c]
            else:
                # Unknown gate class: apply it input by input on the
                # packed states reconstructed from the columns.
                states = [sum(((cols[l] >> x) & 1) << l for l in range(n))
                          for x in range(rows)]
                states = [gate.apply(s) for s in states]
                cols = [sum(((states[x] >> l) & 1) << x for x in range(rows))
                        for l in range(n)]
        return tuple(sum(((cols[l] >> x) & 1) << l for l in range(n))
                     for x in range(rows))

    # -- metrics ------------------------------------------------------------------

    def gate_count(self) -> int:
        return len(self._gates)

    def quantum_cost(self, free_line_reduction: bool = False) -> int:
        """Total quantum cost of the cascade under the Barenco model."""
        return sum(g.quantum_cost(self.n_lines, free_line_reduction)
                   for g in self._gates)

    # -- pretty printing ------------------------------------------------------------

    def to_string(self) -> str:
        """Multi-line ASCII rendering, one row per line, one column per gate.

        Positive controls print as ``*``, negative controls as ``o``,
        Toffoli/Peres-XOR targets as ``X``, Fredkin swap targets as
        ``x``, untouched lines as ``-``.
        """
        if not self._gates:
            return "\n".join(f"x{i}: -" for i in range(self.n_lines))
        rows = []
        for line in range(self.n_lines):
            cells = []
            for gate in self._gates:
                if line in gate.controls:
                    negative = getattr(gate, "negative_controls", frozenset())
                    cells.append("o" if line in negative else "*")
                elif line in gate.targets:
                    cells.append("x" if gate.kind == "f" else "X")
                else:
                    cells.append("-")
            rows.append(f"x{line}: " + " ".join(cells))
        return "\n".join(rows)
