"""The model walk behind #SOL and answer extraction: kernel/Python parity.

``BddManager.model_codes`` counts a diagram's models and lists a window
of them as rows of packed codes, in one walk.  The native kernel's
``bdd_models`` and the pure-Python ``_models_py`` are twins: on the same
diagram they must return the same count and byte-identical rows, and
both must list models in the order the recursive ``iter_models`` of
earlier releases used — lexicographic over the sorted variable ids, low
branch first, levels the diagram skips expanded.  Random diagrams mix
complement edges (XOR, negation) and skipped levels (functions over a
random subset of the variables).
"""

import itertools
import random
from array import array

import pytest

from repro.bdd.manager import FALSE, TRUE, BddManager
from repro.bdd.reorder import restore_block_order, sift

N = 12


def _require_kernel():
    from repro.bdd.tables import kernel_available
    if not kernel_available():
        pytest.skip("native kernel unavailable")


def _random_diagram(manager, rng, n=N):
    """A function over a random subset of ``n`` variables, built from
    AND/XOR/OR of literals and negations, so edges carry complements and
    paths skip levels."""
    used = sorted(rng.sample(range(n), rng.randint(2, n - 2)))
    f = manager.literal(used[0], rng.random() < 0.5)
    for _ in range(rng.randint(3, 12)):
        picked = rng.sample(used, rng.randint(1, min(3, len(used))))
        term = manager.conj(manager.literal(v, rng.random() < 0.5)
                            for v in picked)
        op = rng.choice((manager.and_, manager.or_, manager.xor))
        f = op(f, term)
        if rng.random() < 0.3:
            f = manager.not_(f)
    return f


def _reference_rows(manager, f, variables, width):
    """Models in the old ``iter_models`` order, by brute force: every
    assignment in lexicographic order of the sorted ids (first variable
    most significant, False first), kept when ``f`` holds, packed into
    codes of ``width`` consecutive variables, MSB first."""
    var_list = sorted(variables)
    rows = []
    for bits in itertools.product((0, 1), repeat=len(var_list)):
        if manager.evaluate(f, dict(zip(var_list, map(bool, bits)))):
            rows.extend(int("".join(map(str, bits[i:i + width])), 2)
                        for i in range(0, len(bits), width))
    return rows


def _both(manager, f, variables, width, start, limit):
    """The kernel's and the twin's answer on one diagram."""
    var_list = sorted(variables)
    pos = manager._level_of_var  # identity order: level == id
    positions = [-1] * (manager.num_vars + 1)
    for i, var in enumerate(var_list):
        positions[pos[var]] = i
    table = array("i", positions)
    k = len(var_list)
    native = manager._models_kernel(f, table, k, width, start,
                                    limit if limit is not None else 1 << 16)
    twin = manager._models_py(f, table, k, width, start, limit)
    return native, twin


class TestKernelParity:
    def test_random_diagrams_identical_and_in_the_old_order(self):
        _require_kernel()
        rng = random.Random(1)
        manager = BddManager(N)
        for _ in range(40):
            f = _random_diagram(manager, rng)
            for width in (1, 2, 3, 4):
                (count_k, rows_k), (count_p, rows_p) = _both(
                    manager, f, range(N), width, 0, None)
                assert count_k == count_p
                assert rows_k.tobytes() == rows_p.tobytes()
                assert list(rows_p) == _reference_rows(manager, f, range(N),
                                                       width)
                assert len(rows_p) == count_p * (N // width)

    def test_large_diagram_identical(self):
        # Hundreds of nodes: the kernel's count memo grows several times.
        _require_kernel()
        rng = random.Random(3)
        manager = BddManager(N)
        f = manager.xor(
            manager.from_minterms(list(range(N)),
                                  rng.sample(range(1 << N), 900)),
            _random_diagram(manager, rng))
        assert manager.size(f) > 300
        (count_k, rows_k), (count_p, rows_p) = _both(
            manager, f, range(N), 2, 0, None)
        assert count_k == count_p
        assert rows_k.tobytes() == rows_p.tobytes()
        assert list(rows_p) == _reference_rows(manager, f, range(N), 2)

    def test_windows_and_row_cap(self):
        _require_kernel()
        rng = random.Random(2)
        manager = BddManager(N)
        for _ in range(15):
            f = _random_diagram(manager, rng)
            count, full = manager.model_codes(f, range(N), width=3)
            per_row = N // 3
            for start, limit in ((0, 1), (0, 7), (5, 3), (count - 2, 10),
                                 (count, 4), (count + 3, 4)):
                start = max(start, 0)
                (count_k, rows_k), (count_p, rows_p) = _both(
                    manager, f, range(N), 3, start, limit)
                assert count_k == count_p == count
                assert rows_k.tobytes() == rows_p.tobytes()
                want = full[start * per_row:(start + limit) * per_row]
                assert rows_p == want
                assert manager.model_codes(f, range(N), width=3, limit=limit,
                                           start=start) == (count, want)

    def test_answer_larger_than_the_first_buffer(self):
        # More rows than model_codes first makes room for: the kernel
        # walks again into an exactly sized buffer.
        _require_kernel()
        kernel = BddManager(N)
        pure = BddManager(N, use_kernel=False)
        for manager in (kernel, pure):
            f = manager.or_(manager.var(0), manager.var(5))  # 3072 models
            assert manager.model_codes(f, range(N), width=4)[0] == 3072
        assert (kernel.model_codes(kernel.or_(kernel.var(0), kernel.var(5)),
                                   range(N), width=4)
                == pure.model_codes(pure.or_(pure.var(0), pure.var(5)),
                                    range(N), width=4))

    def test_terminal_roots(self):
        for use_kernel in (None, False):
            manager = BddManager(4, use_kernel=use_kernel)
            count, rows = manager.model_codes(FALSE, range(4))
            assert (count, list(rows)) == (0, [])
            count, rows = manager.model_codes(TRUE, range(4), width=2)
            assert count == 16
            assert list(rows) == [c for a in range(4) for b in range(4)
                                  for c in (a, b)]
            count, rows = manager.model_codes(TRUE, [])
            assert (count, list(rows)) == (1, [])
            assert list(manager.iter_models(TRUE, [])) == [{}]
            count, rows = manager.model_codes(TRUE, range(4), limit=0)
            assert (count, list(rows)) == (16, [])

    def test_pure_python_and_kernel_managers_agree(self):
        # The same operation sequence on a kernel and a pure-Python
        # manager builds the same edges, so the public answers match.
        _require_kernel()
        kernel = BddManager(N)
        pure = BddManager(N, use_kernel=False)
        for seed in range(10):
            fk = _random_diagram(kernel, random.Random(seed))
            fp = _random_diagram(pure, random.Random(seed))
            assert fk == fp
            assert (kernel.model_codes(fk, range(N), width=2, limit=50)
                    == pure.model_codes(fp, range(N), width=2, limit=50))
            assert ([sorted(m.items()) for m in kernel.iter_models(fk, range(N))]
                    == [sorted(m.items()) for m in pure.iter_models(fp, range(N))])


class TestWalkContract:
    @pytest.mark.parametrize("use_kernel", [None, False])
    def test_scrambled_level_order_refused_for_listing_only(self, use_kernel):
        k = 3
        manager = BddManager(2 * k, use_kernel=use_kernel)
        f = manager.protect(manager.conj(
            manager.xnor(manager.var(i), manager.var(k + i))
            for i in range(k)))
        sift(manager)
        assert any(manager._level_of_var[v] != v for v in range(2 * k))
        assert manager.count_models(f, range(2 * k)) == 8
        with pytest.raises(ValueError, match="level order"):
            manager.model_codes(f, range(2 * k), limit=1)
        restore_block_order(manager)
        count, rows = manager.model_codes(f, range(2 * k))
        assert count == 8
        assert list(rows) == _reference_rows(manager, f, range(2 * k), 1)

    @pytest.mark.parametrize("use_kernel", [None, False])
    def test_unlisted_support_rejected(self, use_kernel):
        manager = BddManager(3, use_kernel=use_kernel)
        f = manager.and_(manager.var(0), manager.var(2))
        with pytest.raises(ValueError, match=r"\[2\]"):
            manager.model_codes(f, [0, 1])
        with pytest.raises(ValueError):
            manager.model_codes(f, [0, 1], limit=0)

    def test_width_and_window_validated(self):
        manager = BddManager(4)
        with pytest.raises(ValueError):
            manager.model_codes(TRUE, range(4), width=3)
        with pytest.raises(ValueError):
            manager.model_codes(TRUE, range(4), limit=-1)
        with pytest.raises(ValueError):
            manager.model_codes(TRUE, range(4), start=-2)

    @pytest.mark.parametrize("use_kernel", [None, False])
    def test_count_past_64_bits_is_exact(self, use_kernel):
        # 70 variables, two constrained: 2**68 models.  The kernel's
        # 64-bit count overflows and the twin's exact count replaces it.
        manager = BddManager(70, use_kernel=use_kernel)
        f = manager.and_(manager.var(3), manager.nvar(60))
        if manager._klib is not None:
            ffi = manager._kffi
            pos = array("i", range(70)) + array("i", (-1,))
            count = ffi.new("uint64_t[2]")
            manager._kernel_bind()
            manager._klib.bdd_models(*manager._kbufs[:3],
                                     ffi.from_buffer("int32_t[]", pos), 70, 1,
                                     f, 0, 0, ffi.NULL, count)
            assert count[1] == 1  # overflow flagged
        assert manager.count_models(f, range(70)) == 1 << 68
        assert manager.count_models(TRUE, range(70)) == 1 << 70
        count, rows = manager.model_codes(f, range(70), width=10, limit=2)
        assert count == 1 << 68
        # The first two models: x3 = 1, x60 = 0, everything else 0 then
        # the last variable flipped.
        assert list(rows[:7]) == [1 << 6, 0, 0, 0, 0, 0, 0]
        assert list(rows[7:]) == [1 << 6, 0, 0, 0, 0, 0, 1]
        first = next(manager.iter_models(f, range(70)))
        assert [v for v, value in first.items() if value] == [3]
