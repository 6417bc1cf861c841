"""Mark-and-sweep GC, the protect/unprotect protocol, and unique-table
collision freedom for edge values past 2**32.

The GC contract under test: protected edges (and everything reachable
from them) keep their *edge values* across a collection — no re-rooting,
unlike ``compact`` — while dead nodes return to the free list and the
live count shrinks.  Answers must be unchanged afterwards.
"""

import gc
import random
import time
import weakref

import pytest

from repro import synthesize
from repro.bdd.manager import FALSE, TRUE, BddManager
from repro.functions import get_spec


def _random_function(manager, rng, n=6, terms=12):
    """A DNF over ``n`` variables, plus its minterm set for checking."""
    minterms = sorted(rng.sample(range(1 << n), terms))
    node = manager.from_minterms(list(range(n)), minterms)
    return node, set(minterms)


def _assert_denotes(manager, node, n, minterms):
    for m in range(1 << n):
        assignment = {i: bool((m >> i) & 1) for i in range(n)}
        assert manager.evaluate(node, assignment) == (m in minterms)


class TestProtectProtocol:
    def test_protect_returns_edge_and_nests(self):
        manager = BddManager(3)
        f = manager.and_(manager.var(0), manager.var(1))
        assert manager.protect(f) == f
        manager.protect(f)
        manager.unprotect(f)
        manager.unprotect(f)
        with pytest.raises(ValueError):
            manager.unprotect(f)

    def test_protected_scope_unwinds_on_error(self):
        manager = BddManager(2)
        f = manager.var(0)
        with pytest.raises(RuntimeError):
            with manager.protected(f):
                assert f in manager._refs
                raise RuntimeError("boom")
        assert f not in manager._refs

    def test_protection_survives_compact(self):
        # compact() re-roots every surviving node, so it must remap the
        # external-reference table along with the edges it returns.
        manager = BddManager(4)
        keep = manager.conj(manager.var(i) for i in range(4))
        manager.protect(keep)
        manager.xor(keep, manager.var(1))  # garbage
        (keep2,) = manager.compact([keep])
        assert keep2 in manager._refs
        manager.gc()  # the remapped root must still anchor the sweep
        assert manager.evaluate(keep2, {i: True for i in range(4)})
        manager.unprotect(keep2)


class TestGcUnderLoad:
    N = 6

    def test_protected_roots_survive_dead_nodes_freed(self):
        rng = random.Random(7)
        manager = BddManager(self.N)
        node, minterms = _random_function(manager, rng)
        manager.protect(node)
        # Churn: build and abandon functions the sweep should reclaim.
        for _ in range(40):
            garbage, _ = _random_function(manager, rng)
            manager.xor(garbage, node)
        before = manager.node_count()
        freed = manager.gc()
        assert freed > 0
        assert manager.node_count() == before - freed
        assert manager.node_count() < before
        # Same edge value, same function — GC never re-roots.
        _assert_denotes(manager, node, self.N, minterms)
        assert manager.count_models(node, range(self.N)) == len(minterms)

    def test_results_identical_with_and_without_gc(self):
        # The same operation script on a GC'd and an undisturbed manager
        # must intern equal functions to equal *semantics* (edge values
        # may differ once the free list recycles indices).
        def script(manager, collect):
            rng = random.Random(21)
            acc = FALSE
            for round_ in range(12):
                f, _ = _random_function(manager, rng)
                acc = manager.xor(acc, f)
                if collect:
                    with manager.protected(acc):
                        manager.gc()
            return [manager.evaluate(acc,
                                     {i: bool((m >> i) & 1)
                                      for i in range(self.N)})
                    for m in range(1 << self.N)]

        assert script(BddManager(self.N), True) \
            == script(BddManager(self.N), False)

    def test_auto_gc_fires_from_allocator_with_protected_roots(self):
        rng = random.Random(3)
        manager = BddManager(self.N)
        node, minterms = _random_function(manager, rng)
        manager.protect(node)
        manager.enable_auto_gc(threshold=400)
        peak_cap = 0
        for _ in range(60):
            garbage, _ = _random_function(manager, rng)
            manager.xor(garbage, node)
            peak_cap = max(peak_cap, manager.node_count())
        assert manager.stats()["gc_runs"] > 0
        assert manager.stats()["gc_reclaimed"] > 0
        # The threshold bounds the store (slack: one operation's growth).
        assert peak_cap < 4000
        _assert_denotes(manager, node, self.N, minterms)

    def test_maybe_gc_respects_threshold_without_arming_allocator(self):
        manager = BddManager(self.N)
        manager.enable_auto_gc(threshold=1 << 20, enabled=False)
        assert not manager._gc_enabled
        f = manager.conj(manager.var(i) for i in range(self.N))
        with manager.protected(f):
            assert manager.maybe_gc() == 0  # under threshold: no sweep
        manager.enable_auto_gc(threshold=2, enabled=False)
        manager.xor(f, manager.var(0))  # garbage
        with manager.protected(f):
            assert manager.maybe_gc() > 0  # over threshold: sweeps

    def test_gc_invalidates_caches_not_answers(self):
        rng = random.Random(11)
        manager = BddManager(self.N)
        f, tf = _random_function(manager, rng)
        g, tg = _random_function(manager, rng)
        before = manager.and_(f, g)
        with manager.protected(f, g, before):
            manager.gc()
        # Recomputing through (now cold) caches reproduces the same
        # canonical edge for the same operands.
        assert manager.and_(f, g) == before
        assert manager.count_models(before, range(self.N)) \
            == len(tf & tg)


class TestUniqueKeyWidening:
    """Edge ids past 2**32 must not alias in the unique table.

    The v2 core packed unique keys as ``(var << 64) | (lo << 32) | hi``
    — an edge value crossing 2**32 silently overflowed into the ``lo``
    field, so two distinct (lo, hi) pairs could unify.  The v3 table
    stores node indices and compares the actual ``var/lo/hi`` fields on
    every probe, which is collision-free at any width; this regression
    test feeds it synthetic edge values straight across the boundary.
    """

    def test_32bit_alias_pairs_stay_distinct(self):
        manager = BddManager(2, use_kernel=False)
        # Under the old packing (lo << 32) | hi these two pairs collide:
        # (5, 2**32 + 8) packs to (6 << 32) | 8, exactly like (6, 8).
        lo_a, hi_a = 5 << 1, (1 << 32) + (8 << 1)
        lo_b, hi_b = 6 << 1, 8 << 1
        a = manager._mk_level(0, lo_a, hi_a)
        b = manager._mk_level(0, lo_b, hi_b)
        assert a != b
        # Hash-consing still works for both: same triple, same edge.
        assert manager._mk_level(0, lo_a, hi_a) == a
        assert manager._mk_level(0, lo_b, hi_b) == b
        assert manager._lo[a >> 1] == lo_a and manager._hi[a >> 1] == hi_a
        assert manager._lo[b >> 1] == lo_b and manager._hi[b >> 1] == hi_b

    def test_random_wide_triples_never_unify(self):
        rng = random.Random(0)
        manager = BddManager(4, use_kernel=False)
        seen = {}
        for _ in range(500):
            lo = rng.randrange(1 << 40) << 1
            hi = rng.randrange(1 << 40) << 1  # regular: no renormalization
            if lo == hi:
                continue
            level = rng.randrange(4)
            edge = manager._mk_level(level, lo, hi)
            key = (level, lo, hi)
            if key in seen:
                assert seen[key] == edge  # consing
            else:
                assert edge not in seen.values()  # no aliasing
                seen[key] = edge

    def test_node_store_caps_at_int31(self):
        # The int32 unique table addresses at most 2**31 nodes; the
        # allocator must fail loudly at the cap, never wrap.
        manager = BddManager(1)
        with pytest.raises(MemoryError):
            manager._extend_free(0x7FFFFFFF + 1)


def _require_kernel():
    from repro.bdd.tables import kernel_available
    if not kernel_available():
        pytest.skip("native kernel unavailable")


def _churn(manager, rng, rounds=40, n=10):
    """A seeded mix of AND/XOR/ITE over random DNFs, large enough to
    grow the unique table several times; returns the results."""
    results = []
    for _ in range(rounds):
        f = manager.from_minterms(list(range(n)),
                                  sorted(rng.sample(range(1 << n), 200)))
        g = manager.from_minterms(list(range(n)),
                                  sorted(rng.sample(range(1 << n), 200)))
        h = results[-1] if results else manager.var(0)
        results.append(manager.ite(manager.xor(f, h), g,
                                   manager.and_(f, manager.not_(g))))
    return results


def _assert_same_tables(kernel, pure):
    """Byte-identical unique table, columns, free list and references."""
    assert bytes(kernel._utab) == bytes(pure._utab)
    assert kernel._var == pure._var
    assert kernel._lo == pure._lo
    assert kernel._hi == pure._hi
    assert kernel._free == pure._free
    assert kernel._live == pure._live
    assert kernel._refs == pure._refs


def _interleaved_pair(manager, n=10, seed=3):
    """Random functions of the even and of the odd variables: operands of
    a few hundred nodes whose AND allocates ~25k nodes in one call."""
    rng = random.Random(seed)
    half = 1 << (n - 1)
    f = manager.from_minterms(list(range(0, 2 * n, 2)),
                              sorted(rng.sample(range(1 << n), half)))
    g = manager.from_minterms(list(range(1, 2 * n, 2)),
                              sorted(rng.sample(range(1 << n), half)))
    return f, g


def _apply_counters(manager):
    return (manager.ite_cache_hits, manager._cmisses, manager._centries)


class TestKernelParity:
    def test_kernel_and_pure_python_build_identical_edges(self):
        _require_kernel()
        rng_a, rng_b = random.Random(5), random.Random(5)
        with_kernel = BddManager(6)
        pure = BddManager(6, use_kernel=False)
        assert with_kernel._klib is not None and pure._klib is None
        for _ in range(6):
            fa, _ = _random_function(with_kernel, rng_a)
            fb, _ = _random_function(pure, rng_b)
            # Same operation sequence, same allocation order — the
            # kernel is bit-exact with the reference loops, down to
            # the edge values themselves.
            assert fa == fb
        assert with_kernel.node_count() == pure.node_count()
        # The kernel pre-extends the free list in batches, so its
        # columns run longer — but the allocated prefix is identical.
        n = len(pure._var)
        assert list(with_kernel._var[:n]) == list(pure._var)
        assert list(with_kernel._lo[:n]) == list(pure._lo)
        assert list(with_kernel._hi[:n]) == list(pure._hi)
        assert all(v == -2 for v in with_kernel._var[n:])  # free tail

    def test_bookkeeping_grow_compact_gc_identical(self):
        # Growth, compaction and collection run as kernel routines on
        # one manager and as the Python reference loops on the other;
        # every table they leave behind must match byte for byte.
        _require_kernel()
        kernel = BddManager(10)
        pure = BddManager(10, use_kernel=False)
        out_k = _churn(kernel, random.Random(11))
        out_p = _churn(pure, random.Random(11))
        assert out_k == out_p
        assert kernel.utab_grows == pure.utab_grows >= 3
        assert bytes(kernel._utab) == bytes(pure._utab)
        n = len(pure._var)
        assert kernel._var[:n] == pure._var
        assert kernel._lo[:n] == pure._lo
        assert kernel._hi[:n] == pure._hi
        for manager, out in ((kernel, out_k), (pure, out_p)):
            manager.protect(out[3])
            manager.protect(out[3])
            manager.protect(manager.not_(out[7]))
        # Complemented roots, the terminal and a protected edge among
        # the roots.
        roots_k = [out_k[-1], out_k[-2] ^ 1, TRUE, out_k[3], FALSE]
        roots_p = [out_p[-1], out_p[-2] ^ 1, TRUE, out_p[3], FALSE]
        new_k = kernel.compact(roots_k)
        new_p = pure.compact(roots_p)
        assert new_k == new_p
        assert new_k[2] == TRUE and new_k[4] == FALSE
        _assert_same_tables(kernel, pure)
        assert kernel._refs[new_k[3]] == 2
        # The unprotected roots die; the protected ones anchor the sweep.
        freed = kernel.gc()
        assert freed == pure.gc() > 0
        _assert_same_tables(kernel, pure)
        assert kernel.stats()["kernel"] == 1 and pure.stats()["kernel"] == 0
        assert kernel.compactions == pure.compactions == 1

    def test_compact_no_roots_keeps_terminal_only(self):
        _require_kernel()
        kernel = BddManager(10)
        pure = BddManager(10, use_kernel=False)
        _churn(kernel, random.Random(3), rounds=5)
        _churn(pure, random.Random(3), rounds=5)
        assert kernel.compact([]) == pure.compact([]) == []
        _assert_same_tables(kernel, pure)
        assert kernel.node_count() == 1 and len(kernel._var) == 1

    def test_compact_right_after_extend_free(self):
        _require_kernel()
        kernel = BddManager(10)
        pure = BddManager(10, use_kernel=False)
        out_k = _churn(kernel, random.Random(4), rounds=5)
        out_p = _churn(pure, random.Random(4), rounds=5)
        (root_k,) = kernel.compact([out_k[-1]])
        (root_p,) = pure.compact([out_p[-1]])
        # Both columns are now exactly sized, so the threaded free list
        # (C on one side, Python on the other) must match in full.
        kernel._extend_free()
        pure._extend_free()
        _assert_same_tables(kernel, pure)
        assert kernel._var[-1] == -2 and kernel._lo[-1] == 0
        assert kernel.compact([root_k]) == pure.compact([root_p])
        _assert_same_tables(kernel, pure)
        assert -2 not in kernel._var

    def test_pauses_in_one_and_are_serviced_where_the_reference_does(self):
        # A single kernel call crosses several unique-table doublings,
        # a computed-cache resize and many tick firings.  Serviced in
        # place at the allocation where _fresh services them, the kernel
        # makes exactly the reference loops' table and cache traffic.
        _require_kernel()
        runs = []
        for use_kernel in (True, False):
            manager = BddManager(20, use_kernel=use_kernel)
            f, g = _interleaved_pair(manager)
            fired = []
            manager.set_alloc_tick(lambda: fired.append(1), interval=1024)
            grows, csize = manager.utab_grows, manager._csize
            edge = manager.and_(f, g)
            runs.append((manager, edge, len(fired),
                         manager.utab_grows - grows, csize))
        (kernel, edge_k, fired_k, grows_k, csize_k), \
            (pure, edge_p, fired_p, grows_p, _) = runs
        assert edge_k == edge_p
        assert grows_k == grows_p >= 3
        assert kernel._csize == pure._csize > csize_k
        assert fired_k == fired_p >= 3
        assert _apply_counters(kernel) == _apply_counters(pure)
        assert kernel.kernel_services >= fired_k  # one service per tick
        assert kernel.kernel_replays == 0
        n = len(pure._var)
        assert bytes(kernel._utab) == bytes(pure._utab)
        assert kernel._var[:n] == pure._var
        assert kernel._lo[:n] == pure._lo
        assert kernel._hi[:n] == pure._hi

    def test_null_service_unwinds_and_replays(self):
        # Without the service callback every pause unwinds to Python,
        # which services it and replays the call: same edges and tables,
        # with the replays counted.
        _require_kernel()
        kernel = BddManager(20)
        kernel._kctx.service = kernel._kffi.NULL
        pure = BddManager(20, use_kernel=False)
        edges = [manager.and_(*_interleaved_pair(manager))
                 for manager in (kernel, pure)]
        assert edges[0] == edges[1]
        assert bytes(kernel._utab) == bytes(pure._utab)
        assert kernel.kernel_services == 0
        assert kernel.kernel_replays >= 3


class TestKernelPauseService:
    """The tick fires inside a running kernel call; these guard that a
    deadline or cancellation raised there is as strong as before."""

    def test_raising_tick_escapes_mid_and(self, capsys):
        _require_kernel()
        error = TimeoutError("deadline")
        managers = (BddManager(20), BddManager(20, use_kernel=False))
        edges = []
        for manager in managers:
            f, g = _interleaved_pair(manager)
            fired = []

            def tick():
                fired.append(1)
                if len(fired) == 3:
                    raise error

            manager.set_alloc_tick(tick, interval=1024)
            with pytest.raises(TimeoutError) as excinfo:
                manager.and_(f, g)
            assert excinfo.value is error  # the same object, not a copy
            del excinfo
            assert len(fired) == 3
            # The aborted call left consistent tables: the next AND
            # runs to the end and matches the reference loops.
            manager.set_alloc_tick(None)
            edges.append(manager.and_(f, g))
        kernel, pure = managers
        assert capsys.readouterr().err == ""  # no cffi callback traceback
        assert edges[0] == edges[1]
        assert _apply_counters(kernel) == _apply_counters(pure)
        assert bytes(kernel._utab) == bytes(pure._utab)
        assert kernel.kernel_replays == 0

    def test_deadline_stops_bdd_synthesis_on_time(self):
        start = time.perf_counter()
        result = synthesize(get_spec("hwb4"), engine="bdd", time_limit=1.0)
        assert result.status == "timeout"
        assert time.perf_counter() - start < 5.0

    def test_callback_holds_no_reference_cycle(self):
        _require_kernel()
        enabled = gc.isenabled()
        for tick in (None, _raise_timeout):
            manager = BddManager(20)
            operands = _interleaved_pair(manager)
            # from_minterms' recursive closure is a cycle of its own.
            gc.collect()
            gc.disable()
            try:
                # An AND whose pauses are serviced in place, or whose
                # service stashes an exception that is then re-raised.
                manager.set_alloc_tick(tick, interval=64)
                try:
                    manager.and_(*operands)
                except TimeoutError:
                    pass
                assert manager.kernel_services > 0
                ref = weakref.ref(manager)
                del manager
                assert ref() is None
            finally:
                if enabled:
                    gc.enable()


def _raise_timeout():
    raise TimeoutError("deadline")
