"""Native kernel over the v3 packed BDD tables.

The v3 manager stores nodes and tables in flat ``array`` buffers
precisely so that the innermost apply loops stop being interpreter
work.  This module compiles a small C kernel (via :mod:`cffi` in ABI
mode with the system C compiler — both ship with the container; there
is nothing to install) that runs the ``AND``/``XOR``/``ITE``
recursions directly over those buffers: the same unique table, the
same computed cache, the same complement-edge normalization, byte for
byte the same table layout as the pure-Python loops in
``repro.bdd.manager``.  Python and C interoperate on one set of
tables — a cache entry written by either side hits in the other.

**Pauses serviced in place.**  The apply recursions allocate nodes
only from the free list.  Where the manager's Python allocator
(``_fresh``) would act, the kernel pauses and calls back into Python
through the context's ``service`` pointer: before an insert when the
free list is empty (extend the columns), right after it when the
unique table passes load 0.5 (grow it, and the computed cache with it)
or the allocation budget, the countdown to the next allocation tick,
runs out (fire the tick).  The service rebinds the context to the new
tables, and the recursion re-reads them and continues where it
stopped; ``AND``/``XOR``/``ITE`` re-mask their cache hash after
recursing, since the cache may have been resized meanwhile.  So both
paths make the same table and cache traffic, and every policy
decision, such as deadlines, GC thresholds or when to grow, stays in
Python, where the rest of the repo can observe it.  Three cases unwind
the recursion, returning ``-1``.  A service that raises (a deadline or
cancellation from the tick) is stashed and re-raised once the kernel
has returned, because an exception cannot cross the C frames.  Auto-GC
needs the roots, and the C frames are invisible to Python's stack
scan, so the kernel unwinds at the GC threshold and the manager
collects and replays the call.  A NULL ``service`` (no callback could
be created) makes every pause unwind and replay that way.

**Table bookkeeping.**  The loops that service those decisions are
kernel routines too, each the twin of a pure-Python loop in the
manager: the unique-table rehash (``_grow_utab``) and rebuild
(``_rebuild_utab``), free-list threading (``_extend_free``), the mark
phase shared by ``gc`` and ``compact`` (a bitmap, one bit per node),
the GC sweep, and compaction's copy into fresh exactly sized columns
with nodes renumbered by their rank in the bitmap.  They visit slots
and nodes in the same order with the same hashes as the Python loops,
so both produce byte-identical tables, columns and edges.  Python
still allocates every column and table, so array ownership and
resizing stay on one side.

**Answer extraction.**  ``bdd_models`` is the twin of the manager's
``_models_py``: one call counts an edge's models over a list of levels
(memoized per edge in a private hash map, 64-bit, with overflow
reported so the manager can fall back to Python's exact integers) and
writes a window of them, in lexicographic order with skipped levels
expanded, as rows of select codes into a buffer the caller allocates.
It only reads the node columns, so it needs no pause protocol.

**Gating.**  ``load_kernel()`` memoizes a build attempt; if ``cffi``
or a C compiler is missing, or ``REPRO_BDD_KERNEL=0`` is set, it
returns ``None`` and the manager falls back to the pure-Python
iterative loops with identical semantics.  The compiled library is
cached under ``_kcache/`` next to this file (gitignored) keyed by a
hash of the C source, so the one-time compile cost is paid per source
revision, not per process.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from typing import Any, Optional, Tuple

__all__ = ["load_kernel", "kernel_available"]

# Layout must match the manager's tables exactly: var is an ``array('i')``
# of levels (-1 terminal, -2 free), utab an ``array('i')`` of node
# indices (int32 — the store is capped at 2**31 nodes, ~43 GB of
# columns, long past any feasible run), lo/hi/ck*/cres ``array('q')``.
# Hash constants mirror repro.bdd.manager; all products stay far below
# 2**64, so Python's arbitrary-precision arithmetic and C's uint64
# compute identical slots.
_CDEF = """
typedef struct {
    int32_t *var;
    int64_t *lo;
    int64_t *hi;
    int32_t *utab;
    int64_t umask;
    int64_t *ck1;
    int64_t *ck2;
    int64_t *ck3;
    int64_t *cres;
    int64_t cmask;
    int64_t gen;
    int64_t freehead;
    int64_t live;
    int64_t ucount;
    int64_t centries;
    int64_t budget;
    int64_t gclimit;
    int64_t hits;
    int64_t misses;
    int (*service)(void *, int);
    void *owner;
} BddCtx;

int64_t bdd_and(BddCtx *c, int64_t f, int64_t g);
int64_t bdd_xor(BddCtx *c, int64_t f, int64_t g);
int64_t bdd_ite(BddCtx *c, int64_t f, int64_t g, int64_t h);
void bdd_utab_rehash(const int32_t *old, int64_t oldsize, int32_t *utab,
                     int64_t mask, const int32_t *var, const int64_t *lo,
                     const int64_t *hi);
int64_t bdd_utab_rebuild(int32_t *utab, int64_t mask, const int32_t *var,
                         const int64_t *lo, const int64_t *hi, int64_t nvals);
void bdd_thread_free(int32_t *var, int64_t *lo, int64_t *hi, int64_t base,
                     int64_t count, int64_t tail);
int64_t bdd_mark(const int32_t *var, const int64_t *lo, const int64_t *hi,
                 int64_t nvals, const int64_t *roots, int64_t nroots,
                 uint64_t *bits);
int64_t bdd_sweep(int32_t *var, int64_t *lo, int64_t *hi, int64_t nvals,
                  const uint64_t *bits, int64_t *freehead);
int64_t bdd_compact_copy(const int32_t *var, const int64_t *lo,
                         const int64_t *hi, int64_t nvals,
                         const uint64_t *bits, int32_t *nvar, int64_t *nlo,
                         int64_t *nhi, int64_t *edges, int64_t nedges);
int64_t bdd_models(const int32_t *var, const int64_t *lo, const int64_t *hi,
                   const int32_t *pos, int64_t k, int64_t width, int64_t f,
                   int64_t start, int64_t cap, int32_t *rows,
                   uint64_t *count);
"""

_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>

typedef struct {
    int32_t *var;
    int64_t *lo;
    int64_t *hi;
    int32_t *utab;
    int64_t umask;
    int64_t *ck1;
    int64_t *ck2;
    int64_t *ck3;
    int64_t *cres;
    int64_t cmask;
    int64_t gen;
    int64_t freehead;
    int64_t live;
    int64_t ucount;
    int64_t centries;
    int64_t budget;
    int64_t gclimit;
    int64_t hits;
    int64_t misses;
    int (*service)(void *, int);
    void *owner;
} BddCtx;

#define UHASH(l, h, v, mask) (((uint64_t)(l) * 10000019u \
        + (uint64_t)(h) * 8388617u + (uint64_t)(v)) & (uint64_t)(mask))
#define CHASH(f, g) (((uint64_t)(f) * 40503u) ^ ((uint64_t)(g) * 10000019u))

/* Hand a pause to the manager's service function: 0 means serviced
 * (tables may have moved, so callers re-read the context), nonzero means
 * unwind.  A NULL service always unwinds. */
static int pause(BddCtx *c, int after_insert)
{
    return c->service ? c->service(c->owner, after_insert) : -1;
}

/* Hash-consed node constructor; mirrors BddManager._mk_level/_fresh.
 * Pauses where _fresh acts: an empty free list before the insert, table
 * growth and the allocation tick (``budget`` counts down to it) right
 * after.  Returns the edge, or -1 to unwind: the live count reached the
 * auto-GC limit (collection needs Python's view of the roots, so the
 * call is replayed after it), or a pause was not serviced in place. */
static int64_t mk(BddCtx *c, int64_t level, int64_t lo, int64_t hi)
{
    int64_t comp, n;
    uint64_t slot;
    if (lo == hi)
        return lo;
    comp = hi & 1;
    if (comp) {
        lo ^= 1;
        hi ^= 1;
    }
    for (;;) {
        slot = UHASH(lo, hi, level, c->umask);
        while ((n = c->utab[slot]) != 0) {
            if (c->lo[n] == lo && c->hi[n] == hi
                    && c->var[n] == (int32_t)level)
                return (n << 1) | comp;
            slot = (slot + 1) & (uint64_t)c->umask;
        }
        if (c->live >= c->gclimit)
            return -1;
        if (c->freehead)
            break;
        if (pause(c, 0))
            return -1;
    }
    n = c->freehead;
    c->freehead = c->lo[n];
    c->var[n] = (int32_t)level;
    c->lo[n] = lo;
    c->hi[n] = hi;
    c->utab[slot] = (int32_t)n;
    c->ucount++;
    c->live++;
    if ((--c->budget <= 0 || (c->ucount << 1) > c->umask) && pause(c, 1))
        return -1;
    return (n << 1) | comp;
}

int64_t bdd_and(BddCtx *c, int64_t f, int64_t g)
{
    int64_t t, fi, gi, f0, f1, g0, g1, rlo, rhi, res;
    int32_t lf, lg, level;
    uint64_t hash, slot;
    if (f == g)
        return f;
    if (f > g) {
        t = f;
        f = g;
        g = t;
    }
    if (f == 0)
        return 0;
    if (f == 1)
        return g;
    if ((f ^ g) == 1)
        return 0;
    hash = CHASH(f, g);
    slot = hash & (uint64_t)c->cmask;
    if (c->ck1[slot] == ((f << 2) | 1) && c->ck2[slot] == ((g << 16) | c->gen)) {
        c->hits++;
        return c->cres[slot];
    }
    fi = f >> 1;
    gi = g >> 1;
    lf = c->var[fi];
    lg = c->var[gi];
    level = lf < lg ? lf : lg;
    if (lf == level) {
        t = f & 1;
        f0 = c->lo[fi] ^ t;
        f1 = c->hi[fi] ^ t;
    } else {
        f0 = f1 = f;
    }
    if (lg == level) {
        t = g & 1;
        g0 = c->lo[gi] ^ t;
        g1 = c->hi[gi] ^ t;
    } else {
        g0 = g1 = g;
    }
    rlo = bdd_and(c, f0, g0);
    if (rlo < 0)
        return -1;
    rhi = bdd_and(c, f1, g1);
    if (rhi < 0)
        return -1;
    res = mk(c, level, rlo, rhi);
    if (res < 0)
        return -1;
    slot = hash & (uint64_t)c->cmask;  /* a pause may have resized the cache */
    if ((c->ck2[slot] & 0xFFFF) != c->gen)
        c->centries++;
    c->ck1[slot] = (f << 2) | 1;
    c->ck2[slot] = (g << 16) | c->gen;
    c->cres[slot] = res;
    c->misses++;
    return res;
}

int64_t bdd_xor(BddCtx *c, int64_t f, int64_t g)
{
    int64_t t, comp, fi, gi, f0, f1, g0, g1, rlo, rhi, res;
    int32_t lf, lg, level;
    uint64_t hash, slot;
    comp = (f ^ g) & 1;
    f &= ~(int64_t)1;
    g &= ~(int64_t)1;
    if (f == g)
        return comp;
    if (f > g) {
        t = f;
        f = g;
        g = t;
    }
    if (f == 0)
        return g ^ comp;
    hash = CHASH(f, g);
    slot = hash & (uint64_t)c->cmask;
    if (c->ck1[slot] == ((f << 2) | 2) && c->ck2[slot] == ((g << 16) | c->gen)) {
        c->hits++;
        return c->cres[slot] ^ comp;
    }
    fi = f >> 1;
    gi = g >> 1;
    lf = c->var[fi];
    lg = c->var[gi];
    level = lf < lg ? lf : lg;
    if (lf == level) {
        f0 = c->lo[fi];
        f1 = c->hi[fi];
    } else {
        f0 = f1 = f;
    }
    if (lg == level) {
        g0 = c->lo[gi];
        g1 = c->hi[gi];
    } else {
        g0 = g1 = g;
    }
    rlo = bdd_xor(c, f0, g0);
    if (rlo < 0)
        return -1;
    rhi = bdd_xor(c, f1, g1);
    if (rhi < 0)
        return -1;
    res = mk(c, level, rlo, rhi);
    if (res < 0)
        return -1;
    slot = hash & (uint64_t)c->cmask;  /* a pause may have resized the cache */
    if ((c->ck2[slot] & 0xFFFF) != c->gen)
        c->centries++;
    c->ck1[slot] = (f << 2) | 2;
    c->ck2[slot] = (g << 16) | c->gen;
    c->cres[slot] = res;
    c->misses++;
    return res ^ comp;
}

int64_t bdd_ite(BddCtx *c, int64_t f, int64_t g, int64_t h)
{
    int64_t t, fi, gi, hi_i, comp, f0, f1, g0, g1, h0, h1, rlo, rhi, res;
    int32_t level, lv;
    uint64_t hash, slot;
    if (f == 1)
        return g;
    if (f == 0)
        return h;
    if (g == h)
        return g;
    if (f & 1) {
        f ^= 1;
        t = g;
        g = h;
        h = t;
    }
    if (g == f)
        g = 1;
    else if (g == (f ^ 1))
        g = 0;
    if (h == f)
        h = 0;
    else if (h == (f ^ 1))
        h = 1;
    if (g == h)
        return g;
    if (g == 1) {
        if (h == 0)
            return f;
        res = bdd_and(c, f ^ 1, h ^ 1);
        return res < 0 ? -1 : res ^ 1;
    }
    if (g == 0) {
        if (h == 1)
            return f ^ 1;
        return bdd_and(c, f ^ 1, h);
    }
    if (h == 0)
        return bdd_and(c, f, g);
    if (h == 1) {
        res = bdd_and(c, f, g ^ 1);
        return res < 0 ? -1 : res ^ 1;
    }
    if (g == (h ^ 1)) {
        return bdd_xor(c, f, h);
    }
    comp = g & 1;
    if (comp) {
        g ^= 1;
        h ^= 1;
    }
    hash = CHASH(f, g) ^ ((uint64_t)h * 97u);
    slot = hash & (uint64_t)c->cmask;
    if (c->ck1[slot] == ((f << 2) | 3) && c->ck2[slot] == ((g << 16) | c->gen)
            && c->ck3[slot] == h) {
        c->hits++;
        return c->cres[slot] ^ comp;
    }
    fi = f >> 1;
    gi = g >> 1;
    hi_i = h >> 1;
    level = c->var[fi];
    lv = c->var[gi];
    if (lv < level)
        level = lv;
    lv = c->var[hi_i];
    if (lv < level)
        level = lv;
    if (c->var[fi] == level) {
        f0 = c->lo[fi];
        f1 = c->hi[fi];
    } else {
        f0 = f1 = f;
    }
    if (c->var[gi] == level) {
        g0 = c->lo[gi];
        g1 = c->hi[gi];
    } else {
        g0 = g1 = g;
    }
    if (c->var[hi_i] == level) {
        t = h & 1;
        h0 = c->lo[hi_i] ^ t;
        h1 = c->hi[hi_i] ^ t;
    } else {
        h0 = h1 = h;
    }
    rlo = bdd_ite(c, f0, g0, h0);
    if (rlo < 0)
        return -1;
    rhi = bdd_ite(c, f1, g1, h1);
    if (rhi < 0)
        return -1;
    res = mk(c, level, rlo, rhi);
    if (res < 0)
        return -1;
    slot = hash & (uint64_t)c->cmask;  /* a pause may have resized the cache */
    if ((c->ck2[slot] & 0xFFFF) != c->gen)
        c->centries++;
    c->ck1[slot] = (f << 2) | 3;
    c->ck2[slot] = (g << 16) | c->gen;
    c->ck3[slot] = h;
    c->cres[slot] = res;
    c->misses++;
    return res ^ comp;
}

/* ---- table bookkeeping ------------------------------------------------
 * Each routine below mirrors one pure-Python loop in BddManager and walks
 * slots and nodes in the same order with the same hash, so both produce
 * byte-identical tables and columns. */

#define MARKED(bits, i) (((bits)[(i) >> 6] >> ((i) & 63)) & 1u)

/* _grow_utab: re-insert every occupied slot of ``old``, in slot order,
 * into the zeroed table ``utab``. */
void bdd_utab_rehash(const int32_t *old, int64_t oldsize, int32_t *utab,
                     int64_t mask, const int32_t *var, const int64_t *lo,
                     const int64_t *hi)
{
    int64_t i;
    int32_t n;
    uint64_t slot;
    for (i = 0; i < oldsize; i++) {
        n = old[i];
        if (!n)
            continue;
        slot = UHASH(lo[n], hi[n], var[n], mask);
        while (utab[slot])
            slot = (slot + 1) & (uint64_t)mask;
        utab[slot] = n;
    }
}

/* _rebuild_utab: insert every live node, in index order, into the
 * zeroed table ``utab``; returns the number inserted. */
int64_t bdd_utab_rebuild(int32_t *utab, int64_t mask, const int32_t *var,
                         const int64_t *lo, const int64_t *hi, int64_t nvals)
{
    int64_t n, count = 0;
    uint64_t slot;
    for (n = 1; n < nvals; n++) {
        if (var[n] < 0)
            continue;
        slot = UHASH(lo[n], hi[n], var[n], mask);
        while (utab[slot])
            slot = (slot + 1) & (uint64_t)mask;
        utab[slot] = (int32_t)n;
        count++;
    }
    return count;
}

/* _extend_free: thread the ``count`` fresh slots from ``base`` onto the
 * free list in index order, the last one pointing at ``tail``. */
void bdd_thread_free(int32_t *var, int64_t *lo, int64_t *hi, int64_t base,
                     int64_t count, int64_t tail)
{
    int64_t i, end = base + count;
    for (i = base; i < end; i++) {
        var[i] = -2;
        lo[i] = i + 1;
        hi[i] = 0;
    }
    lo[end - 1] = tail;
}

/* Mark phase shared by gc() and compact(): set the bit of the terminal
 * and of every live node reachable from the root *node indices* (out of
 * range and free indices are skipped, as the conservative scan needs).
 * ``bits`` must be zeroed, one bit per node.  Returns the number of
 * marked nodes including the terminal, or -1 when out of memory. */
int64_t bdd_mark(const int32_t *var, const int64_t *lo, const int64_t *hi,
                 int64_t nvals, const int64_t *roots, int64_t nroots,
                 uint64_t *bits)
{
    int64_t cap = 1024, top = 0, count = 1, r, i, c, k;
    int32_t *stack = malloc((size_t)cap * sizeof(int32_t)), *grown;
    if (!stack)
        return -1;
    bits[0] |= 1u;
    for (r = 0; r <= nroots; r++) {
        if (r < nroots) {
            i = roots[r];
            if (i <= 0 || i >= nvals || var[i] < 0 || MARKED(bits, i))
                continue;
            bits[i >> 6] |= (uint64_t)1 << (i & 63);
            count++;
            stack[top++] = (int32_t)i;
        }
        while (top) {
            i = stack[--top];
            for (k = 0; k < 2; k++) {
                c = (k ? hi[i] : lo[i]) >> 1;
                if (c <= 0 || c >= nvals || var[c] < 0 || MARKED(bits, c))
                    continue;
                bits[c >> 6] |= (uint64_t)1 << (c & 63);
                count++;
                if (top == cap) {
                    cap <<= 1;
                    grown = realloc(stack, (size_t)cap * sizeof(int32_t));
                    if (!grown) {
                        free(stack);
                        return -1;
                    }
                    stack = grown;
                }
                stack[top++] = (int32_t)c;
            }
        }
    }
    free(stack);
    return count;
}

/* gc() sweep: thread every unmarked live node onto the free list, in
 * index order; returns the number freed and updates ``*freehead``. */
int64_t bdd_sweep(int32_t *var, int64_t *lo, int64_t *hi, int64_t nvals,
                  const uint64_t *bits, int64_t *freehead)
{
    int64_t i, freed = 0, head = *freehead;
    for (i = 1; i < nvals; i++) {
        if (var[i] < 0 || MARKED(bits, i))
            continue;
        var[i] = -2;
        lo[i] = head;
        hi[i] = 0;
        head = i;
        freed++;
    }
    *freehead = head;
    return freed;
}

/* compact() copy: marked nodes keep their relative order and are
 * renumbered by rank (marked nodes below them, from a per-word popcount
 * prefix); children and the ``edges`` array (roots and protected refs,
 * remapped in place) are translated the same way.  The new columns must
 * hold exactly the marked count.  Returns 0, or -1 when out of memory. */
int64_t bdd_compact_copy(const int32_t *var, const int64_t *lo,
                         const int64_t *hi, int64_t nvals,
                         const uint64_t *bits, int32_t *nvar, int64_t *nlo,
                         int64_t *nhi, int64_t *edges, int64_t nedges)
{
    int64_t words = (nvals + 63) >> 6, w, i, j = 0, acc = 0;
    int64_t *rank = malloc((size_t)(words ? words : 1) * sizeof(int64_t));
    uint64_t b;
    if (!rank)
        return -1;
    for (w = 0; w < words; w++) {
        rank[w] = acc;
        acc += __builtin_popcountll(bits[w]);
    }
#define REMAP(e) (((rank[(e) >> 7] + __builtin_popcountll(bits[(e) >> 7] \
        & (((uint64_t)1 << (((e) >> 1) & 63)) - 1))) << 1) | ((e) & 1))
    for (w = 0; w < words; w++) {
        b = bits[w];
        while (b) {
            i = (w << 6) + __builtin_ctzll(b);
            b &= b - 1;
            nvar[j] = var[i];
            if (i) {
                nlo[j] = REMAP(lo[i]);
                nhi[j] = REMAP(hi[i]);
            } else {
                nlo[j] = 0;
                nhi[j] = 0;
            }
            j++;
        }
    }
    for (i = 0; i < nedges; i++)
        edges[i] = REMAP(edges[i]);
#undef REMAP
    free(rank);
    return 0;
}

/* ---- answer extraction -------------------------------------------------
 * The twin of BddManager._models_py: one call counts the models of an
 * edge over a list of k levels and writes a window of them as rows of
 * select codes. */

#define MODELS_OVERFLOW 1
#define MODELS_UNLISTED 2
#define MODELS_NOMEM 4
#define MHASH(e, mask) ((((uint64_t)(e) * 0x9E3779B97F4A7C15ull) >> 29) \
        & (uint64_t)(mask))

typedef struct {
    const int32_t *var;
    const int64_t *lo;
    const int64_t *hi;
    const int32_t *pos;
    int64_t k;
    int64_t *keys;      /* memo, open addressed: edge (0 = empty) -> count */
    uint64_t *vals;
    int64_t mask;
    int64_t used;
    int flags;
} Models;

/* Position of an edge's top level in the list; k for the terminals. */
static int64_t model_pos(Models *m, int64_t e)
{
    int64_t p;
    if (e < 2)
        return m->k;
    p = m->pos[m->var[e >> 1]];
    if (p < 0)
        m->flags |= MODELS_UNLISTED;
    return p;
}

static int memo_grow(Models *m)
{
    int64_t size = (m->mask + 1) << 1, i;
    uint64_t slot;
    int64_t *keys = calloc((size_t)size, sizeof(int64_t));
    uint64_t *vals = malloc((size_t)size * sizeof(uint64_t));
    if (!keys || !vals) {
        free(keys);
        free(vals);
        m->flags |= MODELS_NOMEM;
        return -1;
    }
    for (i = 0; i <= m->mask; i++) {
        if (!m->keys[i])
            continue;
        slot = MHASH(m->keys[i], size - 1);
        while (keys[slot])
            slot = (slot + 1) & (uint64_t)(size - 1);
        keys[slot] = m->keys[i];
        vals[slot] = m->vals[i];
    }
    free(m->keys);
    free(m->vals);
    m->keys = keys;
    m->vals = vals;
    m->mask = size - 1;
    return 0;
}

/* Models of ``e`` over positions model_pos(e)..k-1, memoized per edge (a
 * node and its complement count differently).  Sets MODELS_OVERFLOW when
 * a count passes 2**64 - 1; every reachable edge counts at most the total,
 * so that happens exactly when the total does. */
static uint64_t model_count(Models *m, int64_t e)
{
    int64_t n, comp, child, p, shift, side;
    uint64_t slot, c, total = 0;
    if (e < 2)
        return (uint64_t)e;
    slot = MHASH(e, m->mask);
    while (m->keys[slot]) {
        if (m->keys[slot] == e)
            return m->vals[slot];
        slot = (slot + 1) & (uint64_t)m->mask;
    }
    n = e >> 1;
    comp = e & 1;
    p = model_pos(m, e);
    for (side = 0; side < 2; side++) {
        child = (side ? m->hi[n] : m->lo[n]) ^ comp;
        shift = model_pos(m, child) - p - 1;
        if (m->flags & (MODELS_UNLISTED | MODELS_NOMEM))
            return 0;
        c = model_count(m, child);
        if (!c)
            continue;
        if (shift >= 64 || c > (UINT64_MAX >> shift))
            m->flags |= MODELS_OVERFLOW;
        else if (__builtin_add_overflow(total, c << shift, &total))
            m->flags |= MODELS_OVERFLOW;
    }
    if (((m->used + 1) << 1) > m->mask && memo_grow(m))
        return 0;
    slot = MHASH(e, m->mask);  /* the recursion may have grown the memo */
    while (m->keys[slot])
        slot = (slot + 1) & (uint64_t)m->mask;
    m->keys[slot] = e;
    m->vals[slot] = total;
    m->used++;
    return total;
}

/* Count the models of ``f`` over the k listed levels (``pos`` maps a
 * level to its position in the list, -1 when unlisted; positions rise
 * with the level) into count[0], with count[1] = 1 when the count does
 * not fit 64 bits.  Then write rows start .. start + cap - 1 of the
 * enumeration: models in lexicographic order of the positions, low branch
 * first, levels the diagram skips expanded; a row is k / width codes, each
 * packing ``width`` consecutive positions' values MSB first.  Returns the
 * number of rows written, -1 when out of memory, or -2 when ``f`` tests a
 * level that is not listed. */
int64_t bdd_models(const int32_t *var, const int64_t *lo, const int64_t *hi,
                   const int32_t *pos, int64_t k, int64_t width, int64_t f,
                   int64_t start, int64_t cap, int32_t *rows,
                   uint64_t *count)
{
    Models m = {var, lo, hi, pos, k, NULL, NULL, 63, 0, 0};
    int64_t ncodes = k / width, top, p, e, child, g, seen = 0, written = 0;
    int64_t *edge;
    char *branch;
    int32_t *code, bit, side;
    uint64_t total;
    m.keys = calloc(64, sizeof(int64_t));
    m.vals = malloc(64 * sizeof(uint64_t));
    if (!m.keys || !m.vals)
        m.flags |= MODELS_NOMEM;
    top = model_pos(&m, f);
    total = m.flags ? 0 : model_count(&m, f);
    if (total && (top >= 64 || total > (UINT64_MAX >> top)))
        m.flags |= MODELS_OVERFLOW;
    count[0] = total << (top < 64 ? top : 0);
    count[1] = (m.flags & MODELS_OVERFLOW) != 0;
    free(m.keys);
    free(m.vals);
    if (m.flags & MODELS_NOMEM)
        return -1;
    if (m.flags & MODELS_UNLISTED)
        return -2;
    if (f == 0 || cap <= 0)
        return 0;
    edge = malloc((size_t)(k + 1) * sizeof(int64_t));
    branch = malloc((size_t)(k + 1));
    code = calloc((size_t)(ncodes + 1), sizeof(int32_t));
    if (!edge || !branch || !code) {
        free(edge);
        free(branch);
        free(code);
        return -1;
    }
    p = 0;
    edge[0] = f;
    branch[0] = 0;
    while (p >= 0) {
        if (p == k) {  /* edge[k] is TRUE: one model */
            if (seen++ >= start) {
                for (g = 0; g < ncodes; g++)
                    rows[written * ncodes + g] = code[g];
                if (++written == cap)
                    break;
            }
            p--;
            continue;
        }
        if (branch[p] == 2) {
            p--;
            continue;
        }
        side = branch[p]++;
        e = edge[p];
        if (e > 1 && pos[var[e >> 1]] == p)
            child = (side ? hi[e >> 1] : lo[e >> 1]) ^ (e & 1);
        else
            child = e;  /* the diagram skips this level */
        if (child == 0)
            continue;
        g = p / width;
        bit = (int32_t)1 << (width - 1 - p % width);
        code[g] = side ? (code[g] | bit) : (code[g] & ~bit);
        edge[p + 1] = child;
        branch[p + 1] = 0;
        p++;
    }
    free(edge);
    free(branch);
    free(code);
    return written;
}
"""

_kernel: Tuple[Optional[Any], Optional[Any], Optional[Any]] = (None, None, None)
_attempted = False


def _cache_dir() -> str:
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kcache")


def _build() -> Optional[Tuple[Any, Any, Any]]:
    if os.environ.get("REPRO_BDD_KERNEL", "1") == "0":
        return None
    from array import array
    if array("i").itemsize != 4 or array("q").itemsize != 8:
        return None  # exotic ABI; the table layout assumption fails
    try:
        import cffi
    except ImportError:
        return None
    digest = hashlib.sha256(_SOURCE.encode()).hexdigest()[:16]
    directory = _cache_dir()
    so_path = os.path.join(directory, f"bddkernel_{digest}.so")
    if not os.path.exists(so_path):
        try:
            os.makedirs(directory, exist_ok=True)
            with tempfile.TemporaryDirectory(dir=directory) as tmp:
                c_path = os.path.join(tmp, "kernel.c")
                with open(c_path, "w") as handle:
                    handle.write(_SOURCE)
                tmp_so = os.path.join(tmp, "kernel.so")
                cc = os.environ.get("CC", "cc")
                subprocess.run(
                    [cc, "-O2", "-shared", "-fPIC", "-o", tmp_so, c_path],
                    check=True, capture_output=True, timeout=120)
                # Atomic publish so concurrent processes race safely.
                os.replace(tmp_so, so_path)
        except (OSError, subprocess.SubprocessError):
            return None
    try:
        ffi = cffi.FFI()
        ffi.cdef(_CDEF)
        lib = ffi.dlopen(so_path)
    except (OSError, cffi.FFIError, cffi.CDefError):
        return None
    return ffi, lib, _service_callback(ffi)


def _service_callback(ffi: Any) -> Any:
    """The process's one pause-service callback, or ``ffi.NULL``.

    A context's ``owner`` is a handle to a weak reference to its
    manager, so the callback keeps no manager alive.  Where the
    platform refuses to create callbacks (no writable-executable
    memory), NULL makes every pause unwind to ``_kernel_op`` instead.
    """
    def service(owner: Any, after_insert: int) -> int:
        # The manager is alive: its _kernel_op is the kernel's caller.
        return ffi.from_handle(owner)()._kernel_service(after_insert)

    try:
        return ffi.callback("int(void *, int)", service, error=-1)
    except MemoryError:
        return ffi.NULL


def load_kernel() -> Tuple[Optional[Any], Optional[Any], Optional[Any]]:
    """Return ``(ffi, lib, service)`` for the compiled kernel.

    ``service`` is the pause-service callback every manager's context
    shares (``ffi.NULL`` where callbacks are unavailable).  Without a
    kernel all three are ``None``: the build attempt is memoized per
    process, and failures (no compiler, no cffi, opt-out via
    ``REPRO_BDD_KERNEL=0``) degrade silently to the pure-Python loops.
    """
    global _kernel, _attempted
    if not _attempted:
        _attempted = True
        built = _build()
        if built is not None:
            _kernel = built
    return _kernel


def kernel_available() -> bool:
    return load_kernel()[0] is not None
