"""Exact edge-expansion engine v2 — bitset kernels and a sharded subset search.

The paper's ground truth for Lemma 4.3 / Corollary 4.4 is *exact* edge
expansion (Eq. 4) and exact small-set expansion ``h_s`` (Eq. 5).  The seed
enumerator materialized every subset mask and paid an O(E)-wide vectorized
boundary comparison per subset, which capped exact solves at 22 vertices.
This module rebuilds the machinery around three composable ideas:

* **Bitset-packed adjacency** — every vertex's undirected neighborhood is a
  row of packed ``uint64`` words (:attr:`repro.cdag.graph.CDAG.adjacency_bits`),
  so set intersections are word-ANDs + popcounts instead of fancy-indexed
  comparisons over the edge list.

* **Incremental (Gray-style) enumeration** — subsets are never re-scored
  from scratch.  The full scan builds boundary tables with the
  binary-reflected doubling recurrence (each doubling step flips exactly one
  vertex into every previously enumerated subset — the batched form of a
  Gray-code walk, costing O(1) amortized words per subset), and prunes with
  the branch-and-bound test ``boundary > d·|U|·h_best ⇒ skip``.

* **Prefix-sharded parallel search** — the subset space splits into
  prefix-fixed spans (high vertex bits fixed, low bits enumerated by the
  kernel).  Spans are independent, so they fan out over the shared worker
  pool with a shared running minimum for cross-shard pruning; the merge is
  a deterministic lexicographic ``(h, mask)`` reduction, so results are
  identical for every ``jobs`` value.

One scan context, :class:`_ScanCtx`, holds every table a full scan reads,
and its :meth:`~_ScanCtx.scan` runs one prefix span on either kernel:
``backend="bitset"`` runs the numpy kernel, ``backend="native"`` a small C
kernel (:mod:`repro.core._native`, one ``.c`` file compiled with the system
compiler at first use and loaded through ``ctypes``) that reads the same
low-block tables plus single-word packed rows.  :func:`_full_scan` is the
one driver for both: the same spans, pool fan-out and merge.  ``"auto"``
picks native whenever the compiled library is importable and the graph fits
single-word rows (n ≤ 64); when the compiler is missing or
``REPRO_NATIVE=0`` is set, everything silently falls back to the numpy
kernel — the native path is a pure accelerator, never a dependency, and its
``(h, mask)`` results are bit-identical to the bitset backend's for every
``jobs`` value.

Exact ``h_s`` additionally gets a *size-restricted walk*: a depth-first walk
over the ``C(n, ≤s)`` subsets of size at most ``s``, flipping one vertex
into the current set per step (O(1) Python-int bitset work, any ``n``),
which makes ``h_s`` of a 40-vertex graph a few thousand evaluations instead
of a ``2^40`` enumeration.  A cost model picks the walk or the full scan.

Together these lift the exactly-solvable regime from 22 (seed) to 28
(numpy kernel) to :data:`DEFAULT_EXACT_LIMIT` = 32 vertices with the
native kernel (override with the ``REPRO_EXACT_LIMIT`` environment variable,
read on every call, or the ``limit=`` parameter).  All kernels return
results bit-identical to the seed enumerator: the same ``h`` float and the
*smallest* minimizing subset mask.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
from typing import TYPE_CHECKING

import numpy as np

from repro.cdag.graph import CDAG
from repro.core import _native

if TYPE_CHECKING:
    from repro.engine.pool import SharedMinimum

__all__ = [
    "DEFAULT_EXACT_LIMIT",
    "COMB_SUBSET_LIMIT",
    "EXACT_BACKENDS",
    "effective_exact_limit",
    "native_backend_available",
    "exact_edge_expansion_v2",
    "exact_small_set_expansion_v2",
]

#: The policy-selected enumeration ceiling.  2^32 subsets through the native
#: kernel solve in seconds; the numpy fallback still handles the same space,
#: just slower (raise/lower via REPRO_EXACT_LIMIT for the machine at hand).
DEFAULT_EXACT_LIMIT = 32


def effective_exact_limit() -> int:
    """The enumeration ceiling in force *right now*.

    Reads ``REPRO_EXACT_LIMIT`` on every call, so policy decisions — and the
    cache keys derived from them — track the environment a test or sweep
    set after this module was first imported.
    """
    return int(os.environ.get("REPRO_EXACT_LIMIT", DEFAULT_EXACT_LIMIT))


#: Most subsets the size-restricted walk will visit (C(n, ≤s) must fit).
COMB_SUBSET_LIMIT = 1 << 24

#: The selectable enumeration backends (``"auto"`` picks native when the
#: compiled kernel is importable, bitset otherwise).
EXACT_BACKENDS = ("auto", "native", "bitset")

#: The native kernel packs each adjacency row into one uint64 word.
_NATIVE_MAX_VERTICES = 64


def native_backend_available() -> bool:
    """True when the compiled C kernel can back ``backend="native"`` runs."""
    return _native.native_available()


#: Low-block width: both kernels enumerate 2^_LOW_BITS subsets per prefix.
#: 16 keeps every scratch table L2-resident while leaving ≥ 2^(n-16)
#: prefixes to shard across processes.
_LOW_BITS = 16


def _adjacency_ints(src: CDAG | np.ndarray) -> list[int]:
    """Per-vertex undirected neighborhoods as arbitrary-width Python ints.

    Decodes packed ``uint64`` rows: a graph's :attr:`CDAG.adjacency_bits`
    (pass the graph) or the copy a pool worker reads from shared memory.
    """
    rows = src.adjacency_bits if isinstance(src, CDAG) else src
    out = []
    for row in rows:
        acc = 0
        for j in range(len(row) - 1, -1, -1):
            acc = (acc << 64) | int(row[j])
        out.append(acc)
    return out


def _mask_to_bool(mask: int, n: int) -> np.ndarray:
    bits = np.zeros(n, dtype=bool)
    v = mask
    while v:
        low = v & -v
        bits[low.bit_length() - 1] = True
        v ^= low
    return bits


# ---------------------------------------------------------------------- #
# the prefix-sharded full scan                                            #
# ---------------------------------------------------------------------- #


class _ScanCtx:
    """Every table one graph's full subset scan reads, for either kernel.

    The low block covers vertices ``0..b-1``; its per-subset size / internal
    cut tables are built once by the doubling recurrence and shared across
    every prefix (and, in parallel runs, rebuilt once per worker).  The numpy
    kernel also reads the high-side tables; a ``native`` context also packs
    the arrays the C kernel reads (one ``uint64`` word per row, n <= 64).
    """

    def __init__(
        self, adj: list[int], deg: list[int], d: int, n: int, limit: int, native: bool
    ) -> None:
        self.d = d
        self.n = n
        self.limit = limit
        self.b = b = min(n, _LOW_BITS)
        nlow = 1 << b
        # Doubling tables over the low block: step v extends the table by
        # flipping vertex v into every subset enumerated so far (the batched
        # Gray-code update), so sizes / cut boundaries cost O(1) per subset.
        sizes = np.zeros(nlow, dtype=np.uint8)  # |L|
        cut = np.zeros(nlow, dtype=np.int32)  # vol(L) - 2*e(L)
        for v in range(b):
            half = 1 << v
            # |N(v) ∩ L'| over the subsets L' ⊆ {0..v-1} enumerated so far
            inter = np.zeros(half, dtype=np.int32)
            row = adj[v]
            for u in range(v):
                q = 1 << u
                if (row >> u) & 1:
                    np.add(inter[:q], 1, out=inter[q : 2 * q])
                else:
                    inter[q : 2 * q] = inter[:q]
            np.add(sizes[:half], 1, out=sizes[half : 2 * half])
            np.add(cut[:half], deg[v], out=cut[half : 2 * half])
            cut[half : 2 * half] -= 2 * inter
        self.low_sizes = sizes
        self.low_cut = cut
        # High side (vertices b..n-1): per-vertex degree, adjacency among the
        # high vertices, and the bit matrix of edges into the low block.
        nh = n - b
        self.high_deg = [deg[b + j] for j in range(nh)]
        self.high_adj = [adj[b + j] >> b for j in range(nh)]
        rows_low = np.zeros((nh, b), dtype=np.int32)
        for j in range(nh):
            row = adj[b + j]
            for u in range(b):
                rows_low[j, u] = (row >> u) & 1
        self.rows_low = rows_low
        self.adj: np.ndarray | None = None
        self.deg: np.ndarray | None = None
        if native:
            self.adj = np.array(adj, dtype=np.uint64)
            self.deg = np.array(deg, dtype=np.int64)

    def scan(
        self,
        p_lo: int,
        p_hi: int,
        best: tuple[float, int],
        shared: SharedMinimum | None = None,
    ) -> tuple[float, int]:
        """Scan prefixes ``[p_lo, p_hi)``; returns the lexicographic best
        ``(h, mask)`` including the incoming ``best``.

        ``shared`` is the pool's cross-shard running minimum: it tightens the
        pruning threshold but never affects which candidate wins — the final
        reduction is by ``(h, mask)``.
        """
        if self.adj is not None:
            addr = None if shared is None else shared.addr()
            return _native_scan_span(self, p_lo, p_hi, best, addr)
        return _scan_span(self, p_lo, p_hi, best, shared)


def _seed_singletons(deg: list[int], d: int) -> tuple[float, int]:
    """The best singleton cut — a real enumeration candidate that seeds the
    running minimum so branch-and-bound prunes from the very first chunk."""
    best_r, best_m = math.inf, 0
    for v, dv in enumerate(deg):
        r = dv / d
        if r < best_r:
            best_r, best_m = r, 1 << v
    return best_r, best_m


def _scan_span(
    ctx: _ScanCtx,
    p_lo: int,
    p_hi: int,
    best: tuple[float, int],
    shared: SharedMinimum | None,
) -> tuple[float, int]:
    """The numpy kernel behind :meth:`_ScanCtx.scan`."""
    b, d, limit = ctx.b, ctx.d, ctx.limit
    nlow = 1 << b
    sizesL = ctx.low_sizes
    cutL = ctx.low_cut
    best_r, best_m = best
    scratch_s = np.empty(nlow, dtype=np.int32)
    scratch_b = np.empty(nlow, dtype=np.int32)
    # Integer pruning thresholds per prefix popcount, rebuilt when the
    # running minimum improves: a subset survives iff
    # boundary <= floor(h_best * d * |U|) + 1 — the +1 keeps exact ties (the
    # seed witness may sit at a larger mask than a tied candidate), and the
    # exact division below refilters the slack.
    thr: dict[int, np.ndarray] = {}
    thr_for = math.nan

    def _threshold(size_p: int, h_cap: float) -> np.ndarray:
        t = np.floor(h_cap * d * (size_p + sizesL.astype(np.float64))) + 1.0
        t = np.minimum(t, 2**31 - 1).astype(np.int32)
        over = np.flatnonzero(sizesL > limit - size_p)
        t[over] = -1
        if size_p == 0:
            t[0] = -1  # the empty set
        return t

    for p in range(p_lo, p_hi):
        js = []
        pp = p
        while pp:
            js.append((pp & -pp).bit_length() - 1)
            pp &= pp - 1
        size_p = len(js)
        if size_p > limit:
            continue
        h_cap = best_r
        if shared is not None:
            h_cap = min(h_cap, shared.value)
        if h_cap != thr_for:
            thr.clear()
            thr_for = h_cap
        tint = thr.get(size_p)
        if tint is None:
            tint = thr[size_p] = _threshold(size_p, h_cap)
        if js:
            base_p = sum(ctx.high_deg[j] for j in js)
            for j in js:
                base_p -= 2 * (ctx.high_adj[j] & (p & ((1 << j) - 1))).bit_count()
            wv = ctx.rows_low[js].sum(axis=0, dtype=np.int32)
        else:
            base_p = 0
            wv = None
        # Boundary of P ∪ L for every low subset L in one doubling sweep:
        # cross(P, L) = Σ_{v∈L} |N(v) ∩ P| is a weighted subset sum, built by
        # the same one-flip-per-step recurrence as the low tables.
        S = scratch_s
        S[0] = 0
        if wv is not None:
            half = 1
            for v in range(b):
                np.add(S[:half], wv[v], out=S[half : 2 * half])
                half *= 2
            np.multiply(S, -2, out=scratch_b)
            scratch_b += cutL
            if base_p:
                scratch_b += base_p
            bnd = scratch_b
        else:
            bnd = cutL
        hits = np.flatnonzero(bnd <= tint)
        if hits.size == 0:
            continue
        bb = bnd[hits].astype(np.int64)
        ss = d * (size_p + sizesL[hits].astype(np.int64))
        ratios = bb / ss
        j = int(np.argmin(ratios))
        r = float(ratios[j])
        m = (p << b) | int(hits[j])
        if r < best_r:
            best_r, best_m = r, m
            if shared is not None and r < shared.value:
                with shared.get_lock():
                    if r < shared.value:
                        shared.value = r
        elif r == best_r and m < best_m:
            best_m = m
    return best_r, best_m


def _native_scan_span(
    ctx: _ScanCtx,
    p_lo: int,
    p_hi: int,
    best: tuple[float, int],
    shared_addr: int | None,
) -> tuple[float, int]:
    """The C kernel behind :meth:`_ScanCtx.scan`: one call over the span."""
    assert ctx.adj is not None and ctx.deg is not None
    lib = _native.load()
    if lib is None:  # pragma: no cover - callers gate on availability first
        raise RuntimeError(
            "native exact backend unavailable: "
            f"{_native.native_build_error() or 'not loaded'}"
        )
    out_r = ctypes.c_double(math.inf)
    out_m = ctypes.c_uint64(0)
    rc = lib.repro_exact_scan(
        ctx.n,
        ctx.b,
        ctx.limit,
        ctx.d,
        ctx.adj.ctypes.data_as(ctypes.POINTER(ctypes.c_uint64)),
        ctx.deg.ctypes.data_as(ctypes.POINTER(ctypes.c_int64)),
        ctx.low_cut.ctypes.data_as(ctypes.POINTER(ctypes.c_int32)),
        ctx.low_sizes.ctypes.data_as(ctypes.POINTER(ctypes.c_uint8)),
        p_lo,
        p_hi,
        best[0],
        best[1],
        shared_addr,
        ctypes.byref(out_r),
        ctypes.byref(out_m),
    )
    if rc != 0:
        raise MemoryError("native exact scan could not allocate its scratch tables")
    return float(out_r.value), int(out_m.value)


# -- shared-pool span plumbing (spawn-safe module level) ----------------- #

_MASK64 = (1 << 64) - 1

#: The span task message: (shm name, context token, native, n, words-per-
#: row, d, limit, degree tuple, p_lo, p_hi).
_SpanMsg = tuple[str, str, bool, int, int, int, int, "tuple[int, ...]", int, int]


def _pool_scan_span(msg: _SpanMsg) -> tuple[float, int]:
    """One prefix span on a pool worker (or inline, under serial fallback).

    The message carries only scalars plus the name of the shared-memory
    segment holding the cross-shard running minimum (first 8 bytes) and
    the packed adjacency rows.  The scan context — the tables the kernel
    re-reads on every span — is installed once per (graph, backend)
    through the pool's worker context store and reused across all of that
    graph's spans, and across repeat scans of the same graph.
    """
    from repro.engine import pool as pool_runtime

    shm_name, token, native, n, w, d, limit, deg, p_lo, p_hi = msg
    shm = pool_runtime.attach_shm(shm_name)
    shared = pool_runtime.SharedMinimum(shm.buf)
    try:

        def _build() -> _ScanCtx:
            rows = np.frombuffer(shm.buf, dtype=np.uint64, count=n * w, offset=8)
            adj = _adjacency_ints(rows.reshape(n, w))
            return _ScanCtx(adj, list(deg), d, n, limit, native)

        ctx = pool_runtime.worker_ctx(token, _build)
        assert isinstance(ctx, _ScanCtx)
        return ctx.scan(p_lo, p_hi, (math.inf, 0), shared)
    finally:
        shared.close()
        try:
            shm.close()
        except BufferError:  # a lingering view export; GC finishes the close
            pass


def _pooled_span_scan(
    native: bool,
    adj: list[int],
    deg: list[int],
    d: int,
    n: int,
    limit: int,
    n_pref: int,
    jobs: int,
    best: tuple[float, int],
) -> tuple[float, int]:
    """Fan prefix spans over the shared pool; deterministic (h, mask) merge.

    One shared-memory segment per scan ships the bulk data zero-copy: the
    running minimum (seeded with the singleton best) followed by the packed
    adjacency rows.  Spans and merge order are identical to the serial
    scan, so results are bit-identical for every ``jobs`` value.
    """
    from repro.engine import pool as pool_runtime

    w = (n + 63) // 64
    spans = []
    n_spans = min(n_pref, jobs * 4)
    step = -(-n_pref // n_spans)
    for lo in range(0, n_pref, step):
        spans.append((lo, min(lo + step, n_pref)))
    shm = pool_runtime.create_shm(8 + n * w * 8)
    try:
        shared = pool_runtime.SharedMinimum(shm.buf)
        shared.value = best[0]
        rows = np.frombuffer(shm.buf, dtype=np.uint64, count=n * w, offset=8)
        rows = rows.reshape(n, w)
        for v, a in enumerate(adj):
            for j in range(w):
                rows[v, j] = (a >> (64 * j)) & _MASK64
        token = hashlib.sha256(
            repr((native, n, d, limit, tuple(deg))).encode() + rows.tobytes()
        ).hexdigest()
        msgs: list[_SpanMsg] = [
            (shm.name, token, native, n, w, d, limit, tuple(deg), lo, hi)
            for lo, hi in spans
        ]
        results = pool_runtime.submit_batch(
            _pool_scan_span, msgs, workers=jobs, chunksize=1
        )
        del rows
        shared.close()
        for r, m in results:
            if r < best[0] or (r == best[0] and m < best[1]):
                best = (r, m)
        return best
    finally:
        try:
            shm.close()
        except BufferError:
            pass
        shm.unlink()


def _span_jobs(jobs: int, n_pref: int) -> int:
    """Clamp the span fan-out: never more workers than prefixes, and serial
    whenever the shared pool cannot run workers (kill switch, fallback)."""
    jobs = max(1, min(jobs, n_pref))
    if jobs > 1:
        from repro.engine import pool as pool_runtime

        if not pool_runtime.pool_enabled():
            jobs = 1
    return jobs


def _full_scan(
    adj: list[int], deg: list[int], d: int, n: int, limit: int, jobs: int, native: bool
) -> tuple[float, int]:
    """Minimum-ratio cut over every subset of size ``1..limit``.

    The one driver for both kernels (the C kernel when ``native``, numpy
    otherwise): the same singleton seed, spans, pool fan-out and merge.
    """
    best = _seed_singletons(deg, d)
    n_pref = 1 << (n - min(n, _LOW_BITS))
    jobs = _span_jobs(jobs, n_pref)
    if jobs == 1:
        return _ScanCtx(adj, deg, d, n, limit, native).scan(0, n_pref, best)
    return _pooled_span_scan(native, adj, deg, d, n, limit, n_pref, jobs, best)


# ---------------------------------------------------------------------- #
# the size-restricted walk                                                #
# ---------------------------------------------------------------------- #


def _bounded_walk_py(
    adj: list[int], deg: list[int], d: int, n: int, s_max: int
) -> tuple[float, int]:
    """Size-restricted walk: DFS over the subsets of size ``1..s_max``.

    Python ints hold the masks, so any ``n`` works.  Each step flips exactly
    one vertex into the current set (the revolving-door idea: C(n, ≤s)
    states, O(1) bitset work per transition), so exact ``h_s`` never touches
    the 2^n space.  Ties go to the smallest mask, as in the full scan.
    """
    best_r, best_m = math.inf, 0

    def rec(start: int, cur: int, bnd: int, size: int) -> None:
        nonlocal best_r, best_m
        for v in range(start, n):
            nb = bnd + deg[v] - 2 * (adj[v] & cur).bit_count()
            nm = cur | (1 << v)
            ns = size + 1
            r = nb / (d * ns)
            if r < best_r or (r == best_r and nm < best_m):
                best_r, best_m = r, nm
            if ns < s_max:
                rec(v + 1, nm, nb, ns)

    rec(0, 0, 0, 0)
    return best_r, best_m


# ---------------------------------------------------------------------- #
# public façade                                                           #
# ---------------------------------------------------------------------- #


def _comb_subsets(n: int, s: int) -> int:
    return sum(math.comb(n, j) for j in range(1, s + 1))


def exact_edge_expansion_v2(
    g: CDAG,
    max_size: int | None = None,
    *,
    jobs: int = 1,
    limit: int | None = None,
    backend: str = "auto",
) -> tuple[float, np.ndarray]:
    """Exact ``h(G)`` (or ``h_s`` when ``max_size`` is given) — ``(h, mask)``.

    Bit-identical to the seed enumerator on every input it could solve: the
    same ``h`` and the smallest minimizing subset mask.  ``jobs > 1`` shards
    the subset space over processes (identical results for any ``jobs``).
    ``backend`` selects the full scan's kernel: ``"native"`` (the compiled C
    kernel) or ``"bitset"`` (the numpy kernel); ``"auto"`` picks native when the compiled
    library is importable and the graph fits single-word rows, bitset
    otherwise.  Both backends return bit-identical ``(h, mask)``.  When
    ``max_size`` makes the size-restricted walk the cheaper exact method,
    the walk runs for every backend and no kernel limit applies.
    """
    n = g.n_vertices
    if n < 2:
        raise ValueError("expansion undefined for graphs with < 2 vertices")
    # Per-call read: REPRO_EXACT_LIMIT flipped at runtime must move this gate
    # in lockstep with the auto-policy cache keys (which also call
    # effective_exact_limit()).
    lim = effective_exact_limit() if limit is None else limit
    if backend not in EXACT_BACKENDS:
        raise ValueError(f"unknown exact backend {backend!r}; choose from {EXACT_BACKENDS}")
    size_cap = n // 2 if max_size is None else min(max_size, n)
    if size_cap < 1:
        raise ValueError("max_size must be at least 1")
    d = g.max_degree
    if d == 0:
        # Edgeless graph: every ratio is 0/0; mirror the seed enumerator,
        # which reported NaN with the first singleton as witness.
        return math.nan, _mask_to_bool(1, n)
    adj = _adjacency_ints(g)
    deg = [int(x) for x in g.degree]

    restricted = max_size is not None
    comb_count = _comb_subsets(n, size_cap) if restricted else 0
    comb_feasible = restricted and comb_count <= COMB_SUBSET_LIMIT
    if n > lim:
        if not restricted:
            raise ValueError(
                f"exact enumeration limited to {lim} vertices; got {n} "
                "(pass max_size= for the size-restricted walk, or raise "
                "REPRO_EXACT_LIMIT)"
            )
        if not comb_feasible:
            raise ValueError(
                f"exact h_s infeasible: {n} vertices exceeds the enumeration "
                f"limit {lim} and C({n}, <={size_cap}) = {comb_count} exceeds "
                f"{COMB_SUBSET_LIMIT} subsets"
            )

    # Cost-based choice between the full doubling scan and the size-restricted
    # walk; both are exact and tie-break identically, so this is pure perf.
    # (The walk serves every backend — the kernels only run the full scan,
    # so only the full scan checks that the named kernel can run.)
    use_comb = comb_feasible and (n > lim or comb_count * n < (1 << n))
    if use_comb:
        r, m = _bounded_walk_py(adj, deg, d, n, size_cap)
    else:
        if backend == "native":
            if n > _NATIVE_MAX_VERTICES:
                raise ValueError(
                    f"native backend packs rows into single uint64 words "
                    f"(n <= {_NATIVE_MAX_VERTICES}); got {n}"
                )
            if not _native.native_available():
                raise RuntimeError(
                    "native exact backend unavailable "
                    f"({_native.native_build_error() or 'compile not attempted'}); "
                    'use backend="bitset" or fix the C toolchain'
                )
        native = backend == "native" or (
            backend == "auto" and n <= _NATIVE_MAX_VERTICES and _native.native_available()
        )
        r, m = _full_scan(adj, deg, d, n, size_cap, jobs, native)
    return r, _mask_to_bool(m, n)


def exact_small_set_expansion_v2(
    g: CDAG, s: int, *, jobs: int = 1, limit: int | None = None
) -> tuple[float, np.ndarray]:
    """Exact ``h_s(G)`` (Eq. 5) with its witness, via the size-restricted walk.

    Feasible far beyond the full-enumeration limit: a 40-vertex graph at
    ``s=3`` costs ``C(40, ≤3) ≈ 10^4`` evaluations, not ``2^40``.
    """
    return exact_edge_expansion_v2(g, max_size=s, jobs=jobs, limit=limit)
