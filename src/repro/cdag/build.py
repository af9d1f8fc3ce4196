"""Incremental CDAG builder.

A tiny append-only tape of vertices and edges; the recursive constructors in
:mod:`repro.cdag.strassen_cdag` and the tracing machinery use it and then
``freeze()`` into the immutable :class:`~repro.cdag.graph.CDAG`.
"""

from __future__ import annotations

import numpy as np

from repro.cdag.graph import CDAG, VertexKind

__all__ = ["GraphBuilder", "layered_circulant_cdag"]


def layered_circulant_cdag(n: int, offsets: tuple[int, ...] = (1, 3, 7)) -> CDAG:
    """A deterministic ``n``-vertex benchmark DAG: edges ``i → i+δ``.

    The acyclic analogue of a circulant graph — connected (via ``δ=1``),
    near-regular, and parameterized purely by ``n``, so the exact-expansion
    tests can pin values on graphs of *any* size instead of being
    restricted to the vertex counts the ``Dec_k C`` family happens to hit.
    """
    if n < 2:
        raise ValueError("need at least 2 vertices")
    b = GraphBuilder()
    b.add_vertices(n, VertexKind.ADD)
    src, dst = [], []
    for delta in offsets:
        for i in range(n - delta):
            src.append(i)
            dst.append(i + delta)
    b.add_edges(src, dst)
    return b.freeze()


class GraphBuilder:
    """Append-only builder for :class:`CDAG`.

    Vertices are dense integers in creation order.  Scalar appends go to
    Python lists (amortized O(1)); bulk edge batches are kept as the numpy
    arrays they arrive as and only concatenated once at ``freeze`` time, so
    large vectorized constructions never round-trip through Python lists.
    """

    def __init__(self) -> None:
        self._kinds: list[int] = []
        self._levels: list[int] = []
        # Edge tape: scalar appends buffer in _src/_dst and are flushed into
        # _edge_chunks before any bulk batch, preserving append order.
        self._src: list[int] = []
        self._dst: list[int] = []
        self._edge_chunks: list[tuple[np.ndarray, np.ndarray]] = []
        self._n_edges = 0

    # ------------------------------------------------------------------ #

    @property
    def n_vertices(self) -> int:
        return len(self._kinds)

    @property
    def n_edges(self) -> int:
        return self._n_edges

    def add_vertex(self, kind: int = VertexKind.ADD, level: int = -1) -> int:
        """Append one vertex; returns its index."""
        self._kinds.append(kind)
        self._levels.append(level)
        return len(self._kinds) - 1

    def add_vertices(self, count: int, kind: int, level: int = -1) -> np.ndarray:
        """Append ``count`` vertices of one kind; returns their indices."""
        start = len(self._kinds)
        self._kinds.extend([kind] * count)
        self._levels.extend([level] * count)
        return np.arange(start, start + count, dtype=np.int64)

    def add_edge(self, u: int, v: int) -> None:
        """Append directed edge ``u -> v`` (producer to consumer)."""
        if u == v:
            raise ValueError("self-loop")
        self._src.append(int(u))
        self._dst.append(int(v))
        self._n_edges += 1

    def add_edges(self, us, vs) -> None:
        """Append many edges at once from two equal-length sequences."""
        us = np.asarray(us, dtype=np.int64).ravel()
        vs = np.asarray(vs, dtype=np.int64).ravel()
        if us.shape != vs.shape:
            raise ValueError("endpoint arrays must have equal length")
        if np.any(us == vs):
            raise ValueError("self-loop")
        self._flush_scalars()
        self._edge_chunks.append((us.copy(), vs.copy()))
        self._n_edges += len(us)

    def _flush_scalars(self) -> None:
        if self._src:
            self._edge_chunks.append(
                (
                    np.asarray(self._src, dtype=np.int64),
                    np.asarray(self._dst, dtype=np.int64),
                )
            )
            self._src = []
            self._dst = []

    def set_kind(self, v: int, kind: int) -> None:
        """Re-tag a vertex (e.g. mark a decode sink as OUTPUT after wiring)."""
        self._kinds[v] = kind

    def set_level(self, v: int, level: int) -> None:
        self._levels[v] = level

    def freeze(self) -> CDAG:
        """Build the immutable CDAG."""
        self._flush_scalars()
        if self._edge_chunks:
            src = np.concatenate([c[0] for c in self._edge_chunks])
            dst = np.concatenate([c[1] for c in self._edge_chunks])
        else:
            src = np.empty(0, dtype=np.int64)
            dst = np.empty(0, dtype=np.int64)
        return CDAG(
            n_vertices=len(self._kinds),
            src=src,
            dst=dst,
            kinds=np.asarray(self._kinds, dtype=np.int8),
            levels=np.asarray(self._levels, dtype=np.int32),
        )
