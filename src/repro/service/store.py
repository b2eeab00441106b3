"""Tombstoned dynamic edge store backing :class:`ConnectivityService`.

The service owns a *mutable* edge set over a fixed vertex universe, but
every compute backend in this library consumes an immutable
:class:`~repro.graph.csr.CSRGraph`.  :class:`EdgeStore` bridges the two:
edges live in parallel endpoint arrays with a per-slot liveness flag,
insertions append (or revive a tombstoned slot), deletions *tombstone*
rather than compact (O(1) instead of O(m)), :meth:`EdgeStore.alive_arrays`
hands the live endpoint arrays to the service's re-seed after a delete,
and :meth:`EdgeStore.to_graph` materializes the live edge set as a CSR
graph for callers that need one.  A composite-key index
(``min * n + max``) gives exact membership, so duplicate inserts and
deletes of absent edges are well-defined no-ops.

Tombstones are reclaimed by :meth:`EdgeStore.compact` once their
fraction passes a threshold (the service calls it after applying a
batch), keeping re-seed cost proportional to the live edge count.
"""

from __future__ import annotations

import numpy as np

from ..graph.build import from_arc_arrays
from ..graph.csr import CSRGraph

__all__ = ["EdgeStore"]


class EdgeStore:
    """Dynamic undirected edge set with tombstoned deletion.

    Edges are canonicalized to ``(min, max)`` endpoint order; self-loops
    are rejected as no-ops at insert.  All batch entry points take
    parallel endpoint arrays.
    """

    def __init__(self, num_vertices: int, *, name: str = "service-graph") -> None:
        if num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")
        self.num_vertices = int(num_vertices)
        self.name = name
        self._u = np.empty(0, dtype=np.int64)
        self._v = np.empty(0, dtype=np.int64)
        self._alive = np.empty(0, dtype=bool)
        self._size = 0  # slots in use (live + tombstoned)
        self._alive_count = 0
        self._index: dict[int, int] = {}  # composite key -> slot

    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: CSRGraph) -> "EdgeStore":
        """Seed a store with a CSR graph's (already deduped) edge set."""
        store = cls(graph.num_vertices, name=graph.name)
        u, v = graph.edge_array()
        m = u.size
        store._grow_to(m)
        store._u[:m] = u
        store._v[:m] = v
        store._alive[:m] = True
        store._size = m
        store._alive_count = m
        keys = (u * np.int64(store.num_vertices) + v).tolist()
        store._index = {k: i for i, k in enumerate(keys)}
        return store

    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Live (non-tombstoned) edge count."""
        return self._alive_count

    @property
    def tombstone_fraction(self) -> float:
        """Fraction of occupied slots that are tombstones."""
        return 1.0 - self._alive_count / self._size if self._size else 0.0

    def _grow_to(self, needed: int) -> None:
        cap = self._u.size
        if needed <= cap:
            return
        new_cap = max(needed, cap * 2, 64)
        for attr in ("_u", "_v", "_alive"):
            old = getattr(self, attr)
            grown = np.empty(new_cap, dtype=old.dtype)
            grown[: self._size] = old[: self._size]
            setattr(self, attr, grown)

    def _canonical(self, u, v) -> tuple[np.ndarray, np.ndarray]:
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if u.shape != v.shape or u.ndim != 1:
            raise ValueError("u and v must be 1-D arrays of equal length")
        if u.size:
            lo = int(min(u.min(), v.min()))
            hi = int(max(u.max(), v.max()))
            if lo < 0 or hi >= self.num_vertices:
                raise IndexError(
                    f"vertex {lo if lo < 0 else hi} out of range "
                    f"[0, {self.num_vertices})"
                )
        keep = u != v  # self-loops are connectivity no-ops
        u, v = u[keep], v[keep]
        return np.minimum(u, v), np.maximum(u, v)

    # ------------------------------------------------------------------
    def insert(self, u, v) -> tuple[np.ndarray, np.ndarray]:
        """Insert edges; returns the ``(u, v)`` subset that was *newly*
        alive (absent or tombstoned before) — exactly the edges the
        incremental union pass must absorb."""
        u, v = self._canonical(u, v)
        if u.size == 0:
            return u, v
        n = np.int64(self.num_vertices)
        keys = (u * n + v).tolist()
        new_u: list[int] = []
        new_v: list[int] = []
        for k, a, b in zip(keys, u.tolist(), v.tolist()):
            slot = self._index.get(k)
            if slot is None:
                self._grow_to(self._size + 1)
                slot = self._size
                self._u[slot] = a
                self._v[slot] = b
                self._alive[slot] = True
                self._index[k] = slot
                self._size += 1
                self._alive_count += 1
                new_u.append(a)
                new_v.append(b)
            elif not self._alive[slot]:
                self._alive[slot] = True
                self._alive_count += 1
                new_u.append(a)
                new_v.append(b)
            # else: duplicate of a live edge — no-op
        return (
            np.asarray(new_u, dtype=np.int64),
            np.asarray(new_v, dtype=np.int64),
        )

    def delete(self, u, v) -> int:
        """Tombstone edges; returns how many were live before (deletes
        of absent or already-tombstoned edges are no-ops)."""
        u, v = self._canonical(u, v)
        if u.size == 0:
            return 0
        n = np.int64(self.num_vertices)
        removed = 0
        for k in (u * n + v).tolist():
            slot = self._index.get(k)
            if slot is not None and self._alive[slot]:
                self._alive[slot] = False
                self._alive_count -= 1
                removed += 1
        return removed

    def contains(self, u: int, v: int) -> bool:
        """Whether the live edge set contains ``{u, v}``."""
        if u == v:
            return False
        a, b = (u, v) if u < v else (v, u)
        slot = self._index.get(a * self.num_vertices + b)
        return slot is not None and bool(self._alive[slot])

    # ------------------------------------------------------------------
    def alive_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the live ``(u, v)`` endpoint arrays."""
        mask = self._alive[: self._size]
        return self._u[: self._size][mask], self._v[: self._size][mask]

    def to_graph(self, *, name: str | None = None) -> CSRGraph:
        """The current live edge set as an immutable CSR graph."""
        u, v = self.alive_arrays()
        return from_arc_arrays(
            u, v, num_vertices=self.num_vertices, name=name or self.name
        )

    def compact(self) -> int:
        """Drop tombstoned slots and rebuild the index; returns the
        number of slots reclaimed."""
        dead = self._size - self._alive_count
        if dead == 0:
            return 0
        u, v = self.alive_arrays()
        m = u.size
        self._u = u.copy()
        self._v = v.copy()
        self._alive = np.ones(m, dtype=bool)
        self._size = m
        keys = (u * np.int64(self.num_vertices) + v).tolist()
        self._index = {k: i for i, k in enumerate(keys)}
        return dead

    def __len__(self) -> int:
        return self._alive_count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EdgeStore(n={self.num_vertices}, live={self._alive_count}, "
            f"tombstoned={self._size - self._alive_count})"
        )
