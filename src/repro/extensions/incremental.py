"""Incremental (online) connectivity.

The paper frames CC as one stage of a longer pipeline ("we assume the
graph to already be on the GPU from a prior processing step and the
result ... to be needed ... by a later processing step").  Downstream
pipelines frequently *update* graphs; this module provides the online
counterpart: a connectivity structure supporting edge insertions and
component queries at union-find speed, built on the same path-halving
machinery as ECL-CC.

Two insertion granularities are offered.  :meth:`~IncrementalConnectivity.
add_edge` is the scalar path (one find+hook per call);
:meth:`~IncrementalConnectivity.add_edges` absorbs a whole batch in place
with :func:`repro.core.frontier.hook_until_fixpoint`, the same hook loop
the static ``numpy`` backend runs (one engine for static and incremental
connectivity, as in Hong/Dhulipala/Shun), then flattens the parent array
so later finds are depth-one.  Batches below :data:`VECTOR_THRESHOLD`
fall back to the scalar loop, which is cheaper than paying an O(n)
flatten for a handful of edges.
:class:`repro.service.ConnectivityService` builds its micro-batched
mutation path on ``add_edges``.
"""

from __future__ import annotations

import numpy as np

from ..core.frontier import flatten_active, hook_until_fixpoint
from ..graph.csr import CSRGraph
from ..unionfind.variants import FIND_VARIANTS

__all__ = ["IncrementalConnectivity", "VECTOR_THRESHOLD"]

#: Batches smaller than this are applied with the scalar per-edge loop:
#: the vectorized path finishes with an O(n) parent flatten, which only
#: amortizes once the batch carries enough edges.
VECTOR_THRESHOLD = 32


class IncrementalConnectivity:
    """Online connected components under edge insertions.

    Supports ``add_edge`` / batched ``add_edges``, ``connected``,
    ``component_of``, ``num_components`` and snapshot ``labels()`` — all
    with the minimum-member-ID labeling convention used across this
    library, so snapshots compare directly against any batch backend's
    output.
    """

    def __init__(self, num_vertices: int, *, compression: str = "halving") -> None:
        if num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")
        if compression not in FIND_VARIANTS:
            raise ValueError(f"unknown compression {compression!r}")
        self._find = FIND_VARIANTS[compression]
        self.parent = np.arange(num_vertices, dtype=np.int64)
        self._num_components = num_vertices
        self._edges_added = 0

    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: CSRGraph, **kwargs) -> "IncrementalConnectivity":
        """Seed the structure with an existing graph's edges (vectorized:
        one ``add_edges`` batch over the graph's deduped edge array)."""
        inc = cls(graph.num_vertices, **kwargs)
        u, v = graph.edge_array()
        inc.add_edges(u, v)
        return inc

    # ------------------------------------------------------------------
    def _check(self, v: int) -> None:
        if not 0 <= v < self.parent.size:
            raise IndexError(f"vertex {v} out of range [0, {self.parent.size})")

    def add_edge(self, u: int, v: int) -> bool:
        """Insert an undirected edge; returns True if it merged two
        components (i.e. it is a spanning-forest edge)."""
        self._check(u)
        self._check(v)
        self._edges_added += 1
        ru = self._find(self.parent, u)
        rv = self._find(self.parent, v)
        if ru == rv:
            return False
        if ru < rv:
            self.parent[rv] = ru
        else:
            self.parent[ru] = rv
        self._num_components -= 1
        return True

    def add_edges(self, u, v) -> int:
        """Insert a batch of undirected edges; returns the number of
        component merges the batch caused.

        ``u`` and ``v`` are equal-length array-likes of endpoints.
        Duplicate edges and self-loops are permitted no-ops, exactly as
        in the scalar path.  Large batches are hooked in place by
        :func:`~repro.core.frontier.hook_until_fixpoint`; batches below
        :data:`VECTOR_THRESHOLD` use the scalar loop.
        """
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if u.shape != v.shape or u.ndim != 1:
            raise ValueError("u and v must be 1-D arrays of equal length")
        if u.size == 0:
            return 0
        n = self.parent.size
        lo = int(min(u.min(), v.min()))
        hi = int(max(u.max(), v.max()))
        if lo < 0 or hi >= n:
            raise IndexError(
                f"vertex {lo if lo < 0 else hi} out of range [0, {n})"
            )
        if u.size < VECTOR_THRESHOLD:
            return sum(self.add_edge(int(a), int(b)) for a, b in zip(u, v))

        self._edges_added += int(u.size)
        merges = hook_until_fixpoint(self.parent, u, v)
        flatten_active(self.parent)
        self._num_components -= merges
        return merges

    def connected(self, u: int, v: int) -> bool:
        """Whether ``u`` and ``v`` are currently in the same component."""
        self._check(u)
        self._check(v)
        return self._find(self.parent, u) == self._find(self.parent, v)

    def component_of(self, v: int) -> int:
        """Canonical (minimum-member) ID of ``v``'s component."""
        self._check(v)
        return self._find(self.parent, v)

    @property
    def num_components(self) -> int:
        """Current number of components (isolated vertices count)."""
        return self._num_components

    @property
    def num_edges_added(self) -> int:
        return self._edges_added

    def labels(self) -> np.ndarray:
        """Snapshot label array, identical in convention to
        :func:`repro.connected_components` output (vectorized flatten of
        a copy; the live parent array is left untouched)."""
        return flatten_active(self.parent.copy())
