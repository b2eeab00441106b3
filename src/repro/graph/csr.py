"""Compressed sparse row (CSR) graph representation.

This is the on-device format the paper uses: an undirected graph is stored
as two directed arcs per edge, with a ``row_ptr`` array of length ``n + 1``
and a ``col_idx`` array of length ``2m`` (``m`` = number of undirected
edges).  All algorithms in :mod:`repro.core` and :mod:`repro.baselines`
consume this structure.

The class is deliberately immutable: the arrays are created once, marked
non-writeable, and shared by reference between host code and the simulated
device.  Derived arrays (:meth:`CSRGraph.degrees`, :meth:`CSRGraph.arc_array`,
:meth:`CSRGraph.edge_array`) are computed lazily, memoized on the instance,
and returned as read-only views — callers across the library share one copy
instead of recomputing per call.  Construction helpers that clean up
arbitrary edge lists live in :mod:`repro.graph.build`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ..errors import GraphValidationError

__all__ = ["CSRGraph"]


@dataclass(frozen=True)
class CSRGraph:
    """An undirected graph in CSR form.

    Attributes
    ----------
    row_ptr:
        ``int64`` array of length ``num_vertices + 1``; neighbors of vertex
        ``v`` are ``col_idx[row_ptr[v]:row_ptr[v + 1]]``.
    col_idx:
        ``int64`` array of directed arcs.  For an undirected graph each
        edge ``{u, v}`` appears twice, once in each adjacency list, matching
        the storage convention of Table 2 in the paper.
    name:
        Optional label used in experiment reports.
    """

    row_ptr: np.ndarray
    col_idx: np.ndarray
    name: str = field(default="graph", compare=False)

    def __post_init__(self) -> None:
        row_ptr = np.ascontiguousarray(self.row_ptr, dtype=np.int64)
        col_idx = np.ascontiguousarray(self.col_idx, dtype=np.int64)
        object.__setattr__(self, "row_ptr", row_ptr)
        object.__setattr__(self, "col_idx", col_idx)
        self._check_wellformed()
        row_ptr.setflags(write=False)
        col_idx.setflags(write=False)
        # Memo cache for lazily-derived arrays; shared across with_name()
        # relabelings (the arrays only depend on row_ptr/col_idx).
        object.__setattr__(self, "_derived", {})

    def _check_wellformed(self) -> None:
        if self.row_ptr.ndim != 1 or self.col_idx.ndim != 1:
            raise GraphValidationError("row_ptr and col_idx must be 1-D arrays")
        if self.row_ptr.size == 0:
            raise GraphValidationError("row_ptr must have at least one entry")
        if self.row_ptr[0] != 0:
            raise GraphValidationError("row_ptr[0] must be 0")
        if self.row_ptr[-1] != self.col_idx.size:
            raise GraphValidationError(
                f"row_ptr[-1] ({self.row_ptr[-1]}) must equal "
                f"len(col_idx) ({self.col_idx.size})"
            )
        if self.row_ptr.size > 1 and np.any(np.diff(self.row_ptr) < 0):
            raise GraphValidationError("row_ptr must be non-decreasing")
        n = self.num_vertices
        if self.col_idx.size and (
            self.col_idx.min() < 0 or self.col_idx.max() >= n
        ):
            raise GraphValidationError("col_idx contains out-of-range vertex ids")

    # ------------------------------------------------------------------
    # Size accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self.row_ptr.size - 1

    @property
    def num_arcs(self) -> int:
        """Number of stored directed arcs (``2m`` for an undirected graph)."""
        return self.col_idx.size

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``m`` (arc count halved)."""
        return self.col_idx.size // 2

    # ------------------------------------------------------------------
    # Adjacency accessors
    # ------------------------------------------------------------------
    def neighbors(self, v: int) -> np.ndarray:
        """Read-only view of the adjacency list of ``v``."""
        return self.col_idx[self.row_ptr[v] : self.row_ptr[v + 1]]

    def degree(self, v: int) -> int:
        """Degree (adjacency-list length) of ``v``."""
        return int(self.row_ptr[v + 1] - self.row_ptr[v])

    def degrees(self) -> np.ndarray:
        """Read-only array of all vertex degrees (memoized)."""
        deg = self._derived.get("degrees")
        if deg is None:
            deg = np.diff(self.row_ptr)
            deg.setflags(write=False)
            self._derived["degrees"] = deg
        return deg

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over undirected edges once each, as ``(u, v)`` with
        ``u < v`` (the paper's one-direction-only convention)."""
        for u in range(self.num_vertices):
            for v in self.neighbors(u):
                if v > u:
                    yield (u, int(v))

    def arc_array(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``(src, dst)`` arrays covering every stored arc.

        Computed once and memoized; ``dst`` is ``col_idx`` itself (not a
        copy).  Callers needing to mutate must copy explicitly.
        """
        src = self._derived.get("arc_src")
        if src is None:
            src = np.repeat(
                np.arange(self.num_vertices, dtype=np.int64), self.degrees()
            )
            src.setflags(write=False)
            self._derived["arc_src"] = src
        return src, self.col_idx

    def edge_array(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``(u, v)`` arrays, one row per undirected edge, u < v.

        Computed once and memoized — the hot-path backends index these
        every hook round and share a single materialization.
        """
        pair = self._derived.get("edge_uv")
        if pair is None:
            src, dst = self.arc_array()
            keep = dst > src
            u, v = src[keep], dst[keep]
            u.setflags(write=False)
            v.setflags(write=False)
            pair = (u, v)
            self._derived["edge_uv"] = pair
        return pair

    def edge_array_i32(self) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`edge_array` narrowed to ``int32`` (memoized).

        The contraction backend's working arrays are all index-bounded by
        ``n``, so graphs under ``2**31`` vertices can halve their memory
        traffic by gathering through ``int32`` copies.  Raises
        :class:`ValueError` on graphs too large to narrow — callers are
        expected to check ``num_vertices`` first and stay on the int64
        pair.
        """
        pair = self._derived.get("edge_uv_i32")
        if pair is None:
            if self.num_vertices >= 2**31:
                raise ValueError(
                    "edge_array_i32 requires num_vertices < 2**31"
                )
            u, v = self.edge_array()
            u32 = u.astype(np.int32)
            v32 = v.astype(np.int32)
            u32.setflags(write=False)
            v32.setflags(write=False)
            pair = (u32, v32)
            self._derived["edge_uv_i32"] = pair
        return pair

    def has_sorted_adjacency(self) -> bool:
        """Whether every adjacency list is ascending (memoized).

        True for every graph built through :mod:`repro.graph.build` (its
        ``unique_pairs`` dedup sorts each row); enables O(n) fast paths such
        as the vectorized Init2/Init3 (first neighbor == minimum neighbor).
        """
        cached = self._derived.get("sorted_adj")
        if cached is None:
            if self.col_idx.size < 2:
                cached = True
            else:
                ascending = self.col_idx[1:] > self.col_idx[:-1]
                # Row boundaries may legitimately break monotonicity.
                starts = self.row_ptr[1:-1]
                starts = starts[(starts > 0) & (starts < self.col_idx.size)]
                ascending[starts - 1] = True
                cached = bool(ascending.all())
            self._derived["sorted_adj"] = cached
        return cached

    # ------------------------------------------------------------------
    # Disk spill (out-of-core substrate; see repro.graph.spill)
    # ------------------------------------------------------------------
    def spill(self, directory, plan=4):
        """Spill this graph to ``directory`` as checksummed CSR shards.

        ``plan`` is a :class:`~repro.shard.ShardPlan`, or an ``int``
        shard count resolved with the degree-balanced partitioner (so
        power-law hubs cannot concentrate one shard's file).  Returns
        the opened :class:`~repro.graph.spill.SpilledGraph`; the format
        (versioned manifest, per-file SHA-256, raw ``int64`` arrays
        readable by ``np.memmap``) is documented in
        :mod:`repro.graph.spill` and ``docs/out-of-core.md``.
        """
        from ..shard.partition import ShardPlan, partition_degree
        from .spill import SpilledGraph, spill_csr

        if not isinstance(plan, ShardPlan):
            plan = partition_degree(self, int(plan))
        spill_csr(self, directory, plan)
        return SpilledGraph.open(directory)

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        # The memo is rebuilt on demand, and may hold a shard export
        # (a lock and a shared segment) that cannot cross a pickle.
        return {"row_ptr": self.row_ptr, "col_idx": self.col_idx, "name": self.name}

    def __setstate__(self, state: dict) -> None:
        self.__init__(**state)

    def with_name(self, name: str) -> "CSRGraph":
        """Return the same graph relabeled for reports (arrays shared)."""
        g = CSRGraph(self.row_ptr, self.col_idx, name=name)
        # Share the memo cache: derived arrays depend only on the arrays.
        object.__setattr__(g, "_derived", self._derived)
        return g

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRGraph(name={self.name!r}, n={self.num_vertices}, "
            f"m={self.num_edges})"
        )
