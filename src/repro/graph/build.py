"""Builders that turn arbitrary edge descriptions into clean CSR graphs.

The paper preprocesses every input the same way (§4): eliminate self-loops,
eliminate duplicate edges, and add any missing back edges so the graph is
undirected.  :func:`from_edges` implements exactly that pipeline, fully
vectorized.  Dedup is :func:`repro.core.frontier.unique_pairs` over both
arc directions, the same primitive the hook loop uses: it returns the
arcs sorted by ``(src, dst)``, so every row comes out ascending and the
CSR is a bincount of the sources away.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..core.frontier import unique_pairs
from ..errors import GraphFormatError
from .csr import CSRGraph

__all__ = [
    "from_edges",
    "from_arc_arrays",
    "from_adjacency",
    "empty_graph",
    "relabel_compact",
]


def from_edges(
    edges: Iterable[tuple[int, int]] | np.ndarray,
    num_vertices: int | None = None,
    *,
    name: str = "graph",
) -> CSRGraph:
    """Build an undirected CSR graph from an edge list.

    Self-loops are dropped, duplicates merged, and both arc directions are
    stored (the paper's preprocessing).  ``num_vertices`` may be given to
    include isolated vertices beyond the largest endpoint id.
    """
    arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GraphFormatError("edge list must be an iterable of (u, v) pairs")
    arr = arr.astype(np.int64, copy=False)
    return from_arc_arrays(arr[:, 0], arr[:, 1], num_vertices, name=name)


def from_arc_arrays(
    src: np.ndarray,
    dst: np.ndarray,
    num_vertices: int | None = None,
    *,
    name: str = "graph",
) -> CSRGraph:
    """Build an undirected CSR graph from parallel source/destination arrays.

    The arrays may describe directed arcs, contain duplicates, or contain
    self-loops; the result is their symmetrized, deduplicated closure.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.shape != dst.shape or src.ndim != 1:
        raise GraphFormatError("src and dst must be 1-D arrays of equal length")
    if min(src.min(initial=0), dst.min(initial=0)) < 0:
        raise GraphFormatError("vertex ids must be non-negative")
    n_seen = int(max(src.max(initial=-1), dst.max(initial=-1))) + 1
    n = n_seen if num_vertices is None else int(num_vertices)
    if n < n_seen:
        raise GraphFormatError(
            f"num_vertices={n} too small for max endpoint {n_seen - 1}"
        )

    keep = src != dst  # drop self-loops
    src, dst = src[keep], dst[keep]
    # Symmetrize, then dedupe: unique_pairs returns the arcs sorted by
    # (src, dst), so src counts give row_ptr and dst is col_idx as-is.
    src, dst = unique_pairs(
        np.concatenate([src, dst]), np.concatenate([dst, src]), n
    )
    row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=row_ptr[1:])
    return CSRGraph(row_ptr, dst, name=name)


def from_adjacency(adjacency: Sequence[Sequence[int]], *, name: str = "graph") -> CSRGraph:
    """Build a graph from an adjacency-list-of-lists description."""
    src: list[int] = []
    dst: list[int] = []
    for u, nbrs in enumerate(adjacency):
        for v in nbrs:
            src.append(u)
            dst.append(int(v))
    return from_arc_arrays(
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        num_vertices=len(adjacency),
        name=name,
    )


def empty_graph(num_vertices: int, *, name: str = "empty") -> CSRGraph:
    """Graph with ``num_vertices`` isolated vertices and no edges."""
    return CSRGraph(
        np.zeros(num_vertices + 1, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        name=name,
    )


def relabel_compact(graph: CSRGraph, *, drop_isolated: bool = True) -> tuple[CSRGraph, np.ndarray]:
    """Relabel vertices to a compact 0..n'-1 range.

    Returns the relabeled graph and the mapping array ``old_id[new_id]``.
    With ``drop_isolated`` (default) vertices of degree zero are removed,
    mirroring the vertex-compaction preprocessing used by several of the
    compared frameworks.
    """
    deg = graph.degrees()
    if drop_isolated:
        keep = np.flatnonzero(deg > 0)
    else:
        keep = np.arange(graph.num_vertices, dtype=np.int64)
    new_id = np.full(graph.num_vertices, -1, dtype=np.int64)
    new_id[keep] = np.arange(keep.size, dtype=np.int64)
    src, dst = graph.arc_array()
    g = from_arc_arrays(
        new_id[src], new_id[dst], num_vertices=keep.size, name=graph.name
    )
    return g, keep
