"""Recursive graph-contraction connected components (``backend="contract"``).

The frontier backends (:mod:`repro.core.ecl_cc_numpy`, Afforest)
re-filter a shrinking *edge frontier* over a fixed vertex set.  This
backend applies the complementary trick used by the diffHT/SPiT
``dpcc_recursive`` exemplars and by Sutton et al.'s adaptive CC: after
each hook round the surviving graph is **contracted** — every component
found so far becomes a single vertex of the next level — so the vertex
set shrinks geometrically too, and each level's gathers run over a
strictly smaller, denser id space.

One level:

1. *hook* — every vertex adopts its smallest neighbor as parent.  At
   level 0 on a sorted-adjacency graph this is the O(n) first-neighbor
   gather (the first entry of an ascending row is the minimum, so it
   coincides with the paper's Init3 *and* with a full min-neighbor
   ``np.minimum.at`` reduce); otherwise a ``minimum.at`` scatter-reduce
   over the level's edge list.  Either way each write re-parents a
   vertex to a strictly smaller member of its own component, the same
   invariant ECL-CC's benign CAS races preserve, so the resulting
   forest is decreasing and acyclic.
2. *flatten* — resolve the forest to roots
   (:func:`repro.core.kernels.flatten_decreasing`: single compiled pass
   or hybrid pointer doubling — identical roots either way).
3. *filter* — drop edges whose endpoints reached the same root
   (intra-component), keeping root pairs oriented ``hi > lo``.
4. *dedup* — when the survivors outnumber the roots, collapse them to
   unique representative pairs via :func:`repro.core.frontier.unique_pairs`.
5. *renumber* — relabel roots to a dense ``[0, k)`` id space
   (:func:`repro.core.kernels.renumber_roots`) and push the surviving
   edges through the relabel map; record the per-vertex map for the
   unwind.
6. recurse on the contracted graph until no edges remain, the level is
   below ``base_cutoff`` (fall through to :func:`ecl_cc_numpy` on the
   small remainder), or ``max_depth`` is hit.

The *unwind* composes the per-level relabel maps top-down, giving each
original vertex its final component id, then canonicalizes ids to
minimum-member vertex labels with one reversed first-occurrence scatter
(ascending scan ⇒ the first vertex seen per component is its minimum, so
scattering positions in reverse leaves exactly that one) — bit-identical
to ``ecl_cc_serial`` like every backend in this library.

Internally all index arrays are ``int32`` when ``n < 2**31`` (halving
memory traffic on the gathers that dominate the runtime); the returned
labels are always ``int64``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graph.csr import CSRGraph
from ..observe import current_tracer
from . import kernels
from .frontier import unique_pairs

__all__ = ["ContractRunStats", "contract_cc"]

#: Below this many surviving vertices the remainder is handed to
#: ``ecl_cc_numpy`` instead of contracting further (one CSR build on a
#: tiny graph beats several near-empty levels).
DEFAULT_BASE_CUTOFF = 2048

#: Levels are capped defensively; every level strictly shrinks the
#: vertex set, so real inputs terminate far earlier.
DEFAULT_MAX_DEPTH = 32


@dataclass
class ContractRunStats:
    """Per-level trajectory emitted by :func:`contract_cc`.

    ``level_vertices[i]`` / ``level_edges[i]`` are the surviving vertex
    and edge counts *after* contraction level ``i`` — the geometric
    shrink the recursion exists to produce.  ``base_vertices`` /
    ``base_edges`` describe the remainder handed to the
    ``ecl_cc_numpy`` base case (both 0 when the recursion bottomed out
    on its own).
    """

    levels: int = 0
    level_vertices: list = field(default_factory=list)
    level_edges: list = field(default_factory=list)
    dedup_rounds: int = 0
    base_vertices: int = 0
    base_edges: int = 0


def _level_edges(graph: CSRGraph, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Level-0 edge list ``(lo, hi)`` with ``lo < hi``, narrowed when safe."""
    if dtype == np.int32:
        u, v = graph.edge_array_i32()
    else:
        u, v = graph.edge_array()
    return u, v


def _init_parent(graph: CSRGraph, hi, lo, dtype) -> np.ndarray:
    """Level-0 hook: parent[v] = min neighbor of v, if smaller, else v.

    With ascending adjacency rows the row's first entry *is* its
    minimum, so an O(n) gather replaces the O(m) ``minimum.at`` reduce
    and produces the identical forest.
    """
    n = graph.num_vertices
    par = np.arange(n, dtype=dtype)
    if not graph.has_sorted_adjacency():
        np.minimum.at(par, hi, lo)
        return par
    row = graph.row_ptr
    nonempty = row[:-1] < row[1:]
    # Clip keeps the gather in bounds for empty rows; their lanes are
    # masked out by ``nonempty`` below.
    first = graph.col_idx[row[:-1].clip(max=max(row[-1] - 1, 0))].astype(
        dtype, copy=False
    )
    np.copyto(par, first, where=nonempty & (first < par))
    return par


def contract_cc(
    graph: CSRGraph,
    *,
    base_cutoff: int = DEFAULT_BASE_CUTOFF,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> tuple[np.ndarray, ContractRunStats]:
    """Label connected components by recursive contraction.

    Returns ``(labels, stats)`` with ``labels[v]`` = minimum vertex ID
    of ``v``'s component, bit-identical to every other backend.
    """
    if base_cutoff < 0:
        raise ValueError("base_cutoff must be >= 0")
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    stats = ContractRunStats()
    tracer = current_tracer()
    traced = tracer.enabled
    n = graph.num_vertices
    if n == 0:
        return np.arange(0, dtype=np.int64), stats
    dtype = np.int32 if n < 2**31 else np.int64
    lo, hi = _level_edges(graph, dtype)

    maps: list[np.ndarray] = []
    k = n
    with tracer.span(
        "contract:levels", category="core.contract", graph=graph.name
    ) as sp:
        while hi.size and k > base_cutoff and stats.levels < max_depth:
            if stats.levels == 0:
                par = _init_parent(graph, hi, lo, dtype)
            else:
                par = np.arange(k, dtype=dtype)
                np.minimum.at(par, hi, lo)
            kernels.flatten_decreasing(par)
            # Filter to still-unmerged root pairs, oriented hi > lo.
            rhi = par.take(hi)
            rlo = par.take(lo)
            alive = np.flatnonzero(rhi != rlo)
            a = rhi.take(alive)
            b = rlo.take(alive)
            hi2 = np.maximum(a, b)
            lo2 = np.minimum(a, b)
            if hi2.size > k:
                # More survivors than roots: duplicates are guaranteed,
                # and deduping now shrinks every later level's gathers.
                hi2, lo2 = unique_pairs(hi2, lo2, k)
                hi2 = hi2.astype(dtype, copy=False)
                lo2 = lo2.astype(dtype, copy=False)
                stats.dedup_rounds += 1
            comp, k2 = kernels.renumber_roots(par)
            maps.append(comp)
            hi = comp.take(hi2)
            lo = comp.take(lo2)
            k = k2
            stats.levels += 1
            stats.level_vertices.append(int(k))
            stats.level_edges.append(int(hi.size))
            if traced:
                tracer.gauge("contract.level_vertices", float(k))
                tracer.gauge("contract.level_edges", float(hi.size))

        # Base case: hand any remainder to the frontier backend.
        if hi.size:
            from ..graph.build import from_arc_arrays
            from .ecl_cc_numpy import ecl_cc_numpy

            stats.base_vertices = int(k)
            stats.base_edges = int(hi.size)
            if maps:
                sub = from_arc_arrays(
                    hi.astype(np.int64, copy=False),
                    lo.astype(np.int64, copy=False),
                    k,
                    name=f"{graph.name}#contract-base",
                )
                lab = ecl_cc_numpy(sub)[0].astype(dtype, copy=False)
            else:
                # Never contracted (base_cutoff >= n): run the frontier
                # backend on the original graph, no rebuild needed.
                lab = ecl_cc_numpy(graph)[0].astype(dtype, copy=False)
        else:
            lab = np.arange(k, dtype=dtype)

        # Unwind: compose relabel maps back to per-vertex component ids.
        for m in reversed(maps):
            lab = lab.take(m)
        if maps:
            # Canonicalize dense component ids to minimum-member vertex
            # labels: scattering positions in *reverse* order leaves each
            # component's first (= smallest) vertex index behind.
            first = np.empty(n, dtype=dtype)
            first[lab[::-1]] = np.arange(n - 1, -1, -1, dtype=dtype)
            lab = first.take(lab)
        sp.update(
            levels=stats.levels,
            level_vertices=list(stats.level_vertices),
            level_edges=list(stats.level_edges),
            dedup_rounds=stats.dedup_rounds,
            base_vertices=stats.base_vertices,
            base_edges=stats.base_edges,
        )
    return lab.astype(np.int64, copy=False), stats
