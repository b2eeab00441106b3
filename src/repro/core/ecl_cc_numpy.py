"""Vectorized (NumPy) connected components in the ECL-CC style.

Intermediate pointer jumping is inherently per-edge-sequential, so a
data-parallel NumPy formulation cannot transcribe Fig. 5/6 literally.
This backend keeps ECL-CC's two defining label conventions — enhanced
initialization (Init1-3) and hooking the larger representative under the
smaller — and replaces the asynchronous interleaving with bulk-synchronous
rounds over a **shrinking edge frontier**, all run by
:func:`repro.core.frontier.hook_until_fixpoint` (the hook loop shared
with the sharded, out-of-core and incremental paths): resolve the
frontier's endpoints to current representatives, keep only still-unmerged
edges, hook every larger representative under its smallest contender (a
valid serialization of the CAS races), re-resolve, and repeat; a single
active-set flatten at the end points every vertex at its root.

Work per round is proportional to the surviving frontier — which on
high-diameter inputs collapses by orders of magnitude after the first
round — rather than to m edges and n vertices.  The backend converges in
O(log n) rounds and is the fastest native backend for medium/large
graphs, so it doubles as the reference runner for wall-clock benchmarks
(see ``benchmarks/wallclock_gate.py``).

:func:`ecl_cc_numpy_dense` preserves the pre-frontier bulk-synchronous
formulation (full edge scan + ``np.minimum.at`` + whole-array flatten
per round) as the recorded baseline those benchmarks compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graph.csr import CSRGraph
from ..observe import current_tracer
from .frontier import flatten_active, hook_until_fixpoint
from .variants import init_vectorized

__all__ = ["NumpyRunStats", "ecl_cc_numpy", "ecl_cc_numpy_dense"]


@dataclass
class NumpyRunStats:
    """Round counts and frontier trajectory emitted by :func:`ecl_cc_numpy`.

    ``doubling_passes`` counts only passes that changed ``parent`` (the
    terminal no-change comparison of the old formulation is not a pass).
    ``frontier_sizes[i]`` is the number of representative pairs hooked
    in round ``i`` (deduplicated when the round ran sparse);
    ``edges_scanned`` totals the pair evaluations across rounds (the
    work the dense formulation would have spent ``m * hook_rounds`` on).
    """

    hook_rounds: int = 0
    doubling_passes: int = 0
    frontier_sizes: list = field(default_factory=list)
    edges_scanned: int = 0


def ecl_cc_numpy(
    graph: CSRGraph, *, init: str = "Init3"
) -> tuple[np.ndarray, NumpyRunStats]:
    """Label connected components; returns ``(labels, stats)``.

    ``labels[v]`` is the minimum vertex ID of ``v``'s component, matching
    every other backend in this library.
    """
    stats = NumpyRunStats()
    tracer = current_tracer()
    traced = tracer.enabled
    with tracer.span("numpy:init", category="core.numpy", variant=init):
        parent = init_vectorized(graph, init)
    n = graph.num_vertices
    if n == 0:
        return parent, stats
    with tracer.span("numpy:hook-rounds", category="core.numpy") as sp:
        u, v = graph.edge_array()  # each undirected edge exactly once
        hook_until_fixpoint(parent, u, v, stats=stats)
        if traced:
            for size in stats.frontier_sizes:
                tracer.gauge("numpy.frontier_edges", float(size))
                tracer.count("numpy.edges_hooked", float(size))
                tracer.gauge("numpy.active_vertices", float(2 * size))
            tracer.gauge("numpy.frontier_edges", 0.0)
        # Point every vertex (not just frontier members) at its root.
        flatten_active(parent, stats)
        sp.update(
            hook_rounds=stats.hook_rounds,
            doubling_passes=stats.doubling_passes,
            edges_scanned=stats.edges_scanned,
            frontier_sizes=list(stats.frontier_sizes),
        )
    return parent, stats


def _flatten_dense(parent: np.ndarray, stats: NumpyRunStats) -> np.ndarray:
    """Whole-array pointer doubling (the pre-frontier formulation)."""
    while True:
        grandparent = parent[parent]
        if np.array_equal(grandparent, parent):
            return parent
        stats.doubling_passes += 1
        parent = grandparent


def ecl_cc_numpy_dense(
    graph: CSRGraph, *, init: str = "Init3"
) -> tuple[np.ndarray, NumpyRunStats]:
    """The pre-frontier bulk-synchronous formulation, kept as a baseline.

    Every hook round re-evaluates all m edges through an unbuffered
    ``np.minimum.at`` scatter and every flatten pass pointer-doubles all
    n vertices.  The wall-clock gate benchmarks this against
    :func:`ecl_cc_numpy` to record the frontier formulation's speedup;
    it is also a useful work-inefficiency ablation in its own right.
    """
    stats = NumpyRunStats()
    parent = init_vectorized(graph, init)
    if graph.num_vertices == 0:
        return parent, stats
    u, v = graph.edge_array()
    parent = _flatten_dense(parent, stats)
    while True:
        ru = parent[u]
        rv = parent[v]
        stats.edges_scanned += u.size
        unmerged = ru != rv
        if not unmerged.any():
            break
        stats.hook_rounds += 1
        stats.frontier_sizes.append(int(np.count_nonzero(unmerged)))
        hi = np.maximum(ru[unmerged], rv[unmerged])
        lo = np.minimum(ru[unmerged], rv[unmerged])
        np.minimum.at(parent, hi, lo)
        parent = _flatten_dense(parent, stats)
    return parent, stats
