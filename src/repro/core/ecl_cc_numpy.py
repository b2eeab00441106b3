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

Between Init3 and the hook loop sits one sample step.  Init3 is already
a one-neighbour sample, and on high-diameter graphs it leaves few edges
live; on low-diameter ones most edges stay live, and the loop's first
round would run dense over all of them.  So the step flattens the Init3
forest once and estimates the first round's live pairs from a strided
sample of :data:`SAMPLE_EDGES` edges.  Below the dense cutoff
(:data:`~repro.core.frontier.DENSE_PAIRS_PER_VERTEX` · n) the loop starts
straight from the flat forest.  At or above it the step follows
Afforest's neighbour sampling (Sutton, Ben-Nun and Barak, *Adaptive
Work-Efficient Connected Components on the GPU*): it hooks one more
neighbour per vertex first, which on these graphs merges all but a few
of the live pairs, so the loop over every edge starts sparse.

Work per round is proportional to the surviving frontier — which on
high-diameter inputs collapses by orders of magnitude after the first
round — rather than to m edges and n vertices.  The backend converges in
O(log n) rounds and is the fastest native backend for medium/large
graphs, so it doubles as the reference runner for wall-clock benchmarks
(see ``benchmarks/wallclock_gate.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graph.csr import CSRGraph
from ..observe import current_tracer
from .frontier import DENSE_PAIRS_PER_VERTEX, flatten_active, hook_until_fixpoint
from .variants import init_vectorized

__all__ = ["NumpyRunStats", "ecl_cc_numpy"]

#: Edges in the strided sample that estimates the first hook round's
#: live pairs.  The estimate only has to tell 0.01-0.1 live pairs per
#: vertex (meshes) from 1.3-11 (Delaunay, community, RMAT, Kronecker).
SAMPLE_EDGES = 1024


@dataclass
class NumpyRunStats:
    """Round counts and frontier trajectory emitted by :func:`ecl_cc_numpy`.

    ``doubling_passes`` counts only passes that changed ``parent`` (the
    terminal no-change comparison of the old formulation is not a pass).
    ``frontier_sizes[i]`` is the number of representative pairs hooked
    in round ``i`` (deduplicated when the round ran sparse);
    ``edges_scanned`` totals the pair evaluations across rounds (the
    work a full edge scan per round would have spent ``m * hook_rounds`` on).
    The sample step's round is not among ``hook_rounds`` or
    ``frontier_sizes``; its pair evaluations and doubling passes are
    counted.

    The sample step reports ``estimated_live_pairs`` (its estimate of the
    first round's live pairs; 0 when the graph has fewer edges than the
    dense cutoff) and ``sampled`` (whether the estimate reached the
    cutoff, so the neighbour sample ran).
    """

    hook_rounds: int = 0
    doubling_passes: int = 0
    frontier_sizes: list = field(default_factory=list)
    edges_scanned: int = 0
    estimated_live_pairs: int = 0
    sampled: bool = False


def _sample(graph: CSRGraph, parent: np.ndarray, stats: NumpyRunStats) -> bool:
    """Flatten the Init3 forest, and when the first hook round would run
    dense, hook a neighbour sample into it.

    Returns whether ``parent`` is flat for the hook loop.
    """
    u, v = graph.edge_array()  # each undirected edge exactly once
    cutoff = DENSE_PAIRS_PER_VERTEX * parent.size
    if u.size < cutoff:
        return False  # too few edges for a dense round; nothing to estimate
    flatten_active(parent, stats)
    step = max(1, u.size // SAMPLE_EDGES)
    su, sv = u[::step], v[::step]
    live = int(np.count_nonzero(parent[su] != parent[sv]))
    stats.estimated_live_pairs = live * u.size // su.size
    if stats.estimated_live_pairs < cutoff:
        return True
    stats.sampled = True
    # Init3 hooked each vertex to its first, smaller neighbour; sample
    # its last one.  Keeping only larger neighbours makes every sampled
    # pair an edge_array() pair, so the sample joins nothing the full
    # loop would not, on any CSR (symmetric or not).
    s = np.flatnonzero(graph.degrees())
    t = graph.col_idx[graph.row_ptr[s + 1] - 1]
    larger = t > s
    sample = NumpyRunStats()
    hook_until_fixpoint(parent, s[larger], t[larger], flat=True, stats=sample)
    stats.doubling_passes += sample.doubling_passes
    stats.edges_scanned += sample.edges_scanned
    return False


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
    with tracer.span("numpy:sample", category="core.numpy") as sp:
        flat = _sample(graph, parent, stats)
        sp.update(estimated_live_pairs=stats.estimated_live_pairs, sampled=stats.sampled)
        if traced:
            tracer.gauge("numpy.estimated_live_pairs", float(stats.estimated_live_pairs))
            tracer.count("numpy.sampled", int(stats.sampled))
    with tracer.span("numpy:hook-rounds", category="core.numpy") as sp:
        hook_until_fixpoint(parent, *graph.edge_array(), flat=flat, stats=stats)
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
