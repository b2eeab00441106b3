"""What the sharded backend derives from a graph, built once per graph.

For one graph and one :class:`~repro.shard.partition.ShardPlan`, a
:class:`ShardExport` holds, for every shard:

* its local CSR (``row_ptr``/``col_idx`` rebased to the shard's first
  vertex), sliced by :func:`slice_csr`;
* the local graph's ``edge_array()`` pair, the memo entry the
  ``numpy`` shard backend hooks over;
* in the parent only, its low-half boundary arcs (each cross-shard
  edge once, from the shard of its smaller endpoint), concatenated over
  the shards into the one array pair the merge hooks.

:func:`shard_export` memoises the export in the graph's derived-array
cache, keyed by the plan's cut points and the storage mode, so later
runs on the graph — and on its ``with_name`` copies — only hook.  Per-run
options (shard backend, fault plan, retries) are not part of the key.

Storage is one ``int64`` array laid out as
``[labels (n) | shard 0: rp, cols, eu, ev | shard 1: ... ]``.  A
*shared* export (process mode) keeps it in one
``multiprocessing.shared_memory`` segment that workers attach by name
and write their labels into; an inline export keeps it in process
memory and has no label region.  The export references neither the
graph nor any view of its own segment, so dropping the graph frees the
segment at once (a :func:`weakref.finalize` on the export);
:meth:`ShardExport.release` and :func:`release_exports` free it
earlier, and interpreter exit frees whatever is left.
"""

from __future__ import annotations

import os
import threading
import weakref

import numpy as np

from ..graph.csr import CSRGraph
from ..observe import current_tracer

__all__ = [
    "ShardExport",
    "export_segments",
    "leaked_shared_segments",
    "release_exports",
    "shard_export",
    "slice_csr",
]


# ----------------------------------------------------------------------
# Slicing: the one copy of the contiguous-range local CSR
# ----------------------------------------------------------------------
def slice_csr(rp: np.ndarray, cols: np.ndarray, start: int, end: int, *, mask=None, out=None):
    """Local CSR of the vertex range ``[start, end)``.

    ``rp`` is the *global* ``row_ptr[start : end + 1]`` slice (offsets
    unrebased) and ``cols`` the matching ``col_idx`` slice.  Returns
    ``(local_rp, local_cols, local_mask)``, the mask marking the arcs
    of ``cols`` that stay inside the range.  O(shard) time: one prefix
    sum over the mask, gathered at the old row boundaries — no
    renumbering table, a property of contiguous ranges.  A caller that
    already holds the mask passes it, and ``out`` — a ``(rp, cols)``
    pair of ``end - start + 1`` and ``mask.sum()`` elements — receives
    the local CSR in place of fresh arrays.
    """
    base = int(rp[0])
    with current_tracer().span("shard:slice", category="shard", arcs=int(cols.size)):
        if mask is None:
            mask = (cols >= start) & (cols < end)
        csum = np.empty(cols.size + 1, dtype=np.int64)
        csum[0] = 0
        np.cumsum(mask, out=csum[1:])
        # Plain indexing beats take/compress with ``out=`` several-fold,
        # so even the ``out`` case gathers first and copies once.
        local_rp = csum[np.asarray(rp) - base]
        kept = np.asarray(cols[mask])
        if out is None:
            return local_rp, kept - start, mask
        out[0][:] = local_rp
        np.subtract(kept, start, out=out[1])
    return out[0], out[1], mask


# ----------------------------------------------------------------------
# Shared-memory segments
# ----------------------------------------------------------------------
#: Segments created here and not yet unlinked, by name.
_SEGMENTS: dict[str, object] = {}
#: Live shared exports, by segment name (weak: the graph's memo owns them).
_EXPORTS: "weakref.WeakValueDictionary[str, ShardExport]" = weakref.WeakValueDictionary()


def leaked_shared_segments() -> list[str]:
    """Names of shared-memory segments created here and not yet freed,
    including those held by live cached exports (:func:`export_segments`)."""
    return sorted(_SEGMENTS)


def export_segments() -> list[str]:
    """Names of the segments held by live, unreleased shard exports."""
    return sorted(name for name, ex in list(_EXPORTS.items()) if not ex.released)


def release_exports() -> None:
    """Free the segment of every live shard export; the next run on
    each graph exports it again."""
    for export in list(_EXPORTS.values()):
        export.release()


def _free_segment(shm, owner_pid: int) -> None:
    """Unlink ``shm`` (idempotent); a forked child never frees its
    parent's segments."""
    if os.getpid() != owner_pid:
        return
    try:
        shm.close()
    except BufferError:  # a view still alive; the mapping goes with it
        pass
    try:
        shm.unlink()
    except FileNotFoundError:
        pass
    _SEGMENTS.pop(shm.name, None)


def _attach_segment(name: str, *, track: bool):
    """Attach an existing segment by name.

    ``track=False`` is for **spawn- and forkserver-context worker
    processes**: before 3.13 merely *attaching* registers the segment
    with the resource tracker — and since those children inherit the
    parent's tracker fd, that registration lands in (or is later torn
    out of) the *creator's* tracker.  Registration must therefore be
    suppressed at attach time; unregistering after the fact would strip
    the creator's entry and make the creator's own ``unlink`` a
    double-unregister (tracker ``KeyError`` noise at exit).
    Fork-context workers share the parent's tracker where registration
    is an idempotent set-add, so they pass ``track=True``.
    """
    from multiprocessing import shared_memory

    if track:
        return shared_memory.SharedMemory(name=name)
    try:  # pragma: no cover - depends on interpreter internals
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original
    except ImportError:
        return shared_memory.SharedMemory(name=name)


# ----------------------------------------------------------------------
# The export
# ----------------------------------------------------------------------
class ShardExport:
    """Per-shard local CSRs, edge pairs and boundary arcs of one graph
    under one plan (see the module docstring for the layout).

    ``layout[i]`` is shard ``i``'s ``(rp, cols, eu, ev, end)`` offsets
    into :meth:`data`; ``sorted_adj`` whether every shard's adjacency
    lists are sorted; ``boundary_u``/``boundary_v`` every shard's low-half boundary
    arcs, ``shard_boundary[i]`` shard ``i``'s count of them.  Runs hold
    :attr:`lock` from the first label write to the copy-out, so two
    runs never share the label region, and :meth:`release` never frees
    the storage under a run.
    """

    def __init__(self, graph: CSRGraph, ranges: list[tuple[int, int]], *, shared: bool) -> None:
        n = graph.num_vertices
        self.num_vertices = n
        self.ranges = list(ranges)
        self.graph_name = graph.name
        self.lock = threading.Lock()
        self.released = False
        # Filtering rows keeps their order, so a sorted graph's shards
        # are sorted; otherwise the local solve checks for itself.
        self.sorted_adj = graph.has_sorted_adjacency()

        # A shard's local edges and its low-half boundary arcs split the
        # graph's own edge pairs (u < v, ascending u) whose u falls in
        # the shard: v inside the shard or past its end.
        gu, gv = graph.edge_array()
        row_ptr, col_idx = graph.row_ptr, graph.col_idx
        plans, bus, bvs = [], [], []
        pos = n if shared else 0  # the label region
        tracer = current_tracer()
        for s, e in self.ranges:
            cols = col_idx[int(row_ptr[s]) : int(row_ptr[e])]
            mask = (cols >= s) & (cols < e)
            lo, hi = (int(x) for x in np.searchsorted(gu, (s, e)))
            with tracer.span("shard:boundary", category="shard") as span:
                inside = gv[lo:hi] < e
                outside = ~inside
                bus.append(gu[lo:hi][outside])
                bvs.append(gv[lo:hi][outside])
                span.set("boundary", int(bus[-1].size))
            local_edges = int(np.count_nonzero(inside))
            sizes = (e - s + 1, int(np.count_nonzero(mask)), local_edges, local_edges)
            offsets = [pos]
            for size in sizes:
                pos += size
                offsets.append(pos)
            plans.append((cols, mask, lo, hi, inside, tuple(offsets)))
        self.layout = [p[-1] for p in plans]
        empty = [np.empty(0, dtype=np.int64)]
        self.boundary_u = np.concatenate(empty + bus)
        self.boundary_v = np.concatenate(empty + bvs)
        self.boundary_u.setflags(write=False)
        self.boundary_v.setflags(write=False)
        self.shard_boundary = [int(b.size) for b in bus]
        self.size = pos
        self.nbytes = pos * 8

        self.segment = None
        self._heap = None
        if shared:
            from multiprocessing import shared_memory

            shm = shared_memory.SharedMemory(create=True, size=max(8, self.nbytes))
            _SEGMENTS[shm.name] = shm
            self.segment = shm.name
            self._shm = shm
            self._finalizer = weakref.finalize(self, _free_segment, shm, os.getpid())
            _EXPORTS[shm.name] = self
        else:
            self._heap = np.empty(pos, dtype=np.int64)
        data = self.data()
        for (s, e), (cols, mask, lo, hi, inside, offs) in zip(self.ranges, plans):
            o_rp, o_cols, o_eu, o_ev, o_end = offs
            slice_csr(
                row_ptr[s : e + 1], cols, s, e, mask=mask,
                out=(data[o_rp:o_cols], data[o_cols:o_eu]),
            )
            for g_arr, at, stop in ((gu, o_eu, o_ev), (gv, o_ev, o_end)):
                np.subtract(g_arr[lo:hi][inside], s, out=data[at:stop])
        del data  # no view of the segment outlives a call

    def data(self) -> np.ndarray:
        """The storage array: a fresh view of the segment (drop it after
        use, so the segment can be closed) or the in-process array."""
        if self._heap is not None:
            return self._heap
        return np.ndarray(self.size, dtype=np.int64, buffer=self._shm.buf)

    def release(self) -> None:
        """Free the storage (idempotent); waits for a run in progress.
        The graph's memo keeps the released export until the next run
        on the graph replaces it."""
        with self.lock:
            if self.released:
                return
            self.released = True
            self._heap = None
            if self.segment is not None:
                self._finalizer()
                self._shm = None
                _EXPORTS.pop(self.segment, None)


def shard_export(graph: CSRGraph, plan, *, shared: bool) -> tuple[ShardExport, bool]:
    """The graph's memoised export for ``plan``, built on first use;
    returns ``(export, reused)``.  Traced as ``shard:export`` (the
    build's ``shard:slice``/``shard:boundary`` spans nest under it)."""
    key = ("shard_export", plan.starts.tobytes(), shared)
    with current_tracer().span("shard:export", category="shard", shared=shared) as span:
        export = graph._derived.get(key)
        reused = export is not None and not export.released
        if not reused:
            export = ShardExport(graph, plan.ranges(), shared=shared)
            graph._derived[key] = export
        span.update(reused=reused, bytes=export.nbytes)
    return export, reused
