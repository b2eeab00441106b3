"""Worker-process side of the sharded executor.

:func:`solve_shard_local` is the pure per-shard computation: slice one
contiguous vertex range of a CSR graph into a local CSR (one ``cumsum``
over an arc mask — no renumbering table, a property of contiguous
partitions), run a registered ECL-CC backend on it, and report the
shard's global labels plus its cross-shard boundary arcs.

:func:`shard_worker` is the picklable process entry point the
:class:`~repro.shard.runner.ShardedExecutor` submits to its pool.  It
reads the graph zero-copy out of shared memory (attachments are cached
per process, so a persistent pool attaches each segment once), writes
its label slice into the shared output segment, and returns only small
metadata: boundary arcs, spans recorded under the worker's own tracer
(folded into the parent trace by the runner), and counters.
"""

from __future__ import annotations

import os
import time

import numpy as np

from ..errors import WorkerCrashError
from ..graph.csr import CSRGraph, SharedGraphHandle, _attach_segment
from ..observe import Tracer

__all__ = ["shard_worker", "solve_csr_slice", "solve_shard_local"]

#: Backends a shard may run locally.  Deliberately excludes "sharded"
#: (no recursive process trees) and the simulated-hardware backends,
#: whose modeled clocks are meaningless inside a wall-clock shard.
SHARD_BACKENDS = ("numpy", "contract", "serial", "fastsv")


def solve_shard_local(
    graph: CSRGraph, start: int, end: int, backend: str = "numpy"
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve the subgraph induced by vertices ``[start, end)``.

    Returns ``(labels, boundary_u, boundary_v)``:

    ``labels``
        Global min-member labels of the *induced* subgraph, length
        ``end - start`` (local labels shifted by ``start``).
    ``boundary_u`` / ``boundary_v``
        Cross-shard arcs ``(u, v)`` with ``u`` in this shard and ``v``
        outside it, filtered to ``u < v`` — each cross-shard undirected
        edge is seen by both endpoint shards, so keeping the
        low-endpoint direction emits it exactly once globally.
    """
    count = end - start
    if count <= 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    rp = graph.row_ptr[start : end + 1]
    cols = graph.col_idx[int(rp[0]) : int(rp[-1])]
    return solve_csr_slice(
        rp, cols, start, end, backend=backend,
        name=f"{graph.name}[{start}:{end}]",
    )


def solve_csr_slice(
    rp: np.ndarray,
    cols: np.ndarray,
    start: int,
    end: int,
    backend: str = "numpy",
    name: str = "shard",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`solve_shard_local` on bare arrays instead of a whole graph.

    ``rp`` is the *global* ``row_ptr[start : end + 1]`` slice (offsets
    unrebased) and ``cols`` the matching ``col_idx`` slice — exactly the
    two arrays a spilled shard stores on disk, so the out-of-core
    streamer (:mod:`repro.outofcore`) feeds ``np.memmap`` views here
    without the full graph ever existing in memory.  Same return shape
    as :func:`solve_shard_local`.
    """
    count = end - start
    if count <= 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    base = int(rp[0])
    local_mask = (cols >= start) & (cols < end)

    # Local CSR: prefix-sum the kept-arc mask, gather at the old row
    # boundaries.  O(shard) time, independent of the rest of the graph.
    csum = np.empty(cols.size + 1, dtype=np.int64)
    csum[0] = 0
    np.cumsum(local_mask, out=csum[1:])
    local_rp = csum[np.asarray(rp) - base]
    local_cols = np.asarray(cols[local_mask]) - start
    local = CSRGraph(local_rp, local_cols, name=name)

    from ..core.api import connected_components

    labels = connected_components(local, backend=backend, full_result=False)
    labels = labels + start

    # Boundary arcs: sources recovered from the arc offsets by one
    # searchsorted against the shard's row pointers.
    out_idx = np.flatnonzero(~local_mask)
    if out_idx.size:
        bu = np.searchsorted(rp, out_idx + base, side="right") - 1 + start
        bv = cols[out_idx]
        keep = bu < bv
        # Plain contiguous ndarrays even when cols is an np.memmap view
        # (fancy indexing preserves the subclass).
        bu = np.ascontiguousarray(bu[keep]).view(np.ndarray)
        bv = np.ascontiguousarray(bv[keep]).view(np.ndarray)
    else:
        bu = np.empty(0, dtype=np.int64)
        bv = np.empty(0, dtype=np.int64)
    return labels, bu, bv


# ----------------------------------------------------------------------
# Process entry point
# ----------------------------------------------------------------------
#: Per-process cache of shared-memory attachments, keyed by segment
#: name.  A persistent pool worker attaches each graph/label segment on
#: first use and reuses the mapping for every later task.
_ATTACHMENTS: dict[str, object] = {}


def _attached(name: str, *, track: bool):
    shm = _ATTACHMENTS.get(name)
    if shm is None:
        shm = _attach_segment(name, track=track)
        _ATTACHMENTS[name] = shm
    return shm


def _plain(value):
    """Numpy scalars -> python scalars so span attrs pickle small."""
    if isinstance(value, np.generic):
        return value.item()
    return value


def _serialize_spans(spans) -> list[dict]:
    return [
        {
            "name": s.name,
            "category": s.category,
            "attrs": {k: _plain(v) for k, v in s.attrs.items()},
            "parent": s.parent,
            "depth": s.depth,
            "start_ms": s.start_ms,
            "duration_ms": s.duration_ms,
        }
        for s in spans
    ]


def shard_worker(task: dict) -> dict:
    """Run one shard task inside a pool worker.

    ``task`` keys: ``graph`` (:class:`SharedGraphHandle`),
    ``labels_name`` (shared label segment), ``start``/``end``/``shard``,
    ``backend``, ``track`` (resource-tracker policy: ``True`` for fork
    workers, ``False`` for spawn), ``trace`` (record spans), ``crash``
    (injected :class:`WorkerCrashError`, from the fault plan).
    """
    t0 = time.perf_counter()
    if task.get("crash"):
        raise WorkerCrashError(
            f"injected worker crash in shard {task['shard']}",
            shard=task["shard"],
            pid=os.getpid(),
        )
    handle: SharedGraphHandle = task["graph"]
    track = task.get("track", True)
    # Attach through the per-process cache (handle.attach would create a
    # fresh mapping per task).
    handle._shm = _attached(handle.shm_name, track=track)
    graph = CSRGraph.from_shared(handle)
    start, end, shard = task["start"], task["end"], task["shard"]

    tracer = Tracer() if task.get("trace") else None
    if tracer is not None:
        with tracer:
            labels, bu, bv = solve_shard_local(
                graph, start, end, backend=task["backend"]
            )
    else:
        labels, bu, bv = solve_shard_local(graph, start, end, backend=task["backend"])

    lshm = _attached(task["labels_name"], track=track)
    out = np.ndarray(handle.num_vertices, dtype=np.int64, buffer=lshm.buf)
    out[start:end] = labels

    return {
        "shard": shard,
        "pid": os.getpid(),
        "bu": bu,
        "bv": bv,
        "vertices": end - start,
        "boundary": int(bu.size),
        "spans": _serialize_spans(tracer.spans) if tracer is not None else [],
        "duration_ms": (time.perf_counter() - t0) * 1e3,
    }
