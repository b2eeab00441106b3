"""Shard solves: the local solve of an exported shard, and its process entry.

:func:`solve_into` is the per-shard computation of the ``sharded``
backend: build the shard's local graph from its
:class:`~repro.shard.export.ShardExport` arrays, seed the local graph's
``edge_array()`` and sorted-adjacency memo from them, run a registered
ECL-CC backend, and write the shard's global labels.  The inline mode,
the process workers and the inline fallback of a failed shard all call
it; none of them slices.

:func:`shard_worker` is the picklable process entry point the
:class:`~repro.shard.runner.ShardedExecutor` submits to its pool.  It
attaches the export's shared segment (the mapping is cached, so a warm
worker attaches each segment once), solves its shard into the
segment's label region, and returns only spans recorded under the
worker's own tracer (folded into the parent trace by the runner) and
its timing.

:func:`solve_shard_local`, :func:`solve_csr_slice` and
:func:`solve_slice_all_arcs` slice and solve in one step, for callers
that see a shard once: the out-of-core streamer feeds spilled shards
to :func:`solve_csr_slice`, and the distributed hosts call
:func:`solve_slice_all_arcs` for the cross arcs in both directions.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext

import numpy as np

from ..errors import WorkerCrashError
from ..graph.csr import CSRGraph
from ..observe import Tracer, current_tracer
from .export import _attach_segment, slice_csr

__all__ = [
    "shard_worker",
    "solve_csr_slice",
    "solve_into",
    "solve_shard_local",
    "solve_slice_all_arcs",
]

#: Backends a shard may run locally.  Deliberately excludes "sharded"
#: (no recursive process trees) and the simulated-hardware backends,
#: whose modeled clocks are meaningless inside a wall-clock shard.
SHARD_BACKENDS = ("numpy", "contract", "serial", "fastsv")


def solve_into(
    out: np.ndarray,
    data: np.ndarray,
    layout: tuple[int, ...],
    start: int,
    end: int,
    *,
    backend: str,
    sorted_adj: bool,
    name: str,
) -> None:
    """Solve one exported shard and write ``out[start:end]``.

    ``data`` is the export's storage array and ``layout`` the shard's
    ``(rp, cols, eu, ev, end)`` offsets into it; ``sorted_adj`` says the
    shard's adjacency lists are known to be sorted.  The labels written
    are the induced subgraph's min-member labels, shifted to global ids.
    """
    if end <= start:
        return
    o_rp, o_cols, o_eu, o_ev, o_end = layout
    local = CSRGraph(data[o_rp:o_cols], data[o_cols:o_eu], name=name)
    eu, ev = data[o_eu:o_ev], data[o_ev:o_end]
    eu.setflags(write=False)
    ev.setflags(write=False)
    local._derived["edge_uv"] = (eu, ev)
    if sorted_adj:
        local._derived["sorted_adj"] = True

    from ..core.api import connected_components

    labels = connected_components(local, backend=backend, full_result=False)
    np.add(labels, start, out=out[start:end])


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
    rp = graph.row_ptr[start : end + 1]
    cols = graph.col_idx[int(rp[0]) : int(rp[-1])] if end > start else graph.col_idx[:0]
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
    return _solve_slice(rp, cols, start, end, backend, name, low_half=True)


def solve_slice_all_arcs(
    rp: np.ndarray,
    cols: np.ndarray,
    start: int,
    end: int,
    backend: str = "numpy",
    name: str = "shard",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`solve_csr_slice`, but keeping the cross arcs in *both*
    directions: every arc ``(u, v)`` with ``u`` in ``[start, end)`` and
    ``v`` outside it, in CSR order.  A distributed host needs that full
    frontier; the sharded merge stitches each edge once, from its low
    endpoint."""
    return _solve_slice(rp, cols, start, end, backend, name, low_half=False)


def _solve_slice(rp, cols, start, end, backend, name, *, low_half):
    """Slice, solve, and return the cross arcs (only ``u < v`` if ``low_half``)."""
    if end <= start:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    rp = np.asarray(rp)
    local_rp, local_cols, local_mask = slice_csr(rp, cols, start, end)

    from ..core.api import connected_components

    local = CSRGraph(local_rp, local_cols, name=name)
    labels = connected_components(local, backend=backend, full_result=False)
    labels = labels + start

    # Cross arcs stay in row order, so their sources are the shard's
    # vertices, each repeated by its count of arcs leaving the shard.
    with current_tracer().span("shard:boundary", category="shard") as span:
        bu = np.repeat(
            np.arange(start, end, dtype=np.int64), np.diff(rp) - np.diff(local_rp)
        )
        # A plain ndarray even when cols is an np.memmap view (boolean
        # indexing preserves the subclass).
        bv = np.asarray(cols[~local_mask])
        if low_half:
            keep = bu < bv
            bu, bv = bu[keep], bv[keep]
        span.set("boundary", int(bu.size))
    return labels, bu, bv


# ----------------------------------------------------------------------
# Process entry point
# ----------------------------------------------------------------------
#: Per-process cache of shared-memory attachments, keyed by segment
#: name.  A warm pool worker attaches an export's segment on first use
#: and reuses the mapping while its tasks keep naming that segment.
_ATTACHMENTS: dict[str, object] = {}


def _attach(name: str, *, track: bool):
    """The mapping of ``name``, cached; other cached mappings are closed
    first, as a released export's unlinked segment would stay pinned."""
    for other in [n for n in _ATTACHMENTS if n != name]:
        try:
            _ATTACHMENTS[other].close()
        except BufferError:  # a view outlived its task; retry next task
            continue
        del _ATTACHMENTS[other]
    if name not in _ATTACHMENTS:
        _ATTACHMENTS[name] = _attach_segment(name, track=track)
    return _ATTACHMENTS[name]


def _exit_with_parent() -> None:
    """Pool initializer: exit once the pool's parent dies, even by
    ``SIGKILL``, instead of waiting on its queue forever."""
    import multiprocessing
    import threading
    from multiprocessing.connection import wait

    sentinel = multiprocessing.parent_process().sentinel
    threading.Thread(target=lambda: (wait([sentinel]), os._exit(1)), daemon=True).start()


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

    ``task`` keys: ``segment`` (the export's shared segment) and
    ``size`` (its length in ``int64``), ``layout``/``sorted_adj``/``name``
    (the shard's entries of the export), ``start``/``end``/``shard``,
    ``backend``, ``track`` (resource-tracker policy: ``True`` for fork
    workers, ``False`` otherwise), ``trace`` (record spans), ``crash``
    (injected :class:`WorkerCrashError`, from the fault plan).
    """
    t0 = time.perf_counter()
    if task.get("crash"):
        raise WorkerCrashError(
            f"injected worker crash in shard {task['shard']}",
            shard=task["shard"],
            pid=os.getpid(),
        )
    shm = _attach(task["segment"], track=task.get("track", True))
    start, end = task["start"], task["end"]

    tracer = Tracer() if task.get("trace") else None
    with tracer if tracer is not None else nullcontext():
        with current_tracer().span("shard:solve", category="shard", shard=task["shard"]):
            data = np.ndarray(task["size"], dtype=np.int64, buffer=shm.buf)
            solve_into(
                data, data, task["layout"], start, end, backend=task["backend"],
                sorted_adj=task["sorted_adj"], name=task["name"],
            )
            del data  # no view of the segment outlives the task

    return {
        "shard": task["shard"],
        "pid": os.getpid(),
        "spans": _serialize_spans(tracer.spans) if tracer is not None else [],
        "duration_ms": (time.perf_counter() - t0) * 1e3,
    }
