"""Mixed read/write load generator for :class:`repro.ConnectivityService`.

The serving claim behind the service layer is throughput under *mixed*
traffic: mostly reads (``same_component`` / ``component_of``) with a
trickle of writes (edge insertions and deletions).  This module builds a
seeded, reproducible operation stream over a suite graph and measures

* the :class:`~repro.service.ConnectivityService` in synchronous
  micro-batched mode (the steady-state serving configuration), and
* a :class:`NaiveConnectivity` strawman that recomputes full
  connected components after every mutation — the throughput floor any
  serving layer must beat.

The stream is constructed so writes do real connectivity work: the
service is seeded with a random ~75% subset of the graph's edges and
insertions draw from the held-out remainder, so they genuinely merge
components rather than being duplicate no-ops.  Deletions tombstone
previously inserted edges and force static recomputes, exercising the
slow path too.

:func:`compare_loadgen` is what the wall-clock gate's ``service`` leg and the
``service-smoke`` CI job call; it returns queries/sec for both sides
plus the speedup, and differentially verifies the post-run
``labels_snapshot()`` against the scipy oracle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core.api import connected_components
from ..errors import VerificationError
from ..graph.csr import CSRGraph
from ..graph.build import from_arc_arrays
from ..service import BatchPolicy, ConnectivityService
from ..service.store import EdgeStore
from ..verify import reference_labels

__all__ = [
    "LoadgenOps",
    "LoadgenResult",
    "NaiveConnectivity",
    "build_ops",
    "compare_loadgen",
    "run_naive_loadgen",
    "run_service_loadgen",
]

# Op codes in the generated stream.
OP_SAME = 0  # same_component(u, v)
OP_COMPONENT = 1  # component_of(u)
OP_ADD = 2  # add edge (u, v)
OP_REMOVE = 3  # remove edge (u, v)


@dataclass(frozen=True)
class LoadgenOps:
    """A reproducible operation stream plus the seed graph it runs on."""

    seed_graph: CSRGraph  # the ~75% edge subset the service starts from
    op: np.ndarray  # op codes, int8
    u: np.ndarray  # first operand per op
    v: np.ndarray  # second operand (unused for OP_COMPONENT)
    read_fraction: float
    seed: int

    @property
    def num_ops(self) -> int:
        return int(self.op.size)

    @property
    def num_writes(self) -> int:
        return int(np.count_nonzero(self.op >= OP_ADD))


@dataclass
class LoadgenResult:
    """Throughput measurement of one loadgen run."""

    ops_executed: int
    reads: int
    writes: int
    elapsed_s: float
    qps: float
    extra: dict

    def to_dict(self) -> dict:
        d = dict(self.__dict__)
        d["extra"] = dict(self.extra)
        return d


def build_ops(
    graph: CSRGraph,
    *,
    num_ops: int = 20_000,
    read_fraction: float = 0.90,
    holdout_fraction: float = 0.25,
    delete_fraction: float = 0.20,
    seed: int = 0,
) -> LoadgenOps:
    """Build a seeded mixed read/write op stream for ``graph``.

    ``holdout_fraction`` of the graph's edges are withheld from the seed
    graph and fed back as insertions (real merges).  Of the write
    budget, ``delete_fraction`` are deletions of edges known to be
    present at that point in the stream.  Reads split evenly between
    ``same_component`` and ``component_of`` over uniform random
    vertices.
    """
    if not 0.0 <= read_fraction <= 1.0:
        raise ValueError("read_fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    n = graph.num_vertices
    eu, ev = graph.edge_array()
    m = eu.size

    num_held = int(m * holdout_fraction)
    perm = rng.permutation(m)
    held = perm[:num_held]
    kept = perm[num_held:]
    seed_graph = from_arc_arrays(
        eu[kept], ev[kept], num_vertices=n, name=f"{graph.name}:seed"
    )

    num_writes = num_ops - int(round(num_ops * read_fraction))
    num_deletes = int(num_writes * delete_fraction)
    num_inserts = num_writes - num_deletes
    # Insertions cycle through the held-out edges; once exhausted they
    # repeat (duplicate inserts are legal no-ops, keeping rates honest).
    if num_held:
        ins_idx = held[np.arange(num_inserts) % num_held]
    else:
        ins_idx = np.zeros(num_inserts, dtype=np.int64)
    ins_u, ins_v = eu[ins_idx], ev[ins_idx]
    # Deletions target kept (always-present) edges.
    if kept.size:
        del_idx = kept[rng.integers(0, kept.size, size=num_deletes)]
    else:
        del_idx = np.zeros(num_deletes, dtype=np.int64)
    del_u, del_v = eu[del_idx], ev[del_idx]

    op = np.empty(num_ops, dtype=np.int8)
    u = np.empty(num_ops, dtype=np.int64)
    v = np.empty(num_ops, dtype=np.int64)
    # Interleave: writes spread uniformly through the stream.
    write_slots = rng.choice(num_ops, size=num_writes, replace=False)
    is_write = np.zeros(num_ops, dtype=bool)
    is_write[write_slots] = True
    read_slots = np.flatnonzero(~is_write)

    # Reads: half same_component, half component_of, uniform vertices.
    nr = read_slots.size
    op[read_slots] = np.where(rng.random(nr) < 0.5, OP_SAME, OP_COMPONENT)
    u[read_slots] = rng.integers(0, n, size=nr)
    v[read_slots] = rng.integers(0, n, size=nr)

    # Writes: inserts first then deletes within the slot order, so
    # deletes tombstone edges that exist.
    ws = np.sort(write_slots)
    ins_slots = ws[:num_inserts]
    del_slots = ws[num_inserts:]
    op[ins_slots] = OP_ADD
    u[ins_slots] = ins_u
    v[ins_slots] = ins_v
    op[del_slots] = OP_REMOVE
    u[del_slots] = del_u
    v[del_slots] = del_v

    return LoadgenOps(
        seed_graph=seed_graph,
        op=op,
        u=u,
        v=v,
        read_fraction=read_fraction,
        seed=seed,
    )


def run_service_loadgen(
    ops: LoadgenOps,
    *,
    policy: BatchPolicy | None = None,
    duration_s: float | None = None,
) -> tuple[LoadgenResult, ConnectivityService]:
    """Drive a synchronous-mode service through the op stream.

    Synchronous mode (no flusher thread) keeps the measurement
    deterministic and single-threaded: mutations buffer and apply on the
    size trigger, with a final flush included in the timing.  With
    ``duration_s`` set, the stream repeats (fresh pass over the same
    ops) until the wall-clock budget is spent — the CI burst mode.
    """
    policy = policy or BatchPolicy()
    svc = ConnectivityService(ops.seed_graph, policy=policy, start=False)
    op, u, v = ops.op, ops.u, ops.v
    num_ops = ops.num_ops
    reads = writes = executed = 0
    start = time.perf_counter()
    while True:
        for i in range(num_ops):
            code = op[i]
            if code == OP_SAME:
                svc.same_component(int(u[i]), int(v[i]))
                reads += 1
            elif code == OP_COMPONENT:
                svc.component_of(int(u[i]))
                reads += 1
            elif code == OP_ADD:
                svc.add_edge(int(u[i]), int(v[i]))
                writes += 1
            else:
                svc.remove_edge(int(u[i]), int(v[i]))
                writes += 1
        executed += num_ops
        if duration_s is None or time.perf_counter() - start >= duration_s:
            break
    svc.flush()
    elapsed = time.perf_counter() - start
    result = LoadgenResult(
        ops_executed=executed,
        reads=reads,
        writes=writes,
        elapsed_s=elapsed,
        qps=executed / elapsed if elapsed > 0 else 0.0,
        extra={
            "service_stats": svc.stats.to_dict(),
            "final_components": svc.component_count(),
            "final_edges": svc.num_edges,
            "version": svc.version,
        },
    )
    return result, svc


class NaiveConnectivity:
    """The strawman baseline: full static recompute per mutation.

    Same query/mutation surface as the service (same EdgeStore
    underneath), but every ``add_edge``/``remove_edge`` rebuilds the CSR
    graph and reruns :func:`repro.connected_components` before
    returning.  This is what "just call the batch solver again" costs.
    """

    def __init__(self, graph: CSRGraph, *, backend: str = "numpy") -> None:
        self._store = EdgeStore.from_graph(graph)
        self._backend = backend
        self._labels = connected_components(
            graph, backend=backend, full_result=False
        )

    def _recompute(self) -> None:
        self._labels = connected_components(
            self._store.to_graph(), backend=self._backend, full_result=False
        )

    def add_edge(self, u: int, v: int) -> None:
        nu, _ = self._store.insert([u], [v])
        if nu.size:
            self._recompute()

    def remove_edge(self, u: int, v: int) -> None:
        if self._store.delete([u], [v]):
            self._recompute()

    def same_component(self, u: int, v: int) -> bool:
        return bool(self._labels[u] == self._labels[v])

    def component_of(self, v: int) -> int:
        return int(self._labels[v])

    def labels_snapshot(self) -> np.ndarray:
        return self._labels


def run_naive_loadgen(
    ops: LoadgenOps,
    *,
    backend: str = "numpy",
    max_ops: int | None = 2_000,
    min_writes: int = 5,
) -> LoadgenResult:
    """Measure the naive baseline over a *prefix* of the op stream.

    The per-mutation recompute is orders of magnitude slower than the
    service, so running the full stream would dominate gate wall-clock
    for no extra information; instead the baseline rate is measured over
    a capped prefix that still contains at least ``min_writes``
    mutations (extending past the cap if needed), and reported as
    ops/sec over that prefix.
    """
    naive = NaiveConnectivity(ops.seed_graph, backend=backend)
    op, u, v = ops.op, ops.u, ops.v
    limit = ops.num_ops if max_ops is None else min(max_ops, ops.num_ops)
    # Ensure the prefix exercises the write path.
    write_positions = np.flatnonzero(op >= OP_ADD)
    if write_positions.size >= min_writes:
        limit = max(limit, int(write_positions[min_writes - 1]) + 1)
    reads = writes = 0
    start = time.perf_counter()
    for i in range(limit):
        code = op[i]
        if code == OP_SAME:
            naive.same_component(int(u[i]), int(v[i]))
            reads += 1
        elif code == OP_COMPONENT:
            naive.component_of(int(u[i]))
            reads += 1
        elif code == OP_ADD:
            naive.add_edge(int(u[i]), int(v[i]))
            writes += 1
        else:
            naive.remove_edge(int(u[i]), int(v[i]))
            writes += 1
    elapsed = time.perf_counter() - start
    return LoadgenResult(
        ops_executed=limit,
        reads=reads,
        writes=writes,
        elapsed_s=elapsed,
        qps=limit / elapsed if elapsed > 0 else 0.0,
        extra={"backend": backend, "capped": limit < ops.num_ops},
    )


def compare_loadgen(
    graph: CSRGraph,
    *,
    num_ops: int = 20_000,
    read_fraction: float = 0.90,
    seed: int = 0,
    policy: BatchPolicy | None = None,
    naive_max_ops: int | None = 2_000,
) -> dict:
    """Service-vs-naive throughput on one graph; the gate's service row.

    Returns a dict with ``service_qps``, ``naive_qps``,
    ``service_speedup`` and the two raw results.  The service's final
    ``labels_snapshot()`` is differentially checked against the scipy
    oracle on the final edge set (raises :class:`VerificationError` on
    mismatch).
    """
    ops = build_ops(
        graph, num_ops=num_ops, read_fraction=read_fraction, seed=seed
    )
    service_res, svc = run_service_loadgen(ops, policy=policy)
    naive_res = run_naive_loadgen(ops, max_ops=naive_max_ops)
    if not np.array_equal(svc.labels_snapshot(), reference_labels(svc.current_graph())):
        raise VerificationError(
            f"service labels diverged from oracle on {graph.name} (seed={seed})"
        )
    return {
        "graph": graph.name,
        "num_vertices": graph.num_vertices,
        "num_ops": ops.num_ops,
        "read_fraction": read_fraction,
        "seed": seed,
        "service_qps": service_res.qps,
        "naive_qps": naive_res.qps,
        "service_speedup": (
            service_res.qps / naive_res.qps if naive_res.qps > 0 else float("inf")
        ),
        "verified": True,
        "service": service_res.to_dict(),
        "naive": naive_res.to_dict(),
    }
