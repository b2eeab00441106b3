"""Sharded multi-process ECL-CC: partition → per-shard solve → merge.

The executor partitions a :class:`~repro.graph.csr.CSRGraph` into K
contiguous shards (:mod:`repro.shard.partition`), solves each shard's
induced subgraph with a registered backend, and merges the cross-shard
boundary arcs with a vectorized union-find pass built from the
:mod:`repro.core.frontier` primitives.  The result is canonical
min-member labels, bit-identical to the serial oracle: shard-local
labels are local component minima, every boundary arc is fed to the
merge exactly once, and hooking only ever replaces a root's parent with
a smaller member of the same component — the same invariant every other
backend in this library rests on.

Two execution modes share that identical dataflow:

*inline*
    Shards solved sequentially in the calling process.  The default for
    small graphs (below ``min_parallel`` arcs), where process transport
    would dwarf the work; also the correctness baseline the metamorphic
    suite leans on, since both modes produce the same labels by
    construction.
*processes*
    Real ``multiprocessing`` workers in a persistent pool, reading the
    CSR arrays zero-copy from a ``multiprocessing.shared_memory``
    segment (:meth:`CSRGraph.to_shared`) and writing their label slices
    into a second shared segment.  Only boundary arcs, spans, and
    counters cross the process boundary by value.

Worker failures follow :mod:`repro.resilience` semantics: a crashed
shard is retried (``max_retries`` per shard), then recomputed inline in
the parent — degradation, not failure — with the full history recorded
as :class:`~repro.resilience.RecoveryInfo` on ``CCResult.recovery``.
Injected crashes come from a :class:`~repro.resilience.FaultPlan` whose
``worker_crash`` specs target ``backend="sharded"`` with ``at`` naming
the shard index.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from ..core.ecl_cc_numpy import NumpyRunStats
from ..core.frontier import flatten_active, hook_until_fixpoint
from ..core.result import CCResult
from ..graph.csr import (
    CSRGraph,
    _forget_shared_segment,
    _register_shared_segment,
)
from ..observe import Span, current_tracer
from .partition import ShardPlan, make_plan
from .worker import SHARD_BACKENDS, shard_worker, solve_shard_local

__all__ = [
    "ShardedExecutor",
    "ShardedRunStats",
    "merge_boundary",
    "sharded_cc",
]

#: Arc count below which the inline path is always taken (process
#: transport costs more than the whole solve at this size).
DEFAULT_MIN_PARALLEL = 200_000


def _default_workers() -> int:
    try:
        avail = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        avail = os.cpu_count() or 1
    return max(1, min(4, avail))


@dataclass
class ShardedRunStats:
    """Counters for one sharded run (``CCResult.stats``)."""

    num_shards: int = 0
    workers: int = 0
    partitioner: str = "range"
    shard_backend: str = "numpy"
    mode: str = "inline"  # "inline" | "processes"
    start_method: str = ""
    shard_vertices: list[int] = field(default_factory=list)
    shard_arcs: list[int] = field(default_factory=list)
    shard_boundary: list[int] = field(default_factory=list)
    boundary_edges: int = 0
    merge_rounds: int = 0
    retries: int = 0
    fallbacks: int = 0

    def to_dict(self) -> dict:
        return {
            "num_shards": self.num_shards,
            "workers": self.workers,
            "partitioner": self.partitioner,
            "shard_backend": self.shard_backend,
            "mode": self.mode,
            "start_method": self.start_method,
            "shard_vertices": list(self.shard_vertices),
            "shard_arcs": list(self.shard_arcs),
            "shard_boundary": list(self.shard_boundary),
            "boundary_edges": self.boundary_edges,
            "merge_rounds": self.merge_rounds,
            "retries": self.retries,
            "fallbacks": self.fallbacks,
        }


def merge_boundary(
    labels: np.ndarray,
    boundary_u: np.ndarray,
    boundary_v: np.ndarray,
    stats: ShardedRunStats | None = None,
) -> np.ndarray:
    """Merge shard-local min-member labels across boundary arcs.

    ``labels`` is mutated in place and returned.  The boundary arcs are
    hooked to a fixpoint by
    :func:`~repro.core.frontier.hook_until_fixpoint` (the frontier
    formulation's hook loop, so the same benign-race serialization
    argument applies; ``stats.merge_rounds`` counts its hook rounds), and
    the final :func:`flatten_active` resolves every vertex to its global
    component minimum.
    """
    rounds = NumpyRunStats()
    hook_until_fixpoint(labels, boundary_u, boundary_v, stats=rounds)
    if stats is not None:
        stats.merge_rounds += rounds.hook_rounds
    flatten_active(labels)
    return labels


class ShardedExecutor:
    """Reusable sharded solver for one graph.

    Construction partitions the graph and — in process mode — exports
    it to shared memory and warms a persistent worker pool, so repeated
    :meth:`run` calls (the serving/benchmark pattern) pay transport and
    fork cost once.  Use as a context manager, or call :meth:`close`;
    segments never freed are reclaimed by the atexit guard in
    :mod:`repro.graph.csr`.
    """

    def __init__(
        self,
        graph: CSRGraph,
        *,
        workers: int | None = None,
        partitioner: str | ShardPlan = "range",
        shard_backend: str = "numpy",
        min_parallel: int = DEFAULT_MIN_PARALLEL,
        force_processes: bool = False,
        fault_plan=None,
        max_retries: int = 1,
        start_method: str | None = None,
    ) -> None:
        if shard_backend not in SHARD_BACKENDS:
            raise ValueError(
                f"invalid shard_backend {shard_backend!r}; "
                f"choose from {SHARD_BACKENDS}"
            )
        self.graph = graph
        self.workers = _default_workers() if workers is None else int(workers)
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        self.shard_backend = shard_backend
        self.fault_plan = fault_plan
        self.max_retries = int(max_retries)
        self.plan = make_plan(graph, self.workers, partitioner)
        self.use_processes = bool(
            force_processes
            or (
                self.workers > 1
                and self.plan.num_shards > 1
                and graph.num_arcs >= min_parallel
            )
        )
        self._pool = None
        self._graph_handle = None
        self._labels_shm = None
        self._start_method = ""
        self._track = True
        if self.use_processes:
            self._setup_processes(start_method)

    # -- process-mode plumbing ----------------------------------------
    def _setup_processes(self, start_method: str | None) -> None:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import shared_memory

        methods = multiprocessing.get_all_start_methods()
        method = start_method or ("fork" if "fork" in methods else "spawn")
        ctx = multiprocessing.get_context(method)
        self._start_method = method
        # Fork workers share the parent's resource tracker (registration
        # is an idempotent set-add); spawn workers own a private tracker
        # that must not claim the parent's segments.
        self._track = method == "fork"
        self._graph_handle = self.graph.to_shared()
        n = self.graph.num_vertices
        self._labels_shm = shared_memory.SharedMemory(
            create=True, size=max(8, n * 8)
        )
        _register_shared_segment(self._labels_shm)
        pool_size = min(self.workers, max(1, self.plan.num_shards))
        self._pool = ProcessPoolExecutor(max_workers=pool_size, mp_context=ctx)

    def close(self) -> None:
        """Shut the pool down and free the shared segments (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._labels_shm is not None:
            name = self._labels_shm.name
            try:
                self._labels_shm.close()
            except BufferError:  # a view still alive; atexit retries
                pass
            else:
                try:
                    self._labels_shm.unlink()
                except FileNotFoundError:
                    pass
                _forget_shared_segment(name)
            self._labels_shm = None
        if self._graph_handle is not None:
            self._graph_handle.unlink()
            self._graph_handle = None

    def __enter__(self) -> "ShardedExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- execution ------------------------------------------------------
    def run(self) -> CCResult:
        """Solve the graph once; labels are a fresh array every call."""
        from ..resilience.supervisor import AttemptRecord, RecoveryInfo

        graph, plan = self.graph, self.plan
        n = graph.num_vertices
        tracer = current_tracer()
        stats = ShardedRunStats(
            num_shards=plan.num_shards,
            workers=self.workers,
            partitioner=plan.kind,
            shard_backend=self.shard_backend,
            mode="processes" if self.use_processes else "inline",
            start_method=self._start_method,
        )
        timings: dict[str, float] = {}
        recovery = RecoveryInfo(backend="sharded")

        t0 = time.perf_counter()
        with tracer.span(
            "shard:partition",
            category="shard",
            partitioner=plan.kind,
            num_shards=plan.num_shards,
            workers=self.workers,
            mode=stats.mode,
        ):
            ranges = plan.ranges()
            for i, (s, e) in enumerate(ranges):
                verts = e - s
                arcs = int(graph.row_ptr[e] - graph.row_ptr[s]) if verts else 0
                stats.shard_vertices.append(verts)
                stats.shard_arcs.append(arcs)
                if tracer.enabled:
                    tracer.gauge(f"shard.vertices.{i}", verts)
                    tracer.gauge(f"shard.arcs.{i}", arcs)
        timings["partition_ms"] = (time.perf_counter() - t0) * 1e3

        t0 = time.perf_counter()
        if n == 0:
            labels = np.empty(0, dtype=np.int64)
            boundary: list[tuple[np.ndarray, np.ndarray]] = []
        elif self.use_processes and self._pool is not None:
            labels, boundary = self._run_processes(ranges, stats, recovery, tracer)
        else:
            labels, boundary = self._run_inline(ranges, stats, tracer)
        timings["workers_ms"] = (time.perf_counter() - t0) * 1e3

        if boundary:
            bu = np.concatenate([b[0] for b in boundary])
            bv = np.concatenate([b[1] for b in boundary])
        else:
            bu = np.empty(0, dtype=np.int64)
            bv = np.empty(0, dtype=np.int64)
        stats.boundary_edges = int(bu.size)

        t0 = time.perf_counter()
        with tracer.span(
            "shard:merge",
            category="shard",
            boundary_edges=int(bu.size),
        ) as span:
            merge_boundary(labels, bu, bv, stats)
            span.set("merge_rounds", stats.merge_rounds)
        timings["merge_ms"] = (time.perf_counter() - t0) * 1e3
        if tracer.enabled:
            tracer.gauge("shard.boundary_edges", bu.size)
            tracer.count("shard.runs")

        recovery.verified = False
        return CCResult(
            labels=labels,
            backend="sharded",
            stats=stats,
            timings=timings,
            recovery=recovery if recovery.attempts else None,
        )

    def _run_inline(self, ranges, stats, tracer):
        labels = np.empty(self.graph.num_vertices, dtype=np.int64)
        boundary = []
        for i, (s, e) in enumerate(ranges):
            with tracer.span(
                "shard:worker",
                category="shard",
                shard=i,
                start=s,
                end=e,
                vertices=e - s,
                arcs=stats.shard_arcs[i],
            ) as span:
                lab, bu, bv = solve_shard_local(
                    self.graph, s, e, backend=self.shard_backend
                )
                span.set("boundary", int(bu.size))
            labels[s:e] = lab
            boundary.append((bu, bv))
            stats.shard_boundary.append(int(bu.size))
            if tracer.enabled:
                tracer.gauge(f"shard.boundary.{i}", bu.size)
        return labels, boundary

    def _armed_crash(self, shard: int, attempt: int) -> bool:
        plan = self.fault_plan
        if not plan:
            return False
        return any(
            spec.kind == "worker_crash" and spec.at == shard
            for spec in plan.for_backend("sharded", attempt)
        )

    def _run_processes(self, ranges, stats, recovery, tracer):
        from ..resilience.supervisor import AttemptRecord

        n = self.graph.num_vertices
        shared = np.ndarray(n, dtype=np.int64, buffer=self._labels_shm.buf)
        trace = bool(tracer.enabled)
        results: dict[int, dict] = {}
        fallback_slices: dict[int, np.ndarray] = {}
        boundary_parts: dict[int, tuple[np.ndarray, np.ndarray]] = {}

        def task_for(shard: int, attempt: int) -> dict:
            s, e = ranges[shard]
            return {
                "graph": self._graph_handle,
                "labels_name": self._labels_shm.name,
                "start": s,
                "end": e,
                "shard": shard,
                "backend": self.shard_backend,
                "track": self._track,
                "trace": trace,
                "crash": self._armed_crash(shard, attempt),
            }

        def fallback(shard: int, attempt: int) -> None:
            # Degrade: recompute this shard inline, ignoring the fault
            # plan (mirrors the supervisor's last-resort serial leg,
            # which injected faults cannot reach).
            stats.fallbacks += 1
            recovery.fallbacks += 1
            s, e = ranges[shard]
            t0 = time.perf_counter()
            lab, bu, bv = solve_shard_local(
                self.graph, s, e, backend=self.shard_backend
            )
            fallback_slices[shard] = lab
            boundary_parts[shard] = (bu, bv)
            results[shard] = {
                "shard": shard,
                "pid": None,
                "bu": bu,
                "bv": bv,
                "boundary": int(bu.size),
                "spans": [],
                "duration_ms": (time.perf_counter() - t0) * 1e3,
            }
            recovery.attempts.append(
                AttemptRecord(
                    backend="sharded",
                    attempt=attempt,
                    status="ok",
                    resumed=True,
                )
            )

        pending = {
            self._pool.submit(shard_worker, task_for(i, 0)): (i, 0)
            for i in range(len(ranges))
        }
        from concurrent.futures import wait

        broken = False
        while pending:
            done, _ = wait(pending)
            resubmit: list[tuple[int, int]] = []
            for fut in done:
                shard, attempt = pending.pop(fut)
                err = fut.exception()
                if err is None:
                    payload = fut.result()
                    results[shard] = payload
                    boundary_parts[shard] = (payload["bu"], payload["bv"])
                    if attempt:  # a retry that recovered
                        recovery.attempts.append(
                            AttemptRecord(
                                backend="sharded",
                                attempt=attempt,
                                status="ok",
                                duration_ms=payload["duration_ms"],
                            )
                        )
                    continue
                kind = getattr(err, "kind", type(err).__name__)
                recovery.attempts.append(
                    AttemptRecord(
                        backend="sharded",
                        attempt=attempt,
                        status="fault",
                        error=str(err),
                        error_kind=kind,
                    )
                )
                if tracer.enabled:
                    tracer.count("shard.worker_faults")
                broken = broken or _pool_is_broken(err)
                if attempt < self.max_retries and not broken:
                    stats.retries += 1
                    recovery.retries += 1
                    resubmit.append((shard, attempt + 1))
                else:
                    fallback(shard, attempt + 1)
            for shard, attempt in resubmit:
                if broken:
                    fallback(shard, attempt)
                else:
                    pending[
                        self._pool.submit(shard_worker, task_for(shard, attempt))
                    ] = (shard, attempt)

        labels = shared.copy()
        for shard, lab in fallback_slices.items():
            s, e = ranges[shard]
            labels[s:e] = lab
        del shared

        boundary = []
        for shard in range(len(ranges)):
            payload = results[shard]
            s, e = ranges[shard]
            stats.shard_boundary.append(int(payload["boundary"]))
            with tracer.span(
                "shard:worker",
                category="shard",
                shard=shard,
                start=s,
                end=e,
                vertices=e - s,
                arcs=stats.shard_arcs[shard],
                boundary=int(payload["boundary"]),
                pid=payload["pid"],
                fallback=shard in fallback_slices,
            ) as span:
                pass
            if tracer.enabled:
                # The worker already ran; stamp the span with its
                # measured duration so the folded children fit inside.
                span.duration_ms = payload["duration_ms"]
                tracer.gauge(f"shard.boundary.{shard}", payload["boundary"])
                if payload["spans"]:
                    _fold_child_spans(tracer, span, payload["spans"])
            boundary.append(boundary_parts[shard])
        return labels, boundary


def _pool_is_broken(err: BaseException) -> bool:
    from concurrent.futures.process import BrokenProcessPool

    return isinstance(err, BrokenProcessPool)


def _fold_child_spans(tracer, parent_span: Span, child_spans: list[dict]) -> None:
    """Reconstruct a worker's spans under ``parent_span`` in the parent
    trace: indices remapped past the current span list, depths nested
    below the worker span, start times kept relative to the worker span
    start (the worker tracer's epoch is the task start)."""
    base = len(tracer.spans)
    for d in child_spans:
        s = Span(d["name"], d["category"], dict(d["attrs"]), tracer)
        s.index = len(tracer.spans)
        s.parent = parent_span.index if d["parent"] < 0 else base + d["parent"]
        s.depth = parent_span.depth + 1 + d["depth"]
        s.start_ms = parent_span.start_ms + d["start_ms"]
        s.duration_ms = d["duration_ms"]
        tracer.spans.append(s)


def sharded_cc(
    graph: CSRGraph,
    *,
    workers: int | None = None,
    partitioner: str | ShardPlan = "range",
    shard_backend: str = "numpy",
    min_parallel: int = DEFAULT_MIN_PARALLEL,
    force_processes: bool = False,
    fault_plan=None,
    max_retries: int = 1,
    start_method: str | None = None,
) -> CCResult:
    """One-shot sharded solve (build an executor, run, tear down).

    For repeated solves of the same graph construct a
    :class:`ShardedExecutor` directly — it keeps the worker pool and
    shared segments warm across :meth:`~ShardedExecutor.run` calls.
    """
    with ShardedExecutor(
        graph,
        workers=workers,
        partitioner=partitioner,
        shard_backend=shard_backend,
        min_parallel=min_parallel,
        force_processes=force_processes,
        fault_plan=fault_plan,
        max_retries=max_retries,
        start_method=start_method,
    ) as ex:
        return ex.run()
