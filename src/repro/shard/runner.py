"""Sharded multi-process ECL-CC: partition → per-shard solve → merge.

The executor partitions a :class:`~repro.graph.csr.CSRGraph` into K
contiguous shards (:mod:`repro.shard.partition`), solves each shard's
induced subgraph with the ``numpy`` backend, and merges the cross-shard
boundary arcs with a vectorized union-find pass built from the
:mod:`repro.core.frontier` primitives.  The result is canonical
min-member labels, bit-identical to the serial oracle: shard-local
labels are local component minima, every boundary arc is fed to the
merge exactly once, and hooking only ever replaces a root's parent with
a smaller member of the same component — the same invariant every other
backend in this library rests on.

Everything that depends only on the graph and the plan — each shard's
local CSR and edge pairs, and the boundary arcs — is built once per
graph into a :class:`~repro.shard.export.ShardExport` memoised on the
graph, so a repeat run only hooks.  Two execution modes read it:

*inline*
    Shards solved sequentially in the calling process.  The default for
    small graphs (below ``min_parallel`` arcs), where process transport
    would dwarf the work; also the correctness baseline the metamorphic
    suite leans on, since both modes produce the same labels by
    construction.
*processes*
    Real ``multiprocessing`` workers in one process-wide pool, reading
    their shard zero-copy from the export's ``multiprocessing.shared_memory``
    segment and writing their labels into its label region.  Only
    spans and timings cross the process boundary by value.

Worker failures follow :mod:`repro.resilience` semantics: a crashed
shard is retried (``max_retries`` per shard), then recomputed inline in
the parent — degradation, not failure — with the full history recorded
as :class:`~repro.resilience.RecoveryInfo` on ``CCResult.recovery``.
Injected crashes come from a :class:`~repro.resilience.FaultPlan` whose
``worker_crash`` specs target ``backend="sharded"`` with ``at`` naming
the shard index.
"""

from __future__ import annotations

import atexit
import multiprocessing.util  # its exit handler must run after shutdown_pool's
import os
import threading
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from ..core.ecl_cc_numpy import NumpyRunStats
from ..core.frontier import flatten_active, hook_until_fixpoint
from ..core.result import CCResult
from ..graph.csr import CSRGraph
from ..observe import Span, current_tracer
from .export import release_exports, shard_export
from .partition import ShardPlan, make_plan
from .worker import _exit_with_parent, shard_worker, solve_into

__all__ = [
    "ShardedExecutor",
    "ShardedRunStats",
    "merge_boundary",
    "sharded_cc",
    "shutdown_pool",
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


#: One warm worker pool for every process-mode run, keyed by (workers,
#: start method).  Created on first use, replaced when a run asks for
#: another key or finds it broken, and shut down by :func:`shutdown_pool`.
_POOL, _POOL_KEY = None, None
_POOL_LOCK = threading.Lock()

#: A long-lived fork pool would pin a copy-on-write snapshot of the
#: caller's heap and fork while service threads run; forkserver workers
#: fork from a small server process instead.
DEFAULT_START_METHOD = (
    "forkserver" if "forkserver" in multiprocessing.get_all_start_methods() else "spawn"
)


def _borrow_pool(workers: int, method: str):
    """The process-wide pool for ``(workers, method)``, (re)created as needed."""
    global _POOL, _POOL_KEY
    from concurrent.futures import ProcessPoolExecutor

    with _POOL_LOCK:
        key = (workers, method)
        # ``_broken``: a worker died, and the pool takes no more work.
        if _POOL is not None and (_POOL_KEY != key or _POOL._broken):
            _POOL.shutdown(wait=True)
            _POOL = None
        if _POOL is None:
            ctx = multiprocessing.get_context(method)
            _POOL = ProcessPoolExecutor(workers, ctx, initializer=_exit_with_parent)
            _POOL_KEY = key
        return _POOL


def shutdown_pool() -> None:
    """Join the process-wide pool's workers, stop the forkserver and free
    every cached shard export's shared segment (idempotent; run at
    exit).  The next process-mode run starts afresh."""
    global _POOL, _POOL_KEY
    with _POOL_LOCK:
        pool, _POOL, _POOL_KEY = _POOL, None, None
    if pool is not None:
        pool.shutdown(wait=True)
    if DEFAULT_START_METHOD == "forkserver":
        from multiprocessing import forkserver

        forkserver._forkserver._stop()
    release_exports()


def _forget_pool() -> None:
    # A forked child inherits the handle but not the pool's threads.
    global _POOL, _POOL_KEY, _POOL_LOCK
    _POOL, _POOL_KEY, _POOL_LOCK = None, None, threading.Lock()


atexit.register(shutdown_pool)
os.register_at_fork(after_in_child=_forget_pool)


@dataclass
class ShardedRunStats:
    """Counters for one sharded run (``CCResult.stats``).

    ``export_reused`` is true when the run found the graph's shard
    export already built, so it sliced nothing."""

    num_shards: int = 0
    workers: int = 0
    partitioner: str = "range"
    mode: str = "inline"  # "inline" | "processes"
    start_method: str = ""
    shard_vertices: list[int] = field(default_factory=list)
    shard_arcs: list[int] = field(default_factory=list)
    shard_boundary: list[int] = field(default_factory=list)
    boundary_edges: int = 0
    merge_rounds: int = 0
    retries: int = 0
    fallbacks: int = 0
    export_reused: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


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
    """Sharded solver for one graph: a context-managed handle on the
    graph's memoised shard export.

    :meth:`run` builds the export on first use (or finds it built by an
    earlier run on the graph) and then only hooks.  Runs borrow the
    process-wide worker pool (see :mod:`repro.shard`).  :meth:`close`
    — or leaving the ``with`` block — releases the export, freeing its
    shared segment now rather than when the graph is dropped.
    """

    def __init__(
        self,
        graph: CSRGraph,
        *,
        workers: int | None = None,
        partitioner: str | ShardPlan = "range",
        min_parallel: int = DEFAULT_MIN_PARALLEL,
        force_processes: bool = False,
        fault_plan=None,
        max_retries: int = 1,
        start_method: str | None = None,
    ) -> None:
        self.graph = graph
        self.workers = _default_workers() if workers is None else int(workers)
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
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
        self._start_method = ""
        if self.use_processes:
            self._start_method = start_method or DEFAULT_START_METHOD
        # Fork workers share the parent's resource tracker (registration
        # is an idempotent set-add); forkserver and spawn workers attach
        # untracked so they never claim the parent's segments.
        self._track = self._start_method == "fork"
        self._export = None

    def close(self) -> None:
        """Release the export this executor ran on (idempotent); the
        pool stays warm."""
        if self._export is not None:
            self._export.release()
            self._export = None

    def __enter__(self) -> "ShardedExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- execution ------------------------------------------------------
    def _acquire_export(self):
        """The graph's export, locked for this run: ``(export, reused)``."""
        while True:
            export, reused = shard_export(self.graph, self.plan, shared=self.use_processes)
            export.lock.acquire()
            if not export.released:  # not released between lookup and lock
                self._export = export
                return export, reused
            export.lock.release()

    def run(self) -> CCResult:
        """Solve the graph once; labels are a fresh array every call."""
        from ..resilience.supervisor import RecoveryInfo

        graph, plan = self.graph, self.plan
        tracer = current_tracer()
        stats = ShardedRunStats(
            num_shards=plan.num_shards,
            workers=self.workers,
            partitioner=plan.kind,
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
        export, stats.export_reused = self._acquire_export()
        try:
            if self.use_processes:
                labels = self._run_processes(export, stats, recovery, tracer)
            else:
                labels = self._run_inline(export, stats, tracer)
        finally:
            export.lock.release()
        timings["workers_ms"] = (time.perf_counter() - t0) * 1e3

        bu, bv = export.boundary_u, export.boundary_v
        stats.shard_boundary = list(export.shard_boundary)
        stats.boundary_edges = int(bu.size)
        if tracer.enabled:
            for i, count in enumerate(export.shard_boundary):
                tracer.gauge(f"shard.boundary.{i}", count)

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

    def _solve_inline(self, out, data, export, shard: int) -> None:
        s, e = export.ranges[shard]
        solve_into(
            out, data, export.layout[shard], s, e,
            sorted_adj=export.sorted_adj, name=f"{export.graph_name}[{s}:{e}]",
        )

    def _run_inline(self, export, stats, tracer):
        labels = np.empty(export.num_vertices, dtype=np.int64)
        data = export.data()
        for i, (s, e) in enumerate(export.ranges):
            with tracer.span(
                "shard:worker",
                category="shard",
                shard=i,
                start=s,
                end=e,
                vertices=e - s,
                arcs=stats.shard_arcs[i],
                boundary=export.shard_boundary[i],
            ):
                self._solve_inline(labels, data, export, i)
        return labels

    def _armed_crash(self, shard: int, attempt: int) -> bool:
        plan = self.fault_plan
        specs = plan.for_backend("sharded", attempt) if plan else ()
        return any(s.kind == "worker_crash" and s.at == shard for s in specs)

    def _run_processes(self, export, stats, recovery, tracer):
        from concurrent.futures import wait
        from concurrent.futures.process import BrokenProcessPool

        from ..resilience.supervisor import AttemptRecord

        n = export.num_vertices
        ranges = export.ranges
        pool = _borrow_pool(self.workers, self._start_method)
        trace = bool(tracer.enabled)
        results: dict[int, dict] = {}
        fallbacks: set[int] = set()

        def task_for(shard: int, attempt: int) -> dict:
            s, e = ranges[shard]
            return {
                "segment": export.segment,
                "size": export.size,
                "layout": export.layout[shard],
                "sorted_adj": export.sorted_adj,
                "name": f"{export.graph_name}[{s}:{e}]",
                "start": s,
                "end": e,
                "shard": shard,
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
            fallbacks.add(shard)
            t0 = time.perf_counter()
            data = export.data()
            self._solve_inline(data, data, export, shard)
            del data
            results[shard] = {
                "shard": shard,
                "pid": None,
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

        def submit(shard: int, attempt: int) -> None:
            # Borrow again, once, if another run replaced the pool or a
            # worker died since this run borrowed it.
            nonlocal pool
            try:
                fut = pool.submit(shard_worker, task_for(shard, attempt))
            except RuntimeError:
                pool = _borrow_pool(self.workers, self._start_method)
                fut = pool.submit(shard_worker, task_for(shard, attempt))
            pending[fut] = (shard, attempt)

        pending: dict = {}
        for i in range(len(ranges)):
            submit(i, 0)
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
                broken = broken or isinstance(err, BrokenProcessPool)
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
                    submit(shard, attempt)

        with tracer.span("shard:transport", category="shard", stage="collect", bytes=n * 8):
            data = export.data()
            labels = data[:n].copy()
            del data

        for shard in range(len(ranges)):
            payload = results[shard]
            s, e = ranges[shard]
            with tracer.span(
                "shard:worker",
                category="shard",
                shard=shard,
                start=s,
                end=e,
                vertices=e - s,
                arcs=stats.shard_arcs[shard],
                boundary=export.shard_boundary[shard],
                pid=payload["pid"],
                fallback=shard in fallbacks,
            ) as span:
                pass
            if tracer.enabled:
                # The worker already ran; stamp the span with its
                # measured duration so the folded children fit inside.
                span.duration_ms = payload["duration_ms"]
                if payload["spans"]:
                    _fold_child_spans(tracer, span, payload["spans"])
        return labels


def _fold_child_spans(tracer, parent_span: Span, child_spans: list[dict]) -> None:
    """Reconstruct a worker's spans under ``parent_span``: indices past
    the current span list, depths below the worker span, start times
    relative to its start (the worker tracer's epoch is the task start)."""
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
    min_parallel: int = DEFAULT_MIN_PARALLEL,
    force_processes: bool = False,
    fault_plan=None,
    max_retries: int = 1,
    start_method: str | None = None,
) -> CCResult:
    """One sharded solve.

    The graph's shard export is kept for later calls on the same graph
    and plan (freed when the graph is dropped, by
    :func:`~repro.shard.export.release_exports` or by
    :func:`shutdown_pool`); process-mode calls borrow the warm
    process-wide worker pool.
    """
    return ShardedExecutor(
        graph,
        workers=workers,
        partitioner=partitioner,
        min_parallel=min_parallel,
        force_processes=force_processes,
        fault_plan=fault_plan,
        max_retries=max_retries,
        start_method=start_method,
    ).run()
