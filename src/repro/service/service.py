"""The long-lived connectivity service: batched updates, fast queries.

:class:`ConnectivityService` is the serving-layer shape of this library:
instead of one-shot :func:`repro.connected_components` calls, a service
instance *owns* a graph (a tombstoned :class:`~repro.service.store.
EdgeStore` over a fixed vertex universe), absorbs **batches** of edge
insertions and deletions through an asynchronous micro-batching queue,
and answers component queries at high throughput from an immutable
published snapshot.

Consistency model
-----------------
* **Snapshot isolation.**  Queries (:meth:`~ConnectivityService.
  same_component`, :meth:`~ConnectivityService.component_of`,
  :meth:`~ConnectivityService.component_count`,
  :meth:`~ConnectivityService.labels_snapshot`) are served from the most
  recently *committed* :class:`ComponentSnapshot`.  A snapshot is
  published atomically after a whole batch is applied, so readers never
  observe a half-applied batch, and arrays handed out by
  ``labels_snapshot()`` are immutable — later batches cannot mutate
  them.
* **Batched commit.**  Mutations are enqueued and acknowledged with a
  :class:`MutationTicket`; the flusher drains the queue when the pending
  batch reaches ``policy.max_batch_size`` edges *or* the oldest pending
  mutation has waited ``policy.max_latency_s`` (whichever first), so
  writers trade bounded staleness for vectorized application cost.
* **Read-your-writes** is available per ticket: ``ticket.result()``
  blocks until the batch containing the mutation has committed.

Update policy
-------------
Every batch runs on one engine, the vectorized union-find rounds of
:meth:`repro.extensions.incremental.IncrementalConnectivity.add_edges`
(:func:`repro.core.frontier.hook_until_fixpoint`, the hook loop of the
static ``numpy`` backend), as Hong, Dhulipala & Shun argue for static
and incremental connectivity (*Exploring the Design Space of Static and
Incremental Graph Connectivity Algorithms on GPUs*).  An insert-only
batch is hooked into the current forest.  A batch containing a deletion
cannot be expressed as union-find updates, so it *re-seeds*: a fresh
forest hooks every live edge straight from the edge store's endpoint
arrays (no CSR is built) and is flattened, so the snapshot it publishes
has depth-zero chains.  Construction seeds the forest the same way.

Observability: every applied batch records a ``service:batch`` span with
size/mode/merge attributes (a re-seeding batch nests one
``service:recompute`` span inside it), plus ``service.*`` counters and
queue-depth / cache-hit-rate gauges, on the tracer captured at
construction time.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..errors import QueueFullError
from ..core.frontier import flatten_active
from ..extensions.incremental import VECTOR_THRESHOLD, IncrementalConnectivity
from ..graph.csr import CSRGraph
from ..observe import current_tracer, use_tracer
from .store import EdgeStore

__all__ = [
    "BatchPolicy",
    "BatchStats",
    "ComponentSnapshot",
    "ConnectivityService",
    "MutationTicket",
    "ServiceStats",
]


@dataclass(frozen=True)
class BatchPolicy:
    """Tuning knobs for the micro-batching queue and the edge store."""

    #: Flush as soon as the pending batch carries this many edges.
    max_batch_size: int = 1024
    #: ... or as soon as the oldest pending mutation is this old.
    max_latency_s: float = 0.010
    #: Compact the edge store once tombstones pass this fraction.
    compact_tombstone_frac: float = 0.25
    #: Bound on queued (un-drained) edges: a submission that would push
    #: the pending queue past this sheds with :class:`QueueFullError`
    #: instead of growing the queue without bound.  ``None`` = unbounded.
    max_pending: int | None = None

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_latency_s < 0:
            raise ValueError("max_latency_s must be >= 0")
        if self.max_pending is not None and self.max_pending < 1:
            raise ValueError("max_pending must be >= 1 (or None for unbounded)")


@dataclass
class BatchStats:
    """What happened when one batch committed."""

    version: int
    size: int  # mutations drained (insert + delete entries)
    inserts: int  # newly-live edges
    deletes: int  # newly-tombstoned edges
    merges: int  # component merges caused
    mode: str  # "incremental" | "static" (re-seeded after a delete)
    duration_ms: float
    components_after: int
    queue_depth_after: int

    def to_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class ServiceStats:
    """Cumulative service-lifetime counters."""

    batches: int = 0
    mutations: int = 0
    inserts: int = 0
    deletes: int = 0
    merges: int = 0
    incremental_batches: int = 0
    static_recomputes: int = 0
    #: Always 0; kept because perfbench reads it, until its next revision.
    static_fallbacks: int = 0
    failed_batches: int = 0
    queries: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    compactions: int = 0
    shed: int = 0  # submissions rejected by the max_pending bound
    shed_edges: int = 0  # edges those submissions carried

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def to_dict(self) -> dict:
        d = dict(self.__dict__)
        d["cache_hit_rate"] = round(self.cache_hit_rate, 4)
        return d


class MutationTicket:
    """Handle for an enqueued mutation; resolves when its batch commits."""

    __slots__ = ("_event", "batch", "error")

    def __init__(self) -> None:
        self._event = threading.Event()
        self.batch: BatchStats | None = None
        self.error: BaseException | None = None

    @property
    def applied(self) -> bool:
        return self._event.is_set() and self.error is None

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the batch commits (or fails); False on timeout."""
        return self._event.wait(timeout)

    def result(self, timeout: float | None = None) -> BatchStats:
        """The committed batch's stats; raises the batch's error if the
        apply failed, or TimeoutError if it didn't resolve in time."""
        if not self._event.wait(timeout):
            raise TimeoutError("mutation not applied within timeout")
        if self.error is not None:
            raise self.error
        assert self.batch is not None
        return self.batch

    def _resolve(self, batch: BatchStats | None, error: BaseException | None) -> None:
        self.batch = batch
        self.error = error
        self._event.set()


class ComponentSnapshot:
    """One committed, immutable connectivity state with a lazy root cache.

    ``parent`` is a frozen union-find state (decreasing chains).  Root
    lookups fill a per-snapshot cache so repeated queries against hot
    vertices are O(1); the cache is *per snapshot*, which is exactly the
    "root cache invalidated per applied batch" — a new batch publishes a
    new snapshot with a cold cache.
    """

    __slots__ = (
        "version",
        "num_components",
        "num_edges",
        "_parent",
        "_cache",
        "_complete",
    )

    def __init__(
        self, version: int, parent: np.ndarray, num_components: int, num_edges: int
    ) -> None:
        self.version = version
        self.num_components = num_components
        self.num_edges = num_edges
        self._parent = parent  # read-only, owned by this snapshot
        self._cache = np.full(parent.size, -1, dtype=np.int64)
        self._complete = False

    @property
    def num_vertices(self) -> int:
        return self._parent.size

    def _resolve(self, v: int) -> tuple[int, bool]:
        """(root of v, whether it was a cache hit)."""
        cache = self._cache
        root = int(cache[v])
        if root >= 0:
            return root, True
        path = []
        p = v
        while True:
            path.append(p)
            nxt = int(self._parent[p])
            if nxt == p:
                root = p
                break
            cached = int(cache[nxt])
            if cached >= 0:
                root = cached
                break
            p = nxt
        cache[path] = root
        return root, False

    def labels(self) -> np.ndarray:
        """The full canonical label array (read-only; materialized once
        per snapshot with the vectorized flatten, then cached)."""
        if not self._complete:
            flat = flatten_active(self._parent.copy())
            flat.setflags(write=False)
            self._cache = flat
            self._complete = True
        return self._cache


class ConnectivityService:
    """Long-lived connectivity over a mutable graph; see module docs.

    Parameters
    ----------
    graph:
        Seed :class:`CSRGraph` (its edges populate the store), or
        ``None`` with ``num_vertices=`` for an initially empty graph.
        The vertex universe is fixed for the service's lifetime; a
        ``num_vertices=`` passed with a graph must match its size.
    policy:
        A :class:`BatchPolicy`; defaults are sensible for mixed
        read/write traffic.
    start:
        Start the background flusher thread (the default).  With
        ``start=False`` the service is *synchronous*: mutations buffer
        until :meth:`flush` (or until the pending batch reaches
        ``max_batch_size``, which applies inline) — deterministic, and
        what the differential tests use.
    """

    def __init__(
        self,
        graph: CSRGraph | None = None,
        *,
        num_vertices: int | None = None,
        policy: BatchPolicy | None = None,
        start: bool = True,
        name: str | None = None,
    ) -> None:
        if graph is None and num_vertices is None:
            raise ValueError("pass a seed graph or num_vertices")
        if (
            graph is not None
            and num_vertices is not None
            and num_vertices != graph.num_vertices
        ):
            raise ValueError(
                f"num_vertices={num_vertices} does not match the seed "
                f"graph's {graph.num_vertices} vertices"
            )
        self.policy = policy or BatchPolicy()
        self._tracer = current_tracer()
        if graph is not None:
            self._store = EdgeStore.from_graph(graph)
        else:
            self._store = EdgeStore(int(num_vertices))
        if name:
            self._store.name = name
        self._inc = self._seeded()
        self.stats = ServiceStats()
        self._version = 0
        self._snapshot = self._publish()

        # Mutation queue: entries are (is_delete, u_arr, v_arr, ticket).
        self._cond = threading.Condition()
        self._pending: deque = deque()
        self._pending_edges = 0
        self._oldest: float | None = None  # monotonic enqueue time
        self._inflight: MutationTicket | None = None  # drained, not yet resolved
        self._flush_requested = False
        self._stop = False
        self._apply_lock = threading.Lock()
        self._worker: threading.Thread | None = None
        if start:
            self._worker = threading.Thread(
                target=self._worker_loop, name="connectivity-flusher", daemon=True
            )
            self._worker.start()

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Flush remaining mutations and stop the flusher thread."""
        worker = self._worker
        if worker is not None:
            with self._cond:
                self._stop = True
                self._cond.notify_all()
            worker.join()
            self._worker = None
        self._drain_and_apply_inline()  # anything enqueued after stop

    def __enter__(self) -> "ConnectivityService":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- introspection ---------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self._store.num_vertices

    @property
    def num_edges(self) -> int:
        """Live edge count as of the last committed batch."""
        return self._snapshot.num_edges

    @property
    def version(self) -> int:
        """Committed batch count (snapshot version)."""
        return self._snapshot.version

    @property
    def queue_depth(self) -> int:
        """Mutation entries waiting for the next flush."""
        return len(self._pending)

    def current_graph(self, *, name: str | None = None) -> CSRGraph:
        """CSR materialization of the *committed* edge set (call after
        :meth:`flush` for a state consistent with the snapshot)."""
        with self._apply_lock:
            return self._store.to_graph(name=name)

    # -- queries (served from the committed snapshot) --------------------
    def _check(self, v: int, n: int) -> None:
        if not 0 <= v < n:
            raise IndexError(f"vertex {v} out of range [0, {n})")

    def component_of(self, v: int) -> int:
        """Canonical (minimum-member) component ID of ``v``."""
        snap = self._snapshot
        self._check(v, snap.num_vertices)
        root, hit = snap._resolve(int(v))
        s = self.stats
        s.queries += 1
        if hit:
            s.cache_hits += 1
        else:
            s.cache_misses += 1
        return root

    def same_component(self, u: int, v: int) -> bool:
        """Whether ``u`` and ``v`` are connected in the committed state."""
        snap = self._snapshot
        self._check(u, snap.num_vertices)
        self._check(v, snap.num_vertices)
        ru, hit_u = snap._resolve(int(u))
        rv, hit_v = snap._resolve(int(v))
        s = self.stats
        s.queries += 1
        s.cache_hits += hit_u + hit_v
        s.cache_misses += 2 - (hit_u + hit_v)
        return ru == rv

    def component_count(self) -> int:
        """Number of components (isolated vertices count individually)."""
        self.stats.queries += 1
        self.stats.cache_hits += 1  # tracked incrementally, always hot
        return self._snapshot.num_components

    def labels_snapshot(self) -> np.ndarray:
        """Read-only canonical label array of the committed state.

        The returned array is immutable and owned by its snapshot:
        batches applied later publish *new* snapshots and never mutate
        arrays already handed out.
        """
        self.stats.queries += 1
        return self._snapshot.labels()

    def snapshot(self) -> ComponentSnapshot:
        """The current committed snapshot (stable under later batches)."""
        return self._snapshot

    # -- mutations -------------------------------------------------------
    def add_edge(self, u: int, v: int) -> MutationTicket:
        """Enqueue one edge insertion."""
        return self.add_edges([u], [v])

    def add_edges(self, u, v) -> MutationTicket:
        """Enqueue a batch of edge insertions (one ticket for all)."""
        return self._enqueue(False, u, v)

    def remove_edge(self, u: int, v: int) -> MutationTicket:
        """Enqueue one edge deletion (tombstoned; commits via recompute)."""
        return self.remove_edges([u], [v])

    def remove_edges(self, u, v) -> MutationTicket:
        """Enqueue a batch of edge deletions (one ticket for all)."""
        return self._enqueue(True, u, v)

    def _enqueue(self, is_delete: bool, u, v) -> MutationTicket:
        u = np.atleast_1d(np.asarray(u, dtype=np.int64))
        v = np.atleast_1d(np.asarray(v, dtype=np.int64))
        if u.shape != v.shape or u.ndim != 1:
            raise ValueError("u and v must be 1-D arrays of equal length")
        n = self.num_vertices
        if u.size:
            lo = int(min(u.min(), v.min()))
            hi = int(max(u.max(), v.max()))
            if lo < 0 or hi >= n:
                raise IndexError(
                    f"vertex {lo if lo < 0 else hi} out of range [0, {n})"
                )
        ticket = MutationTicket()
        if u.size == 0:
            ticket._resolve(None, None)
            return ticket
        apply_inline = False
        with self._cond:
            limit = self.policy.max_pending
            if limit is not None and self._pending_edges + int(u.size) > limit:
                self.stats.shed += 1
                self.stats.shed_edges += int(u.size)
                self._tracer.count("service.shed")
                self._tracer.count("service.shed_edges", int(u.size))
                raise QueueFullError(
                    f"mutation queue full: {self._pending_edges} edges pending, "
                    f"{u.size} submitted, max_pending={limit}",
                    pending=self._pending_edges,
                    max_pending=limit,
                )
            self._pending.append((is_delete, u, v, ticket))
            self._pending_edges += int(u.size)
            if self._oldest is None:
                self._oldest = time.monotonic()
            if self._worker is not None:
                # Always wake the flusher: it owns the latency timer.
                self._cond.notify_all()
            elif self._pending_edges >= self.policy.max_batch_size:
                apply_inline = True  # synchronous mode size trigger
        if apply_inline:
            self._drain_and_apply_inline()
        return ticket

    def flush(self, timeout: float | None = None) -> None:
        """Force-apply every pending mutation and wait for the commit.

        Raises :class:`TimeoutError` if the flusher has not committed
        within ``timeout`` — including the window where the worker has
        already *drained* the queue but the batch is still applying
        (an empty queue alone is not proof of a completed flush).
        """
        if self._worker is None:
            self._drain_and_apply_inline()
            return
        with self._cond:
            if self._pending:
                last_ticket = self._pending[-1][3]
                self._flush_requested = True
                self._cond.notify_all()
            else:
                # Nothing queued, but the last drained batch may still
                # be in _apply_batch: wait on its ticket, not on hope.
                inflight = self._inflight
                if inflight is None or inflight._event.is_set():
                    return
                last_ticket = inflight
        if not last_ticket.wait(timeout):
            raise TimeoutError("flush did not complete within timeout")

    # -- micro-batcher ---------------------------------------------------
    def _drain_locked(self) -> list:
        """Take up to max_batch_size edges of pending entries (at least
        one entry; a single oversized entry is never split).  Caller
        holds the condition lock."""
        batch = []
        taken = 0
        while self._pending and (
            taken == 0 or taken + self._pending[0][1].size <= self.policy.max_batch_size
        ):
            entry = self._pending.popleft()
            taken += entry[1].size
            batch.append(entry)
        self._pending_edges -= taken
        self._oldest = time.monotonic() if self._pending else None
        if not self._pending:
            self._flush_requested = False
        if batch:
            self._inflight = batch[-1][3]
        return batch

    def _drain_and_apply_inline(self) -> None:
        while True:
            with self._cond:
                if not self._pending:
                    return
                batch = self._drain_locked()
            self._apply_batch(batch)

    def _worker_loop(self) -> None:
        policy = self.policy
        while True:
            with self._cond:
                while not self._pending and not self._stop:
                    self._cond.wait()
                if not self._pending:
                    return  # stopped and drained
                # Pending work: wait for a flush trigger.
                while (
                    not self._stop
                    and not self._flush_requested
                    and self._pending_edges < policy.max_batch_size
                ):
                    assert self._oldest is not None
                    remaining = policy.max_latency_s - (
                        time.monotonic() - self._oldest
                    )
                    if remaining <= 0:
                        break
                    self._cond.wait(timeout=remaining)
                if not self._pending:
                    continue
                batch = self._drain_locked()
            # A new thread starts with a fresh contextvars context, so
            # install the captured tracer for the backends' own spans.
            with use_tracer(self._tracer):
                self._apply_batch(batch)

    # -- batch application ----------------------------------------------
    def _apply_batch(self, batch: list) -> None:
        with self._apply_lock:
            tracer = self._tracer
            tickets = [entry[3] for entry in batch]
            t0 = time.perf_counter()
            try:
                with tracer.span(
                    "service:batch", category="service", version=self._version + 1
                ) as span:
                    stats = self._apply_batch_inner(batch, span)
            except BaseException as exc:  # resolve tickets, keep serving
                self.stats.failed_batches += 1
                tracer.count("service.failed_batches")
                for ticket in tickets:
                    ticket._resolve(None, exc)
                return
            stats.duration_ms = (time.perf_counter() - t0) * 1e3
            stats.queue_depth_after = len(self._pending)
            s = self.stats
            s.batches += 1
            s.mutations += stats.size
            s.inserts += stats.inserts
            s.deletes += stats.deletes
            s.merges += stats.merges
            if stats.mode == "incremental":
                s.incremental_batches += 1
            else:
                s.static_recomputes += 1
            if tracer.enabled:
                tracer.count("service.batches")
                tracer.count("service.mutations", stats.size)
                tracer.count("service.merges", stats.merges)
                tracer.gauge("service.queue_depth", stats.queue_depth_after)
                tracer.gauge("service.components", stats.components_after)
                tracer.gauge("service.cache_hit_rate", s.cache_hit_rate)
            self._last_batch = stats
            for ticket in tickets:
                ticket._resolve(stats, None)

    def _apply_batch_inner(self, batch: list, span) -> BatchStats:
        ins_u = [e[1] for e in batch if not e[0]]
        ins_v = [e[2] for e in batch if not e[0]]
        del_u = [e[1] for e in batch if e[0]]
        del_v = [e[2] for e in batch if e[0]]
        size = sum(e[1].size for e in batch)

        new_u, new_v = self._store.insert(
            np.concatenate(ins_u) if ins_u else np.empty(0, dtype=np.int64),
            np.concatenate(ins_v) if ins_v else np.empty(0, dtype=np.int64),
        )
        deleted = self._store.delete(
            np.concatenate(del_u) if del_u else np.empty(0, dtype=np.int64),
            np.concatenate(del_v) if del_v else np.empty(0, dtype=np.int64),
        )

        if deleted:
            # Deletions cannot be expressed as union-find updates:
            # re-seed from the live edge set.
            mode = "static"
            components_before = self._inc.num_components
            self._recompute()
            merges = components_before - self._inc.num_components
        else:
            mode = "incremental"
            merges = self._inc.add_edges(new_u, new_v)

        if self._store.tombstone_fraction > self.policy.compact_tombstone_frac:
            self._store.compact()
            self.stats.compactions += 1

        self._snapshot = self._publish()
        span.update(
            size=size,
            inserts=int(new_u.size),
            deletes=deleted,
            merges=merges,
            mode=mode,
        )
        return BatchStats(
            version=self._version,
            size=size,
            inserts=int(new_u.size),
            deletes=deleted,
            merges=merges,
            mode=mode,
            duration_ms=0.0,
            components_after=self._inc.num_components,
            queue_depth_after=0,
        )

    def auto_policy(self) -> dict:
        """State of the retired ``"auto"`` recompute race: always empty.
        Kept because perfbench reads it, until its next revision."""
        return {"winner": None, "at_edges": None, "races": 0, "reraces": 0}

    def _seeded(self) -> IncrementalConnectivity:
        """A fresh union-find over the store's live edges, flat
        (``parent[parent] == parent``) whatever the edge count."""
        inc = IncrementalConnectivity(self._store.num_vertices)
        u, v = self._store.alive_arrays()
        inc.add_edges(u, v)
        if u.size < VECTOR_THRESHOLD:  # the scalar path leaves chains
            flatten_active(inc.parent)
        return inc

    def _recompute(self) -> None:
        """Re-seed the union-find from the live edge set; the old forest
        stays in place if this raises."""
        with self._tracer.span("service:recompute", category="service"):
            self._inc = self._seeded()

    def _publish(self) -> ComponentSnapshot:
        self._version += 1
        parent = self._inc.parent.copy()
        parent.setflags(write=False)
        return ComponentSnapshot(
            self._version,
            parent,
            self._inc.num_components,
            self._store.num_edges,
        )

    def last_batch(self) -> BatchStats | None:
        """Stats of the most recently committed batch (None before any)."""
        return getattr(self, "_last_batch", None)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ConnectivityService(n={self.num_vertices}, "
            f"edges={self.num_edges}, components={self._snapshot.num_components}, "
            f"version={self.version}, queued={self.queue_depth})"
        )
