"""The three phases of a benchmark run, interleaved round by round.

* **service** — one client thread drives a ``ConnectivityService`` in a
  closed loop: Zipf-skewed reads, inserts of held-out edges, deletes that
  force the supervised recompute, and a share of writes that wait for
  their ticket (read-your-writes).
* **static** — warm ``connected_components(graph)`` calls with the
  default backend, graphs round-robin.
* **scaleout** — ``connected_components`` with the ``oocore`` (memory
  budget below the CSR size), ``distributed`` and ``sharded`` backends.

Every phase does a fixed amount of work (so two commits do the same
work), wraps each timed call in a ``bench:*`` span of the given tracer
(a no-op for the untraced run), collects garbage outside the timers, and
checks every answer outside the timed window.
"""

from __future__ import annotations

import gc
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import ConnectivityService, connected_components
from repro.graph import from_arc_arrays
from repro.observe import DISABLED, use_tracer

from .inputs import COMPONENT, INSERT, SAME
from .measure import PeakLog

#: Shard / host / worker count of the scale-out backends (``nproc``).
SCALEOUT_K = 2

#: The oocore memory budget is this share of the in-memory CSR size
#: (raised to twice the backend's feasibility floor when that is higher).
OOCORE_BUDGET_SHARE = 0.4

SCALEOUT_BACKENDS = ("oocore", "distributed", "sharded")


@dataclass
class Tally:
    """Operations attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    reasons: list = field(default_factory=list)

    def fail(self, reason: str, *, wrong: bool = False) -> None:
        self.failed += 1
        self.wrong += wrong
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.reasons.extend(other.reasons[: 20 - len(self.reasons)])


@dataclass
class Inputs:
    """Generated graph arrays with their reference labels."""

    workload: str
    seed: int
    names: list
    arrays: list  # (src, dst, n) per graph
    references: list
    service_index: int
    service_plan: object
    scaleout_index: int


def build_graphs(inputs: Inputs, tracer=DISABLED, rep: int = 0) -> list:
    """Program set-up for the static and scale-out phases: CSR build plus
    the derived arrays the solvers memoise on first use."""
    graphs = []
    for name, (src, dst, n) in zip(inputs.names, inputs.arrays):
        with tracer.span("bench:graph.build", category="bench", op=rep, graph=name):
            g = from_arc_arrays(src, dst, n, name=name)
        with tracer.span("bench:graph.derive", category="bench", op=rep, graph=name):
            g.edge_array()
            g.has_sorted_adjacency()
        graphs.append(g)
    return graphs


def build_service(inputs: Inputs, tracer=DISABLED) -> ConnectivityService:
    """Program set-up for the service phase: seed graph plus service
    construction (default ``BatchPolicy`` and flusher thread)."""
    plan = inputs.service_plan
    seed_graph = from_arc_arrays(
        plan.base_src, plan.base_dst, plan.n, name=inputs.names[inputs.service_index]
    )
    with use_tracer(tracer):  # the service records on the tracer active here
        return ConnectivityService(seed_graph)


def check_labels(tally: Tally, what: str, labels, reference) -> bool:
    if np.array_equal(np.asarray(labels), reference):
        return True
    tally.fail(f"{what}: labels differ from the reference", wrong=True)
    return False


# ----------------------------------------------------------------------
# static
# ----------------------------------------------------------------------
class StaticPhase:
    """Warm default-backend solves of every graph, round-robin.

    ``times[i]`` collects graph ``i``'s samples in milliseconds.
    """

    def __init__(self, graphs, references, tracer=DISABLED) -> None:
        self.graphs = graphs
        self.references = references
        self.tracer = tracer
        self.times = [[] for _ in graphs]
        self.tally = Tally()
        self._op = 0

    def warm(self) -> None:
        for g in self.graphs:  # untimed and unchecked
            connected_components(g)

    def round(self) -> None:
        tracer, tally = self.tracer, self.tally
        for i, g in enumerate(self.graphs):
            gc.collect()
            tally.attempted += 1
            op, self._op = self._op, self._op + 1
            try:
                with tracer.span("bench:static", category="bench", op=op, graph=g.name):
                    t0 = time.perf_counter()
                    result = connected_components(g)
                    dt = time.perf_counter() - t0
            except Exception as exc:  # counted, and the run goes on
                tally.fail(f"static {g.name}: {type(exc).__name__}: {exc}")
                continue
            if check_labels(tally, f"static {g.name}", result.labels, self.references[i]):
                self.times[i].append(dt * 1e3)


# ----------------------------------------------------------------------
# service
# ----------------------------------------------------------------------
class ServicePhase:
    """Drives a service plan through a ``ConnectivityService`` in a closed
    loop, one checkpoint interval per :meth:`chunk` call.

    Outside the timed loop, every read's answer is compared with its
    reference answers in the states it may see (``plan.accept``), and
    each checkpoint flushes and compares ``labels_snapshot()`` with the
    reference.
    ``query_us``/``query_missed`` hold each read's latency and number of
    root-cache misses.
    """

    def __init__(self, svc: ConnectivityService, plan, tracer=DISABLED, *, timeout_s: float = 30.0) -> None:
        self.svc = svc
        self.plan = plan
        self.tracer = tracer
        self.timeout_s = timeout_s
        self.tally = Tally()
        self.query_us: list = []
        self.query_missed: list = []
        self.visible_ms: list = []
        self.reads_checked = 0
        self.ops = 0
        self.ops_per_s: list = []  # one closed-loop rate per checkpoint interval
        self.auto_policy: dict = {}
        self.stats: dict = {}
        self._kinds = plan.kinds.tolist()
        self._a = plan.a.tolist()
        self._b = plan.b.tolist()
        self._wait = plan.wait.tolist()
        self._checkpoint = 0

    def chunk(self) -> None:
        """Run the ops up to and including the next checkpoint."""
        svc, tally, plan = self.svc, self.tally, self.plan
        kinds, a, b, wait = self._kinds, self._a, self._b, self._wait
        same, comp = svc.same_component, svc.component_of
        stats = svc.stats
        query_us, query_missed, visible_ms = self.query_us, self.query_missed, self.visible_ms
        span = self.tracer.span
        perf = time.perf_counter
        start, end = self.ops, plan.checkpoints[self._checkpoint]
        answers = [None] * (end + 1 - start)
        gc.collect()
        t_loop = perf()
        for op in range(start, end + 1):
            kind = kinds[op]
            tally.attempted += 1
            try:
                if kind == SAME or kind == COMPONENT:
                    with span("bench:read", category="bench", op=op):
                        misses = stats.cache_misses
                        t0 = perf()
                        if kind == SAME:
                            answer = same(a[op], b[op])
                        else:
                            answer = comp(a[op])
                        query_us.append((perf() - t0) * 1e6)
                        query_missed.append(stats.cache_misses - misses)
                    answers[op - start] = answer
                else:
                    with span("bench:write", category="bench", op=op, kind=kind, wait=wait[op]):
                        t0 = perf()
                        if kind == INSERT:
                            ticket = svc.add_edge(a[op], b[op])
                        else:
                            ticket = svc.remove_edge(a[op], b[op])
                        if wait[op]:
                            ticket.result(self.timeout_s)
                            visible_ms.append((perf() - t0) * 1e3)
            except Exception as exc:  # QueueFullError, TimeoutError, batch errors
                tally.fail(f"service op {op}: {type(exc).__name__}: {exc}")
        self.ops_per_s.append((end + 1 - start) / (perf() - t_loop))
        self.ops = end + 1
        accept = plan.accept
        for op in range(start, end + 1):
            got = answers[op - start]
            if got is None:  # a write, or a read that raised
                continue
            self.reads_checked += 1
            if int(got) not in accept[op]:
                tally.fail(f"service read {op}: answered {got!r}, reference "
                           f"{sorted(set(accept[op].tolist()) - {-1})}", wrong=True)
        tally.attempted += 1
        try:
            svc.flush(timeout=self.timeout_s)
            check_labels(tally, f"service checkpoint after op {end}", svc.labels_snapshot(),
                          plan.expected[self._checkpoint])
        except Exception as exc:  # TimeoutError from flush, among others
            tally.fail(f"service checkpoint after op {end}: {type(exc).__name__}: {exc}")
        self._checkpoint += 1

    def close(self) -> None:
        self.auto_policy = self.svc.auto_policy()
        self.svc.close()
        self.stats = self.svc.stats.to_dict()


# ----------------------------------------------------------------------
# scaleout
# ----------------------------------------------------------------------
def oocore_budget(graph) -> int:
    from repro.outofcore import min_feasible_budget

    csr_bytes = (graph.num_vertices + 1 + graph.num_arcs) * 8
    return max(int(csr_bytes * OOCORE_BUDGET_SHARE), 2 * min_feasible_budget(graph))


class ScaleoutPhase:
    """Every scale-out backend once per :meth:`round` on one graph.

    ``times[backend]`` holds the samples; ``runs`` one record per call of
    what the run chose (dist rounds, retransmits, recoveries; oocore peak
    and spill).  Spill and host scratch directories live under
    ``workdir`` and are removed after every call.
    """

    def __init__(self, graph, reference, workdir: Path, tracer=DISABLED) -> None:
        self.graph = graph
        self.reference = reference
        self.workdir = workdir
        self.tracer = tracer
        self.times = {b: [] for b in SCALEOUT_BACKENDS}
        self.runs: list = []
        self.tally = Tally()
        self._op = 0
        self._options = {
            "oocore": {"memory_budget": oocore_budget(graph), "spill_dir": str(workdir / "spill")},
            "distributed": {"hosts": SCALEOUT_K, "scratch_dir": str(workdir / "hosts")},
            "sharded": {"workers": SCALEOUT_K},
        }

    def _call(self, backend: str):
        try:
            return connected_components(self.graph, backend=backend, **self._options[backend])
        finally:
            shutil.rmtree(self.workdir / "spill", ignore_errors=True)
            shutil.rmtree(self.workdir / "hosts", ignore_errors=True)

    def warm(self) -> None:
        for backend in SCALEOUT_BACKENDS:  # untimed and unchecked
            self._call(backend)

    def round(self) -> None:
        tracer, tally, name = self.tracer, self.tally, self.graph.name
        for backend in SCALEOUT_BACKENDS:
            gc.collect()
            tally.attempted += 1
            what = f"{backend} {name}"
            op, self._op = self._op, self._op + 1
            try:
                with tracer.span("bench:scaleout", category="bench", op=op, graph=name, backend=backend):
                    t0 = time.perf_counter()
                    result = self._call(backend)
                    dt = time.perf_counter() - t0
            except Exception as exc:  # DistProtocolError, MemoryBudgetError, ...
                tally.fail(f"{what}: {type(exc).__name__}: {exc}")
                continue
            record = {"backend": backend, "graph": name, "ms": dt * 1e3}
            ok = check_labels(tally, what, result.labels, self.reference)
            s = result.stats
            if backend == "oocore":
                budget = self._options[backend]["memory_budget"]
                record.update(
                    peak_resident_bytes=s.peak_resident_bytes, budget=budget,
                    spilled_bytes=s.spilled_bytes, merge_passes=s.merge_passes,
                    merge_hooks=s.merge_hooks,
                )
                if ok and s.peak_resident_bytes > budget:
                    tally.fail(f"{what}: peak {s.peak_resident_bytes} B over budget {budget} B", wrong=True)
                    ok = False
            elif backend == "distributed":
                record.update(
                    rounds=s.rounds, retransmits=s.retransmits, recoveries=s.recoveries,
                    bytes_on_wire=s.bytes_on_wire, updates_sent=s.updates_sent,
                    updates_applied=s.updates_applied,
                )
            self.runs.append(record)
            if ok:
                self.times[backend].append(dt * 1e3)


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
def release_setup_inputs(inputs: Inputs) -> None:
    """Drop the generated arrays that only set-up reads, so the measured
    phases, and the worker processes forked during them, do not carry
    the benchmark's own copies."""
    inputs.arrays = None
    inputs.service_plan.base_src = inputs.service_plan.base_dst = None
    gc.collect()


def run_phases(inputs: Inputs, graphs, svc, counts: dict, workdir: Path, tracer=DISABLED, peaks=None):
    """The measured part of a run: ``counts["rounds"]`` rounds, each one
    service checkpoint interval, ``counts["static_per_round"]`` static
    rounds and one scale-out round.  Interleaving the phases spreads
    every metric's samples over the whole run, so drift in the machine's
    speed moves all of them alike instead of one phase's block.

    ``peaks`` (a :class:`perfbench.measure.PeakLog`), when given, notes
    the process's peak RSS after every phase step.  Returns ``(static,
    service, scaleout)`` phase objects.
    """
    note = (peaks or PeakLog()).note
    k = inputs.scaleout_index
    static = StaticPhase(graphs, inputs.references, tracer)
    service = ServicePhase(svc, inputs.service_plan, tracer)
    scaleout = ScaleoutPhase(graphs[k], inputs.references[k], workdir, tracer)
    with use_tracer(tracer):
        static.warm()
        scaleout.warm()
        note("warm-up")
        for _ in range(counts["rounds"]):
            service.chunk()
            note("service")
            for _ in range(counts["static_per_round"]):
                static.round()
            note("static")
            scaleout.round()
            note("scaleout")
        service.close()
    return static, service, scaleout
