"""Wall-clock gate: the checks on real elapsed time that perfbench cannot make.

The other modules in this package regenerate the paper's tables from the
*simulated* cost model; this one measures real elapsed time over the
18-graph paper suite (the Table 2 input classes) and enforces what only a
wall-clock record can show: speedup against frozen pre-change snapshots,
the zero-fault supervisor overhead, the serving layer against naive
recompute, the hardware-conditioned sharded scaling targets, the
out-of-core memory budget and size ceiling, and zero recoveries on
fault-free distributed runs.  Per-phase times and work counters are
``perfbench``'s job, not this module's.

The gate is one table, :data:`LEGS`.  Each :class:`Leg` holds its
runner (which verifies the leg's labels bit-for-bit against
:func:`repro.core.ecl_cc_serial`, raising
:class:`repro.errors.VerificationError` on any mismatch, and returns the
leg's row columns), the column names, the check :func:`check_gate`
applies, and the one-line summary ``benchmarks/wallclock_gate.py``
prints.  The thresholds are the module constants next to their legs.
:func:`run_wallclock_gate` produces the JSON-ready payload; its schema
and the history of its versions are in ``docs/benchmarks.md``.
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ..core import kernels
from ..core.contract import contract_cc
from ..core.ecl_cc_numpy import ecl_cc_numpy
from ..core.ecl_cc_serial import ecl_cc_serial
from ..errors import VerificationError
from ..generators import load, suite_names
from ..graph.csr import CSRGraph
from ..observe import current_tracer

__all__ = [
    "SCHEMA_VERSION",
    "HIGH_DIAMETER",
    "LEGS",
    "DEFAULT_SCALING_WORKERS",
    "OOCORE_DEMO_SPEC",
    "OOCORE_DEMO_DIVISOR",
    "Leg",
    "legacy_numpy_cc",
    "frozen_frontier_cc",
    "run_wallclock_gate",
    "check_gate",
    "summarize",
    "write_gate_json",
]

SCHEMA_VERSION = 8

#: Suite members whose diameter grows with n (meshes and road networks):
#: the inputs the frontier formulation is required to win big on.
HIGH_DIAMETER = frozenset(
    {"2d-2e20.sym", "delaunay_n24", "europe_osm", "USA-road-d.NY", "USA-road-d.USA"}
)

#: Columns every row carries, whichever legs ran.  ``after_ms`` is the
#: live ``numpy`` backend, the reference the speedup ratios divide by.
BASE_COLUMNS = (
    "name", "num_vertices", "num_edges", "high_diameter", "after_ms", "labels_verified"
)

#: Every speedup floor is ``1 - MAX_REGRESSION``: no graph more than 5%
#: slower than the frozen snapshot it is measured against.
MAX_REGRESSION = 0.05


def legacy_numpy_cc(graph: CSRGraph, *, init: str = "Init3") -> np.ndarray:
    """The numpy backend exactly as it stood before the frontier rework.

    Frozen on purpose — this is the gate's "before" measurement, so it
    must keep paying the pre-change costs forever: derived arrays are
    rebuilt on every call (no memoization), initialization scans all
    arcs, hooking re-evaluates every edge each round, and every flatten
    pass pointer-doubles all n vertices with a full ``np.array_equal``
    convergence comparison.  Do not "fix" it.
    """
    n = graph.num_vertices
    parent = np.arange(n, dtype=np.int64)
    if n == 0:
        return parent
    # Pre-change derived arrays: rebuilt per call.
    degrees = np.diff(graph.row_ptr)
    src = np.repeat(np.arange(n, dtype=np.int64), degrees)
    dst = graph.col_idx.copy()
    if init == "Init3":
        hits = np.flatnonzero(dst < src)
        if hits.size:
            first = np.searchsorted(hits, graph.row_ptr[:-1])
            valid = first < hits.size
            rows = np.arange(n)[valid]
            cand = hits[first[valid]]
            in_row = cand < graph.row_ptr[rows + 1]
            parent[rows[in_row]] = dst[cand[in_row]]
    elif init == "Init2":
        smaller = dst < src
        np.minimum.at(parent, src[smaller], dst[smaller])
    elif init != "Init1":
        raise ValueError(f"unknown init variant {init!r}")
    keep = dst > src
    u, v = src[keep], dst[keep]

    def flatten(parent: np.ndarray) -> np.ndarray:
        while True:
            grandparent = parent[parent]
            if np.array_equal(grandparent, parent):
                return parent
            parent = grandparent

    parent = flatten(parent)
    while True:
        ru = parent[u]
        rv = parent[v]
        unmerged = ru != rv
        if not unmerged.any():
            return parent
        hi = np.maximum(ru[unmerged], rv[unmerged])
        lo = np.minimum(ru[unmerged], rv[unmerged])
        np.minimum.at(parent, hi, lo)
        parent = flatten(parent)


def frozen_frontier_cc(graph: CSRGraph) -> np.ndarray:
    """The frontier backend exactly as it stood before the contraction PR.

    Frozen on purpose, like :func:`legacy_numpy_cc` before it: this is
    the schema-v4 "before" measurement, so it must keep the pre-change
    behavior forever — pure-numpy dispatch (no compiled tier), ``int64``
    arrays throughout, hybrid pointer doubling, composite-key dedup.
    It *does* read the memoized ``edge_array()`` cache, which the live
    backend already had at the freeze point.  Do not "fix" it.
    """
    n = graph.num_vertices
    parent = np.arange(n, dtype=np.int64)
    if n == 0:
        return parent
    # Init3 as of the freeze: sorted-adjacency first-neighbor gather,
    # searchsorted first-smaller-arc fallback otherwise.
    if graph.num_arcs:
        if graph.has_sorted_adjacency():
            nonempty = np.flatnonzero(graph.degrees() > 0)
            first = graph.col_idx[graph.row_ptr[nonempty]]
            hit = first < nonempty
            parent[nonempty[hit]] = first[hit]
        else:
            src, dst = graph.arc_array()
            hits = np.flatnonzero(dst < src)
            if hits.size:
                first = np.searchsorted(hits, graph.row_ptr[:-1])
                valid = first < hits.size
                rows = np.arange(n)[valid]
                cand = hits[first[valid]]
                in_row = cand < graph.row_ptr[rows + 1]
                parent[rows[in_row]] = dst[cand[in_row]]

    def uniq(hi, lo):
        if hi.size == 0:
            return hi, lo
        shift = max(int(n), 1).bit_length()
        if shift <= 31:
            key = (hi << np.int64(shift)) | lo
            key.sort()
            keep = np.empty(key.size, dtype=bool)
            keep[0] = True
            np.not_equal(key[1:], key[:-1], out=keep[1:])
            key = key[keep]
            return key >> np.int64(shift), key & np.int64((1 << shift) - 1)
        order = np.lexsort((lo, hi))
        hi_s, lo_s = hi[order], lo[order]
        keep = np.empty(hi_s.size, dtype=bool)
        keep[0] = True
        np.logical_or(hi_s[1:] != hi_s[:-1], lo_s[1:] != lo_s[:-1], out=keep[1:])
        return hi_s[keep], lo_s[keep]

    def flatten_all(par):
        while True:
            grandparent = par[par]
            moving = grandparent != par
            n_moving = np.count_nonzero(moving)
            if n_moving == 0:
                return
            np.copyto(par, grandparent)
            if n_moving * 8 < n:
                break
        active = np.flatnonzero(moving)
        while active.size:
            target = par[par[active]]
            moved = target != par[active]
            if not moved.any():
                return
            active = active[moved]
            par[active] = target[moved]

    def flatten_sub(par, idx):
        while idx.size:
            p = par[idx]
            gp = par[p]
            moved = gp != p
            if not moved.any():
                return
            idx = idx[moved]
            par[idx] = gp[moved]

    flatten_all(parent)
    u, v = graph.edge_array()
    ru = parent[u]
    rv = parent[v]
    alive = ru != rv
    hi, lo = uniq(
        np.maximum(ru[alive], rv[alive]), np.minimum(ru[alive], rv[alive])
    )
    while hi.size:
        starts = np.empty(hi.size, dtype=bool)
        starts[0] = True
        np.not_equal(hi[1:], hi[:-1], out=starts[1:])
        targets = hi[starts]
        candidate = lo[starts]
        old = parent[targets]
        np.minimum(old, candidate, out=candidate)
        parent[targets] = candidate
        flatten_sub(parent, np.concatenate((hi, lo)))
        ru = parent[hi]
        rv = parent[lo]
        alive = ru != rv
        hi, lo = uniq(
            np.maximum(ru[alive], rv[alive]), np.minimum(ru[alive], rv[alive])
        )
    flatten_all(parent)
    return parent


def _time_best(fns, rounds: int) -> list[float]:
    """Best-of-``rounds`` wall times of ``fns``, in milliseconds.

    Rounds are interleaved: every function in a round sees the same
    machine conditions, so a load spike cannot land entirely on one side
    of a recorded ratio.
    """
    best = [float("inf")] * len(fns)
    for _ in range(rounds):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return [b * 1e3 for b in best]


def _cpus_available() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@dataclass
class GraphRun:
    """What a leg runner sees for one suite graph."""

    name: str
    graph: CSRGraph
    scale: str
    repeats: int
    reference: np.ndarray
    #: The live backend's best time, unrounded.
    after_ms: float
    #: Best times of the legs' contenders, interleaved with the live
    #: backend, keyed as the legs' ``contenders`` name them.
    timed: dict
    workers: list
    spill_dir: Path | None

    def verify(self, backend: str, labels: np.ndarray) -> None:
        if not np.array_equal(labels, self.reference):
            raise VerificationError(
                f"{backend} labels diverge from ecl_cc_serial on "
                f"{self.name!r} at scale {self.scale!r}"
            )


@dataclass(frozen=True)
class Leg:
    """One measurement leg of the gate.

    ``run`` verifies the leg's labels and returns its row columns,
    exactly ``columns``; ``check`` returns the problems it finds in a
    payload, treating rows without its columns as exempt; ``summary``
    renders one row's columns for the command line.  ``contenders``, if
    set, maps a graph to the callables timed interleaved with the live
    backend (a few-percent ratio must not be at the mercy of a load
    spike); their best times reach ``run`` as ``GraphRun.timed``.
    """

    run: Callable[[GraphRun], dict]
    columns: tuple
    check: Callable[[dict], list]
    summary: Callable[[dict], str]
    contenders: Callable[[CSRGraph], dict] | None = None


def _carrying(payload: dict, column: str) -> list[dict]:
    return [row for row in payload["graphs"] if column in row]


def _below_floor(rows: list[dict], column: str, what: str) -> list[str]:
    floor = 1.0 - MAX_REGRESSION
    return [
        f"{r['name']}: {what} is {r[column]:.2f}x, below the no-regression "
        f"floor {floor:.2f}x"
        for r in rows
        if r[column] < floor
    ]


# -- legacy: the pre-frontier snapshot ----------------------------------
#: At least one high-diameter graph with this many vertices must reach
#: this speedup over :func:`legacy_numpy_cc`.
LEGACY_TARGET = 3.0
LEGACY_TARGET_VERTICES = 100_000


def _run_legacy(run: GraphRun) -> dict:
    run.verify("legacy", legacy_numpy_cc(run.graph))
    [before_ms] = _time_best([lambda: legacy_numpy_cc(run.graph)], run.repeats)
    return {
        "before_ms": round(before_ms, 3),
        "speedup": round(before_ms / run.after_ms, 3),
    }


def _check_legacy(payload: dict) -> list[str]:
    rows = _carrying(payload, "speedup")
    problems = _below_floor(rows, "speedup", "speedup over the legacy snapshot")
    if rows and not any(
        r["high_diameter"]
        and r["num_vertices"] >= LEGACY_TARGET_VERTICES
        and r["speedup"] >= LEGACY_TARGET
        for r in rows
    ):
        problems.append(
            f"no high-diameter graph with >= {LEGACY_TARGET_VERTICES} "
            f"vertices reached the {LEGACY_TARGET:.1f}x speedup target"
        )
    return problems


# -- resilient: the zero-fault supervisor -------------------------------
#: The supervisor may add this much relative time plus this absolute
#: slack (the smallest suite graphs finish in ~2 ms, where 5% is inside
#: timer jitter).
MAX_SUPERVISOR_OVERHEAD = 0.05
SUPERVISOR_SLACK_MS = 0.3


def _resilient_call(graph: CSRGraph):
    # Local import: repro.resilience imports the core package this
    # module sits next to.
    from ..resilience import resilient_components

    return resilient_components(graph, backends=("numpy",), full_result=False)


def _run_resilient(run: GraphRun) -> dict:
    run.verify("resilient", _resilient_call(run.graph))
    resilient_ms = round(run.timed["resilient"], 3)
    # From the *rounded* fields, so the recorded ratio is exactly
    # reconstructible from the row.
    return {
        "resilient_ms": resilient_ms,
        "supervisor_overhead": round(resilient_ms / round(run.after_ms, 3) - 1.0, 4),
    }


def _check_resilient(payload: dict) -> list[str]:
    problems = []
    for r in _carrying(payload, "resilient_ms"):
        budget_ms = (
            r["after_ms"] * (1.0 + MAX_SUPERVISOR_OVERHEAD) + SUPERVISOR_SLACK_MS
        )
        if r["resilient_ms"] > budget_ms:
            problems.append(
                f"{r['name']}: zero-fault resilient run "
                f"{r['resilient_ms']:.2f} ms exceeds the supervisor overhead "
                f"budget {budget_ms:.2f} ms (after {r['after_ms']:.2f} ms + "
                f"{MAX_SUPERVISOR_OVERHEAD:.0%} + {SUPERVISOR_SLACK_MS:.2f} "
                f"ms slack)"
            )
    return problems


# -- contract: the contraction family against the frozen frontier -------
#: This many graphs must reach this speedup of the best native backend
#: over :func:`frozen_frontier_cc`.
CONTRACT_TARGET = 2.0
CONTRACT_TARGET_GRAPHS = 2


def _contract_contenders(graph: CSRGraph) -> dict:
    if graph.num_vertices < 2**31:
        graph.edge_array_i32()  # warm the cache the contraction backend reads
    return {
        "frozen": lambda: frozen_frontier_cc(graph),
        "contract": lambda: contract_cc(graph),
    }


def _run_contract(run: GraphRun) -> dict:
    graph = run.graph
    run.verify("frozen-frontier", frozen_frontier_cc(graph))
    run.verify("contract", contract_cc(graph)[0])
    # Ratios are taken over the *rounded* fields, so each row's speedups
    # are exactly reconstructible from the row itself.
    frozen_ms = round(run.timed["frozen"], 3)
    contract_ms = round(run.timed["contract"], 3)
    after_ms = round(run.after_ms, 3)
    best_ms = min(contract_ms, after_ms)
    compiled_speedup = 1.0
    if kernels.NUMBA_AVAILABLE:
        # The compiled and fallback tiers must agree bit-for-bit, not
        # just both match serial.
        with kernels.force_numpy():
            run.verify("contract-no-numba", contract_cc(graph)[0])
            [numpy_ms] = _time_best([lambda: contract_cc(graph)], run.repeats)
        compiled_speedup = round(round(numpy_ms, 3) / contract_ms, 3)
    return {
        "frozen_frontier_ms": frozen_ms,
        "contract_ms": contract_ms,
        "contract_speedup": round(frozen_ms / contract_ms, 3),
        "best_ms": best_ms,
        "best_backend": "contract" if contract_ms <= after_ms else "numpy",
        "best_speedup": round(frozen_ms / best_ms, 3),
        "compiled_speedup": compiled_speedup,
    }


def _check_contract(payload: dict) -> list[str]:
    rows = _carrying(payload, "best_speedup")
    problems = _below_floor(
        rows, "best_speedup", "best native backend over the frozen frontier"
    )
    hits = sum(r["best_speedup"] >= CONTRACT_TARGET for r in rows)
    if rows and hits < CONTRACT_TARGET_GRAPHS:
        problems.append(
            f"only {hits} graph(s) reached the {CONTRACT_TARGET:.1f}x "
            f"best-vs-frozen-frontier target (need {CONTRACT_TARGET_GRAPHS})"
        )
    return problems


# -- sharded: the strong-scaling sweep ----------------------------------
#: On >= 2 CPUs every graph keeps this share of the live backend's
#: speed; on >= 4 CPUs this many graphs reach this K_min over K_max
#: strong-scaling speedup.
SHARDED_FLOOR = 0.5
SCALING_TARGET = 1.7
SCALING_TARGET_GRAPHS = 2
#: Worker counts the sweep runs by default.
DEFAULT_SCALING_WORKERS = (1, 2, 4)


def _run_sharded(run: GraphRun) -> dict:
    from ..shard import ShardedExecutor

    scaling: dict[str, float] = {}
    for k in run.workers:
        # A persistent executor per K: the graph's shard export is built
        # and the K-worker pool starts in the untimed verification run,
        # so the timed quantity is the per-solve cost; K=1 runs the
        # identical path, keeping the scaling ratio honest.
        with ShardedExecutor(run.graph, workers=k, force_processes=True) as ex:
            run.verify(f"sharded(K={k})", ex.run().labels)
            scaling[str(k)] = round(_time_best([ex.run], run.repeats)[0], 3)
    k_lo, k_hi = str(run.workers[0]), str(run.workers[-1])
    return {
        "sharded_workers": list(run.workers),
        "scaling": scaling,
        "sharded_ms": scaling[k_hi],
        "sharded_speedup": round(round(run.after_ms, 3) / scaling[k_hi], 3),
        "scaling_speedup": round(scaling[k_lo] / scaling[k_hi], 3),
    }


def _check_sharded(payload: dict) -> list[str]:
    # Strong scaling is a claim about hardware, not code: the floor needs
    # something to parallelize over, the target the cores to show it.
    rows = _carrying(payload, "sharded_speedup")
    cpus = int(payload.get("environment", {}).get("cpu_count", 1))
    problems = []
    if cpus >= 2:
        problems += [
            f"{r['name']}: sharded backend at K={r['sharded_workers'][-1]} "
            f"is {r['sharded_speedup']:.2f}x the live frontier backend, "
            f"below the {SHARDED_FLOOR:.2f}x sharded no-regression floor "
            f"(cpu_count={cpus})"
            for r in rows
            if r["sharded_speedup"] < SHARDED_FLOOR
        ]
    hits = sum(r.get("scaling_speedup", 0.0) >= SCALING_TARGET for r in rows)
    if rows and cpus >= 4 and hits < SCALING_TARGET_GRAPHS:
        problems.append(
            f"only {hits} graph(s) reached the {SCALING_TARGET:.1f}x sharded "
            f"strong-scaling target (K=1 over largest K; need "
            f"{SCALING_TARGET_GRAPHS} with cpu_count={cpus})"
        )
    return problems


# -- oocore: the memory budget and the size-ceiling demo ----------------
#: The demo's CSR footprint over its charged peak.
OOCORE_CEILING_TARGET = 10.0
#: The size-ceiling demo graph: every vertex draws this many random
#: targets, giving one giant component with a CSR footprint comfortably
#: over ten times the demo budget of ``csr_bytes // OOCORE_DEMO_DIVISOR``.
OOCORE_DEMO_SPEC = {"num_vertices": 3000, "out_degree": 40, "seed": 7}
OOCORE_DEMO_DIVISOR = 12


def _run_oocore(run: GraphRun) -> dict:
    from ..outofcore import min_feasible_budget, oocore_cc

    graph = run.graph
    csr_bytes = (graph.num_vertices + 1 + graph.num_arcs) * 8
    # A quarter of the CSR footprint, but never tighter than twice the
    # feasibility floor: at the floor the headroom above the resident
    # parent array is a single minimal shard, forcing pathologically fine
    # partitions.  The budget stays below the CSR footprint, which is the
    # streaming claim the columns witness.
    budget = max(2 * min_feasible_budget(graph), csr_bytes // 4)
    spill = run.spill_dir / run.name if run.spill_dir is not None else None
    labels, stats, _ = oocore_cc(graph, memory_budget=budget, spill_dir=spill)
    run.verify("oocore", labels)
    return {
        "oocore_budget_bytes": int(budget),
        "oocore_peak_bytes": int(stats.peak_resident_bytes),
    }


def _oocore_demo(spill_dir: Path | None) -> dict:
    """Solve the fixed size-ceiling demo graph out-of-core."""
    from ..generators.random_regular import random_out_degree
    from ..outofcore import oocore_cc

    graph = random_out_degree(**OOCORE_DEMO_SPEC, name="oocore-demo")
    budget = (graph.num_vertices + 1 + graph.num_arcs) * 8 // OOCORE_DEMO_DIVISOR
    spill = spill_dir / "oocore_demo" if spill_dir is not None else None
    with current_tracer().span(
        "wallclock:oocore-demo", category="experiments.wallclock", graph=graph.name
    ):
        t0 = time.perf_counter()
        # With a named spill dir the demo's spill (manifest included)
        # stays on disk as uploadable evidence.
        labels, stats, _ = oocore_cc(
            graph, memory_budget=budget, spill_dir=spill, keep_spill=spill is not None
        )
        demo_ms = (time.perf_counter() - t0) * 1e3
    if not np.array_equal(labels, ecl_cc_serial(graph)[0]):
        raise VerificationError("oocore labels diverge from ecl_cc_serial on the demo")
    return {
        "graph": graph.name,
        "num_vertices": int(graph.num_vertices),
        "num_edges": int(graph.num_arcs // 2),
        "oocore_ms": round(demo_ms, 3),
        "oocore_budget_bytes": int(budget),
        "oocore_peak_bytes": int(stats.peak_resident_bytes),
        "oocore_csr_bytes": int(stats.csr_bytes),
        "oocore_ceiling": round(stats.ceiling, 2),
        "oocore_shards": int(stats.num_shards),
        "oocore_merge_passes": int(stats.merge_passes),
        "labels_verified": True,
    }


def _check_oocore(payload: dict) -> list[str]:
    # A memory budget is a claim about the code, not the machine: not
    # hardware-conditioned.
    problems = [
        f"{r['name']}: out-of-core peak resident {r['oocore_peak_bytes']} B "
        f"exceeds the memory budget {r['oocore_budget_bytes']} B"
        for r in _carrying(payload, "oocore_peak_bytes")
        if r["oocore_peak_bytes"] > r["oocore_budget_bytes"]
    ]
    demo = payload.get("oocore_demo")
    if demo is not None:
        if demo["oocore_peak_bytes"] > demo["oocore_budget_bytes"]:
            problems.append(
                f"oocore demo: peak resident {demo['oocore_peak_bytes']} B "
                f"exceeds the memory budget {demo['oocore_budget_bytes']} B"
            )
        if demo["oocore_ceiling"] < OOCORE_CEILING_TARGET:
            problems.append(
                f"oocore demo: size ceiling {demo['oocore_ceiling']:.1f}x "
                f"(CSR bytes over charged peak) is below the "
                f"{OOCORE_CEILING_TARGET:.0f}x out-of-core target"
            )
        if not demo.get("labels_verified"):
            problems.append(
                "oocore demo: labels were not verified against the serial "
                "oracle; the run is not gate evidence"
            )
    return problems


# -- distributed: no false failure detection ----------------------------
#: Simulated hosts (threads, so not hardware-conditioned).
DIST_GATE_HOSTS = 4


def _run_distributed(run: GraphRun) -> dict:
    from ..dist import dist_cc

    result = dist_cc(run.graph, hosts=DIST_GATE_HOSTS)
    run.verify("distributed", result.labels)
    return {"dist_recoveries": int(result.stats.recoveries)}


def _check_distributed(payload: dict) -> list[str]:
    # A fault-free run that needed recovery means the failure detector
    # fires falsely under benchmark load, which would poison every chaos
    # measurement built on it.
    return [
        f"{r['name']}: distributed leg needed {r['dist_recoveries']} "
        f"recovery action(s) in a fault-free run; the failure detector is "
        f"firing falsely under benchmark load"
        for r in _carrying(payload, "dist_recoveries")
        if r["dist_recoveries"] != 0
    ]


# -- service: batched serving against naive recompute -------------------
#: The service's speedup over naive recompute, under this many seeded
#: 90/10 mixed ops per graph; naive runs over a capped prefix.
SERVICE_TARGET = 10.0
SERVICE_OPS = 20_000
NAIVE_MAX_OPS = 300


def _run_service(run: GraphRun) -> dict:
    from .loadgen import compare_loadgen

    lg = compare_loadgen(run.graph, num_ops=SERVICE_OPS, naive_max_ops=NAIVE_MAX_OPS)
    return {
        "service_qps": round(lg["service_qps"], 1),
        "naive_qps": round(lg["naive_qps"], 1),
        "service_speedup": round(lg["service_speedup"], 2),
        "service_verified": lg["verified"],
    }


def _check_service(payload: dict) -> list[str]:
    return [
        f"{r['name']}: service speedup {r['service_speedup']:.1f}x over the "
        f"naive recompute baseline is below the {SERVICE_TARGET:.0f}x "
        f"serving target"
        for r in _carrying(payload, "service_speedup")
        if r["service_speedup"] < SERVICE_TARGET
    ]


#: The gate's legs, in run and column order; ``--backends`` selects
#: among them.  The live backend is timed and verified on every graph.
LEGS: dict[str, Leg] = {
    "legacy": Leg(
        run=_run_legacy,
        columns=("before_ms", "speedup"),
        check=_check_legacy,
        summary=lambda r: (
            f"before {r['before_ms']:9.2f} ms  speedup {r['speedup']:5.2f}x"
        ),
    ),
    "resilient": Leg(
        run=_run_resilient,
        columns=("resilient_ms", "supervisor_overhead"),
        check=_check_resilient,
        summary=lambda r: (
            f"resilient {r['resilient_ms']:9.2f} ms "
            f"({r['supervisor_overhead']:+.1%})"
        ),
        contenders=lambda graph: {"resilient": lambda: _resilient_call(graph)},
    ),
    "contract": Leg(
        run=_run_contract,
        columns=("frozen_frontier_ms", "contract_ms", "contract_speedup",
                 "best_ms", "best_backend", "best_speedup", "compiled_speedup"),
        check=_check_contract,
        summary=lambda r: (
            f"frozen {r['frozen_frontier_ms']:9.2f} ms  "
            f"contract {r['contract_ms']:9.2f} ms  "
            f"best {r['best_backend']:8s} {r['best_speedup']:5.2f}x  "
            f"compiled {r['compiled_speedup']:5.2f}x"
        ),
        contenders=_contract_contenders,
    ),
    "sharded": Leg(
        run=_run_sharded,
        columns=("sharded_workers", "scaling", "sharded_ms", "sharded_speedup",
                 "scaling_speedup"),
        check=_check_sharded,
        summary=lambda r: (
            "sharded ["
            + " ".join(f"K{k}={ms:.2f}" for k, ms in r["scaling"].items())
            + f"] ms  scaling {r['scaling_speedup']:4.2f}x"
        ),
    ),
    "oocore": Leg(
        run=_run_oocore,
        columns=("oocore_budget_bytes", "oocore_peak_bytes"),
        check=_check_oocore,
        summary=lambda r: (
            f"oocore peak {r['oocore_peak_bytes'] / 1e6:7.2f}"
            f"/{r['oocore_budget_bytes'] / 1e6:.2f} MB"
        ),
    ),
    "distributed": Leg(
        run=_run_distributed,
        columns=("dist_recoveries",),
        check=_check_distributed,
        summary=lambda r: f"dist recoveries {r['dist_recoveries']}",
    ),
    "service": Leg(
        run=_run_service,
        columns=("service_qps", "naive_qps", "service_speedup", "service_verified"),
        check=_check_service,
        summary=lambda r: (
            f"service {r['service_qps']:9.0f} q/s "
            f"({r['service_speedup']:6.0f}x naive)"
        ),
    ),
}


def _worker_counts(workers: list[int] | None) -> list[int]:
    if workers is None:
        return list(DEFAULT_SCALING_WORKERS)
    if not workers or any(not isinstance(w, int) or w < 1 for w in workers):
        raise ValueError(
            f"worker counts must be one or more positive integers, not {workers!r}"
        )
    return sorted(set(workers))


def run_wallclock_gate(
    scale: str = "medium",
    names: list[str] | None = None,
    repeats: int = 3,
    backends: list[str] | None = None,
    workers: list[int] | None = None,
    oocore_spill_dir: str | Path | None = None,
) -> dict:
    """Benchmark the suite and return the JSON-ready gate payload.

    Per graph the live ``numpy`` backend is timed (``after_ms``) and
    verified, then every selected leg of :data:`LEGS` runs in table
    order and adds its columns; a label mismatch anywhere raises
    :class:`VerificationError` naming the graph and backend, so nothing
    unverified is recorded.  ``backends`` selects legs (``None`` runs
    all of them); rows of a filtered run simply lack the skipped legs'
    columns, which :func:`check_gate` treats as exempt.  ``repeats`` is
    the best-of count; contenders timed against the live backend run at
    least nine interleaved rounds.

    ``workers`` lists the sharded leg's worker counts (default
    :data:`DEFAULT_SCALING_WORKERS`; positive integers, deduplicated and
    sorted).  ``oocore_spill_dir`` sends the oocore leg's spills to
    per-graph subdirectories of that path instead of temp directories,
    and keeps the size-ceiling demo's spill, manifest included, on disk.
    """
    legs = set(LEGS if backends is None else backends)
    unknown = legs - LEGS.keys()
    if unknown:
        raise ValueError(
            f"unknown gate leg{'s' if len(unknown) > 1 else ''} "
            f"{', '.join(sorted(unknown))}; valid legs: {', '.join(LEGS)}"
        )
    selected = [leg for name, leg in LEGS.items() if name in legs]
    worker_counts = _worker_counts(workers)
    spill_dir = Path(oocore_spill_dir) if oocore_spill_dir is not None else None
    tracer = current_tracer()
    rows = []
    for name in names or suite_names():
        with tracer.span(
            "wallclock:graph", category="experiments.wallclock", graph=name
        ):
            graph = load(name, scale)
            # Warm the memoized derived arrays: the live backends amortize
            # them once per graph lifetime, which is the behavior being
            # measured; the legacy snapshot rebuilds its arrays per call.
            graph.edge_array()
            graph.degrees()
            contenders = {"after": lambda: ecl_cc_numpy(graph)}
            for leg in selected:
                if leg.contenders is not None:
                    contenders.update(leg.contenders(graph))
            # At least nine rounds, so the best-of minimum is stable.
            times = _time_best(list(contenders.values()), max(repeats, 9))
            timed = dict(zip(contenders, times))
            run = GraphRun(
                name, graph, scale, repeats, ecl_cc_serial(graph)[0],
                timed.pop("after"), timed, worker_counts, spill_dir,
            )
            run.verify("numpy", ecl_cc_numpy(graph)[0])
            row = {
                "name": name,
                "num_vertices": int(graph.num_vertices),
                "num_edges": int(graph.num_arcs // 2),
                "high_diameter": name in HIGH_DIAMETER,
                "after_ms": round(run.after_ms, 3),
                "labels_verified": True,
            }
            for leg in selected:
                row.update(leg.run(run))
            rows.append(row)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "benchmark": "core_wallclock",
        "scale": scale,
        "repeats": repeats,
        "baseline": "pre-frontier ecl_cc_numpy snapshot (legacy_numpy_cc)",
        "frontier_baseline": "pre-contraction frontier snapshot (frozen_frontier_cc)",
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "numba": kernels.NUMBA_AVAILABLE,
            "machine": platform.machine(),
            "system": platform.system(),
            # Strong scaling is a hardware claim: record what this box
            # actually has so check_gate can condition the targets.
            "cpu_count": os.cpu_count() or 1,
            "cpus_available": _cpus_available(),
            "sharded_workers": worker_counts if "sharded" in legs else [],
        },
        "graphs": rows,
    }
    if "oocore" in legs:
        payload["oocore_demo"] = _oocore_demo(spill_dir)
    return payload


def check_gate(payload: dict) -> list[str]:
    """Apply every leg's acceptance check; returns a list of problems.

    The gate passes on an empty list.  Rows and payload sections without
    a leg's columns (older schemas, or ``--backends`` runs that skipped
    the leg) are exempt from that leg's check; the thresholds are the
    module constants.
    """
    return [problem for leg in LEGS.values() for problem in leg.check(payload)]


def summarize(payload: dict) -> list[str]:
    """One line per graph (each present leg's summary), plus the demo."""
    width = max((len(r["name"]) for r in payload["graphs"]), default=0)
    lines = []
    for row in payload["graphs"]:
        parts = [f"{row['name']:{width}s}", f"frontier {row['after_ms']:9.2f} ms"]
        parts += [
            leg.summary(row) for leg in LEGS.values() if leg.columns[0] in row
        ]
        if row["high_diameter"]:
            parts.append("[high-diameter]")
        lines.append("  ".join(parts))
    demo = payload.get("oocore_demo")
    if demo is not None:
        lines.append(
            f"oocore demo: csr {demo['oocore_csr_bytes'] / 1e6:.2f} MB under a "
            f"{demo['oocore_budget_bytes'] / 1e6:.2f} MB budget, peak "
            f"{demo['oocore_peak_bytes'] / 1e6:.2f} MB, ceiling "
            f"{demo['oocore_ceiling']:.1f}x"
        )
    return lines


def write_gate_json(payload: dict, path: str | Path) -> Path:
    """Write the gate payload as pretty-printed JSON; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path
