"""Wall-clock benchmark gate for the frontier-shrinking numpy backend.

The other modules in this package regenerate the paper's tables from the
*simulated* cost model; this one measures real elapsed time.  It exists
to keep the native hot path honest: every run

1. times the current :func:`repro.core.ecl_cc_numpy` (the
   frontier-shrinking formulation) against :func:`legacy_numpy_cc`, a
   frozen snapshot of the backend as it stood *before* the frontier
   rework — per-call derived-array construction, arc-scan
   initialization, ``np.minimum.at`` hooking, and whole-array
   ``np.array_equal`` flattening — so the recorded speedup is against
   the real pre-change cost, not a baseline that silently inherits the
   new caching;
2. records the round/pass counts and the frontier-size curve of the
   optimized run, so a regression in *work* is visible even when the
   machine is noisy;
3. verifies every backend's labels bit-for-bit against
   :func:`repro.core.ecl_cc_serial` and raises
   :class:`repro.errors.VerificationError` on any mismatch — a benchmark
   of wrong answers is worse than no benchmark.

Since schema v3 the gate also covers the serving layer: each row runs
the mixed read/write load generator (:mod:`repro.experiments.loadgen`)
against :class:`repro.ConnectivityService` and against the naive
recompute-per-mutation baseline, recording ``service_qps`` /
``naive_qps`` / ``service_speedup`` — so a regression in the batched
incremental path is caught by the same gate that guards the kernels.

Schema v4 adds the contraction-era columns, measured against
:func:`frozen_frontier_cc` — a snapshot of the frontier backend exactly
as it stood *before* the contraction/compiled-tier PR (pure-numpy
dispatch, int64 throughout), frozen for the same reason
:func:`legacy_numpy_cc` is: the "before" side must keep paying the
pre-change costs forever.  Each row records ``frozen_frontier_ms``, the
contraction backend's ``contract_ms`` / ``contract_speedup``, the
family's best native time (``best_ms`` / ``best_backend`` /
``best_speedup`` = frozen over best), and ``compiled_speedup`` (the
contraction backend with the numba tier active over the same code under
:func:`repro.core.kernels.force_numpy`; 1.0 when numba is absent).

Schema v5 adds the strong-scaling columns for the sharded multi-process
backend (:mod:`repro.shard`): per graph, a ``scaling`` map of wall time
at worker counts K (default 1, 2, 4), each K measured on a *warm*
:class:`~repro.shard.ShardedExecutor` — the process-wide worker pool
started and the CSR arrays exported to shared memory before timing, so
the recorded time is the amortized
per-solve cost a serving loop actually pays — plus ``sharded_ms`` (the
largest-K time), ``sharded_speedup`` (live frontier over sharded), and
``scaling_speedup`` (K=1 over the largest K).  The environment block
records ``cpu_count`` / ``cpus_available``: strong scaling is a claim
about hardware, so :func:`check_gate` only enforces the scaling target
on machines with the cores to show it (and the sharded no-regression
floor only with at least two).

Schema v6 adds the out-of-core leg (:mod:`repro.outofcore`): per graph,
``oocore_ms`` plus the budget-accounting evidence columns
(``oocore_budget_bytes`` / ``oocore_peak_bytes`` / ``oocore_csr_bytes``
/ ``oocore_ceiling`` / ``oocore_shards`` / ``oocore_merge_passes``),
measured under an explicit ``memory_budget`` of a quarter of the CSR
footprint (or twice the feasibility floor, whichever is larger — at the
floor itself the auto-sharder degenerates into pathologically fine
partitions), with labels verified against serial.  The payload also carries a top-level
``oocore_demo`` section — a fixed random graph whose CSR footprint is
at least ten times its budget, solved out-of-core with the charged peak
under budget — the size-ceiling claim of the external-memory path,
which :func:`check_gate` enforces (peak within budget on every row,
demo ceiling of at least 10x, demo labels verified).

Schema v7 adds the distributed leg (:mod:`repro.dist`): per graph,
``dist_ms`` (wall time of the fault-free K-host merge), ``dist_rounds``
(boundary-exchange rounds to convergence), ``dist_bytes_on_wire``
(total simulated network traffic — the bandwidth-consciousness
evidence), and ``dist_recoveries`` (failure-detector reassignments,
which :func:`check_gate` requires to be **zero**: a clean gate run that
needed recovery means the failure detector fired falsely under
benchmark load).  Labels are verified against serial like every other
leg.

:func:`run_wallclock_gate` produces a JSON-ready payload (schema
documented in ``docs/benchmarks.md``), :func:`check_gate` applies the
acceptance thresholds, and ``benchmarks/wallclock_gate.py`` is the
command-line entry point that writes ``BENCH_core_wallclock.json``.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from ..baselines.fastsv import fastsv_cc
from ..core import kernels
from ..core.contract import contract_cc
from ..core.ecl_cc_numpy import ecl_cc_numpy, ecl_cc_numpy_dense
from ..core.ecl_cc_serial import ecl_cc_serial
from ..errors import VerificationError
from ..generators import load, suite_names
from ..graph.csr import CSRGraph
from ..observe import current_tracer

__all__ = [
    "SCHEMA_VERSION",
    "HIGH_DIAMETER",
    "GATE_LEGS",
    "DEFAULT_SCALING_WORKERS",
    "OOCORE_DEMO_SPEC",
    "OOCORE_DEMO_DIVISOR",
    "legacy_numpy_cc",
    "frozen_frontier_cc",
    "run_wallclock_gate",
    "check_gate",
    "write_gate_json",
]

SCHEMA_VERSION = 7

#: Optional measurement legs of :func:`run_wallclock_gate`; the live
#: frontier backend and the frozen frontier snapshot are always timed
#: (every speedup column is a ratio against one of them).
GATE_LEGS = frozenset(
    {
        "legacy",
        "dense",
        "fastsv",
        "resilient",
        "contract",
        "sharded",
        "oocore",
        "distributed",
    }
)

#: Host count the v7 distributed leg runs at (threads, so not
#: hardware-conditioned the way the sharded process pool is).
DIST_GATE_HOSTS = 4

#: The v6 size-ceiling demo graph: every vertex draws this many random
#: targets, giving one giant component with a CSR footprint comfortably
#: over ten times the demo budget of ``csr_bytes // OOCORE_DEMO_DIVISOR``.
OOCORE_DEMO_SPEC = {"num_vertices": 3000, "out_degree": 40, "seed": 7}
OOCORE_DEMO_DIVISOR = 12

#: Worker counts the sharded strong-scaling leg sweeps by default.
DEFAULT_SCALING_WORKERS = (1, 2, 4)


def _cpus_available() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1

#: Suite members whose diameter grows with n (meshes and road networks):
#: the inputs the frontier formulation is required to win big on.
HIGH_DIAMETER = frozenset(
    {
        "2d-2e20.sym",
        "delaunay_n24",
        "europe_osm",
        "USA-road-d.NY",
        "USA-road-d.USA",
    }
)


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


def _time_best(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall time of ``fn()``, in milliseconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def _time_best_pair(fn_a, fn_b, repeats: int) -> tuple[float, float]:
    """Best-of wall times of two functions measured interleaved.

    Timing A's repeats and then B's lets a load spike land entirely on
    one side, which on ~10 ms workloads can dwarf the few-percent
    difference being measured.  Alternating A,B per round exposes both
    to the same machine conditions; at least nine rounds so the best-of
    minimum is stable.
    """
    best_a, best_b = _time_best_many((fn_a, fn_b), repeats)
    return best_a, best_b


def _time_best_many(fns, repeats: int) -> list[float]:
    """Best-of wall times of several functions, rounds interleaved.

    Generalizes :func:`_time_best_pair` to the v4 column family: every
    contender in a round sees the same machine conditions, so a load
    spike cannot land entirely on one side of a recorded ratio.
    """
    best = [float("inf")] * len(fns)
    for _ in range(max(repeats, 9)):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return [b * 1e3 for b in best]


def run_wallclock_gate(
    scale: str = "medium",
    names: list[str] | None = None,
    repeats: int = 3,
    verify: bool = True,
    service_ops: int = 20_000,
    naive_max_ops: int = 300,
    backends: list[str] | None = None,
    workers: list[int] | None = None,
    oocore_spill_dir: str | Path | None = None,
) -> dict:
    """Benchmark the suite and return the JSON-ready gate payload.

    Per graph: wall time of the pre-frontier snapshot (``before_ms``),
    the live frontier backend (``after_ms``), the pre-contraction
    frontier snapshot (``frozen_frontier_ms``), the contraction backend
    (``contract_ms``), the shared-cache dense ablation (``dense_ms``),
    FastSV (``fastsv_ms``), and the frontier backend wrapped in the
    resilient supervisor with no faults armed (``resilient_ms``, with
    the ratio ``supervisor_overhead`` = ``resilient_ms / after_ms -
    1``); the frontier backend's round counts and frontier curve; and —
    when ``verify`` is set — a bit-for-bit label comparison of every
    measured backend against the serial reference.  A mismatch raises
    :class:`VerificationError` naming the graph and backend; nothing is
    silently recorded.

    The schema-v4 head-to-head columns are ratios against the frozen
    frontier snapshot: ``contract_speedup`` (frozen over contraction),
    ``best_ms`` / ``best_backend`` / ``best_speedup`` (frozen over the
    faster of contraction and the live frontier — the family the gate
    actually ships), and ``compiled_speedup`` (contraction with the
    numba tier over the same code under ``force_numpy``; 1.0 when numba
    is absent, and recorded per run in ``environment["numba"]``).

    ``backends`` filters the optional measurement legs (members of
    :data:`GATE_LEGS`: ``legacy``, ``dense``, ``fastsv``,
    ``resilient``, ``contract``) so CI smoke runs can gate a subset
    without regenerating the full baseline; ``None`` runs everything.
    The live frontier backend and the frozen frontier snapshot are
    always timed.  Rows produced by a filtered run simply lack the
    skipped legs' columns, which :func:`check_gate` treats as exempt.

    Schema v3's serving-layer columns are unchanged: a seeded 90/10
    mixed read/write load of ``service_ops`` operations through
    :class:`~repro.service.ConnectivityService` (``service_qps``) versus
    the recompute-per-mutation baseline measured over a capped
    ``naive_max_ops`` prefix (``naive_qps``), with the post-run
    ``labels_snapshot()`` differentially verified against the oracle.
    Pass ``service_ops=0`` to skip the serving columns.

    The schema-v5 ``sharded`` leg sweeps ``workers`` worker counts
    (default :data:`DEFAULT_SCALING_WORKERS`, validated to positive
    unique integers) over a persistent process-mode
    :class:`~repro.shard.ShardedExecutor` per K — shared-memory export
    paid once per executor and worker start-up in the untimed
    verification run, each solve timed best-of — recording a
    ``scaling`` map plus ``sharded_ms`` / ``sharded_speedup`` /
    ``scaling_speedup``, with every K's labels verified against serial.

    The schema-v6 ``oocore`` leg solves each graph out-of-core under an
    explicit ``memory_budget`` — a quarter of the CSR footprint, or
    twice the feasibility floor when the graph is too small for that
    to stream —
    recording ``oocore_ms`` and the budget-accounting evidence
    (``oocore_budget_bytes``, ``oocore_peak_bytes``,
    ``oocore_csr_bytes``, ``oocore_ceiling``, ``oocore_shards``,
    ``oocore_merge_passes``), and adds a top-level ``oocore_demo``
    section solving a fixed random graph (:data:`OOCORE_DEMO_SPEC`)
    under a budget of ``csr_bytes // OOCORE_DEMO_DIVISOR`` — the
    size-ceiling demonstration: a CSR at least ten times the budget,
    streamed with the charged peak under budget and labels verified.
    ``oocore_spill_dir`` redirects the leg's spills from temp
    directories to per-graph subdirectories of the named path; the
    demo's spill is then kept on disk (manifest included) so CI can
    upload it as an artifact.

    The schema-v7 ``distributed`` leg solves each graph fault-free
    across :data:`DIST_GATE_HOSTS` simulated hosts, recording
    ``dist_ms`` / ``dist_hosts`` / ``dist_rounds`` /
    ``dist_bytes_on_wire`` / ``dist_recoveries`` with labels verified
    against serial; :func:`check_gate` requires ``dist_recoveries`` to
    be zero (no false-positive failure detection under benchmark load).
    """
    # Local import: repro.resilience imports the core package this
    # module sits next to.
    from ..resilience import resilient_components
    from .loadgen import compare_loadgen

    legs = GATE_LEGS if backends is None else frozenset(backends)
    unknown = legs - GATE_LEGS
    if unknown:
        raise ValueError(
            f"unknown gate leg{'s' if len(unknown) > 1 else ''} "
            f"{', '.join(sorted(unknown))}; valid legs: "
            f"{', '.join(sorted(GATE_LEGS))}"
        )
    if workers is None:
        worker_counts = list(DEFAULT_SCALING_WORKERS)
    else:
        bad = [w for w in workers if not isinstance(w, int) or w < 1]
        if bad:
            raise ValueError(
                f"invalid worker count{'s' if len(bad) > 1 else ''} "
                f"{', '.join(repr(w) for w in bad)}; worker counts must be "
                f"positive integers"
            )
        worker_counts = sorted(set(workers))
        if not worker_counts:
            raise ValueError("workers must name at least one worker count")
    tracer = current_tracer()
    rows = []
    for name in names or suite_names():
        with tracer.span(
            "wallclock:graph", category="experiments.wallclock", graph=name
        ):
            graph = load(name, scale)
            # Warm the memoized derived arrays: the optimized backends
            # amortize this once per graph lifetime, which is exactly
            # the behavior being measured; the legacy snapshot rebuilds
            # its arrays inside every call, as it always did.
            graph.edge_array()
            graph.degrees()
            if "contract" in legs and graph.num_vertices < 2**31:
                graph.edge_array_i32()
            labels, stats = ecl_cc_numpy(graph)
            # The family head-to-head is measured interleaved: every
            # contender sees the same machine conditions, so the ratio
            # columns are not at the mercy of a load spike.
            contenders = [
                ("after", lambda: ecl_cc_numpy(graph)),
                ("frozen", lambda: frozen_frontier_cc(graph)),
            ]
            if "contract" in legs:
                contenders.append(("contract", lambda: contract_cc(graph)))
            if "resilient" in legs:
                contenders.append(
                    (
                        "resilient",
                        lambda: resilient_components(graph, backends=("numpy",)),
                    )
                )
            timed = dict(
                zip(
                    [key for key, _ in contenders],
                    _time_best_many([fn for _, fn in contenders], repeats),
                )
            )
            after_ms = timed["after"]
            frozen_ms = timed["frozen"]
            if "legacy" in legs:
                before_ms = _time_best(lambda: legacy_numpy_cc(graph), repeats)
            if "dense" in legs:
                dense_ms = _time_best(lambda: ecl_cc_numpy_dense(graph), repeats)
            if "fastsv" in legs:
                fastsv_ms = _time_best(lambda: fastsv_cc(graph), repeats)
            if "contract" in legs and kernels.NUMBA_AVAILABLE:
                with kernels.force_numpy():
                    contract_numpy_ms = _time_best(
                        lambda: contract_cc(graph), repeats
                    )
            if verify:
                reference, _ = ecl_cc_serial(graph)
                checks = [
                    ("numpy", labels),
                    ("frozen-frontier", frozen_frontier_cc(graph)),
                ]
                if "dense" in legs:
                    checks.append(("numpy-dense", ecl_cc_numpy_dense(graph)[0]))
                if "fastsv" in legs:
                    checks.append(("fastsv", fastsv_cc(graph)[0]))
                if "legacy" in legs:
                    checks.append(("legacy", legacy_numpy_cc(graph)))
                if "contract" in legs:
                    checks.append(("contract", contract_cc(graph)[0]))
                    if kernels.NUMBA_AVAILABLE:
                        # The compiled and fallback tiers must agree
                        # bit-for-bit, not just both match serial.
                        with kernels.force_numpy():
                            checks.append(
                                ("contract-no-numba", contract_cc(graph)[0])
                            )
                if "resilient" in legs:
                    checks.append(
                        (
                            "resilient",
                            resilient_components(
                                graph, backends=("numpy",), full_result=False
                            ),
                        )
                    )
                for backend, got in checks:
                    if not np.array_equal(got, reference):
                        raise VerificationError(
                            f"{backend} labels diverge from ecl_cc_serial "
                            f"on {name!r} at scale {scale!r}"
                        )
            row = {
                "name": name,
                "num_vertices": int(graph.num_vertices),
                "num_edges": int(graph.num_arcs // 2),
                "high_diameter": name in HIGH_DIAMETER,
                "after_ms": round(after_ms, 3),
                "frozen_frontier_ms": round(frozen_ms, 3),
                "hook_rounds": stats.hook_rounds,
                "doubling_passes": stats.doubling_passes,
                "frontier_sizes": list(stats.frontier_sizes),
                "labels_verified": bool(verify),
            }
            if "legacy" in legs:
                row["before_ms"] = round(before_ms, 3)
                row["speedup"] = round(before_ms / after_ms, 3)
            if "dense" in legs:
                row["dense_ms"] = round(dense_ms, 3)
            if "fastsv" in legs:
                row["fastsv_ms"] = round(fastsv_ms, 3)
            if "resilient" in legs:
                row["resilient_ms"] = round(timed["resilient"], 3)
                # From the *rounded* fields, so the recorded ratio is
                # exactly reconstructible from the row.
                row["supervisor_overhead"] = round(
                    round(timed["resilient"], 3) / round(after_ms, 3) - 1.0, 4
                )
            if "contract" in legs:
                # Ratios are taken over the *rounded* fields, like
                # supervisor_overhead, so each row's speedups are
                # exactly reconstructible from the row itself.
                contract_ms = round(timed["contract"], 3)
                best_ms = min(contract_ms, row["after_ms"])
                row["contract_ms"] = contract_ms
                row["contract_speedup"] = round(
                    row["frozen_frontier_ms"] / contract_ms, 3
                )
                row["best_ms"] = best_ms
                row["best_backend"] = (
                    "contract" if contract_ms <= row["after_ms"] else "numpy"
                )
                row["best_speedup"] = round(
                    row["frozen_frontier_ms"] / best_ms, 3
                )
                row["compiled_speedup"] = (
                    round(round(contract_numpy_ms, 3) / contract_ms, 3)
                    if kernels.NUMBA_AVAILABLE
                    else 1.0
                )
            if "sharded" in legs:
                from ..shard import ShardedExecutor

                scaling: dict[str, float] = {}
                for k in worker_counts:
                    # A persistent executor per K: shared-memory export is
                    # paid once and the K-worker pool starts in the untimed
                    # first run, so the timed quantity is the amortized
                    # per-solve cost — K=1 pays the identical transport,
                    # keeping the scaling ratio honest.
                    with ShardedExecutor(
                        graph, workers=k, force_processes=True
                    ) as ex:
                        if verify and not np.array_equal(
                            ex.run().labels, reference
                        ):
                            raise VerificationError(
                                f"sharded(K={k}) labels diverge from "
                                f"ecl_cc_serial on {name!r} at scale {scale!r}"
                            )
                        scaling[str(k)] = round(
                            _time_best(lambda: ex.run(), repeats), 3
                        )
                k_lo, k_hi = str(worker_counts[0]), str(worker_counts[-1])
                row["sharded_workers"] = list(worker_counts)
                row["scaling"] = scaling
                row["sharded_ms"] = scaling[k_hi]
                row["sharded_speedup"] = round(
                    row["after_ms"] / scaling[k_hi], 3
                )
                row["scaling_speedup"] = round(scaling[k_lo] / scaling[k_hi], 3)
            if "oocore" in legs:
                # Local import for the same reason as resilience above.
                from ..outofcore import min_feasible_budget, oocore_cc

                csr_bytes = (graph.num_vertices + 1 + graph.num_arcs) * 8
                # Quarter of the CSR footprint, but never tighter than
                # twice the feasibility floor: at the floor the headroom
                # above the resident parent array is a single minimal
                # shard, so the auto-sharder is forced into pathologically
                # fine partitions (and a checkpoint per tiny shard).
                # Doubling the floor keeps shard counts sane while the
                # budget stays below the CSR footprint, which is the
                # streaming claim the columns exist to witness.
                budget = max(2 * min_feasible_budget(graph), csr_bytes // 4)
                row_spill = (
                    Path(oocore_spill_dir) / name
                    if oocore_spill_dir is not None
                    else None
                )
                ooc_state: dict = {}

                def _oocore_leg():
                    labels, st, _ = oocore_cc(
                        graph, memory_budget=budget, spill_dir=row_spill
                    )
                    ooc_state["labels"], ooc_state["stats"] = labels, st

                oocore_ms = _time_best(_oocore_leg, repeats)
                ooc_stats = ooc_state["stats"]
                if verify and not np.array_equal(
                    ooc_state["labels"], reference
                ):
                    raise VerificationError(
                        f"oocore labels diverge from ecl_cc_serial on "
                        f"{name!r} at scale {scale!r}"
                    )
                row["oocore_ms"] = round(oocore_ms, 3)
                row["oocore_budget_bytes"] = int(budget)
                row["oocore_peak_bytes"] = int(ooc_stats.peak_resident_bytes)
                row["oocore_csr_bytes"] = int(ooc_stats.csr_bytes)
                row["oocore_ceiling"] = round(ooc_stats.ceiling, 2)
                row["oocore_shards"] = int(ooc_stats.num_shards)
                row["oocore_merge_passes"] = int(ooc_stats.merge_passes)
            if "distributed" in legs:
                # Local import for the same reason as resilience above.
                from ..dist import dist_cc

                dist_state: dict = {}

                def _dist_leg():
                    res = dist_cc(graph, hosts=DIST_GATE_HOSTS)
                    dist_state["labels"] = res.labels
                    dist_state["stats"] = res.stats

                dist_ms = _time_best(_dist_leg, repeats)
                dist_stats = dist_state["stats"]
                if verify and not np.array_equal(dist_state["labels"], reference):
                    raise VerificationError(
                        f"distributed labels diverge from ecl_cc_serial on "
                        f"{name!r} at scale {scale!r}"
                    )
                row["dist_ms"] = round(dist_ms, 3)
                row["dist_hosts"] = DIST_GATE_HOSTS
                row["dist_rounds"] = int(dist_stats.rounds)
                row["dist_bytes_on_wire"] = int(dist_stats.bytes_on_wire)
                row["dist_recoveries"] = int(dist_stats.recoveries)
            rows.append(row)
            if service_ops:
                lg = compare_loadgen(
                    graph,
                    num_ops=service_ops,
                    naive_max_ops=naive_max_ops,
                    verify=verify,
                )
                rows[-1].update(
                    {
                        "service_qps": round(lg["service_qps"], 1),
                        "naive_qps": round(lg["naive_qps"], 1),
                        "service_speedup": round(lg["service_speedup"], 2),
                        "service_verified": lg["verified"],
                    }
                )
    demo = None
    if "oocore" in legs:
        from ..generators.random_regular import random_out_degree
        from ..outofcore import oocore_cc

        demo_graph = random_out_degree(
            OOCORE_DEMO_SPEC["num_vertices"],
            OOCORE_DEMO_SPEC["out_degree"],
            seed=OOCORE_DEMO_SPEC["seed"],
            name="oocore-demo",
        )
        demo_csr = (demo_graph.num_vertices + 1 + demo_graph.num_arcs) * 8
        demo_budget = demo_csr // OOCORE_DEMO_DIVISOR
        demo_spill = (
            Path(oocore_spill_dir) / "oocore_demo"
            if oocore_spill_dir is not None
            else None
        )
        with tracer.span(
            "wallclock:oocore-demo",
            category="experiments.wallclock",
            graph=demo_graph.name,
        ):
            t0 = time.perf_counter()
            demo_labels, demo_stats, _ = oocore_cc(
                demo_graph,
                memory_budget=demo_budget,
                spill_dir=demo_spill,
                # With a named spill dir the demo's spill (manifest
                # included) stays on disk as uploadable evidence.
                keep_spill=demo_spill is not None,
            )
            demo_ms = (time.perf_counter() - t0) * 1e3
        if verify and not np.array_equal(
            demo_labels, ecl_cc_serial(demo_graph)[0]
        ):
            raise VerificationError(
                "oocore labels diverge from ecl_cc_serial on the "
                "size-ceiling demo graph"
            )
        demo = {
            "graph": demo_graph.name,
            "num_vertices": int(demo_graph.num_vertices),
            "num_edges": int(demo_graph.num_arcs // 2),
            "oocore_ms": round(demo_ms, 3),
            "oocore_budget_bytes": int(demo_budget),
            "oocore_peak_bytes": int(demo_stats.peak_resident_bytes),
            "oocore_csr_bytes": int(demo_stats.csr_bytes),
            "oocore_ceiling": round(demo_stats.ceiling, 2),
            "oocore_shards": int(demo_stats.num_shards),
            "oocore_merge_passes": int(demo_stats.merge_passes),
            "labels_verified": bool(verify),
        }
    payload = {
        "schema_version": SCHEMA_VERSION,
        "benchmark": "core_wallclock",
        "scale": scale,
        "repeats": repeats,
        "baseline": "pre-frontier ecl_cc_numpy snapshot (legacy_numpy_cc)",
        "frontier_baseline": (
            "pre-contraction frontier snapshot (frozen_frontier_cc)"
        ),
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
    if demo is not None:
        payload["oocore_demo"] = demo
    return payload


def check_gate(
    payload: dict,
    min_speedup: float = 3.0,
    max_regression: float = 0.05,
    min_vertices: int = 100_000,
    max_overhead: float = 0.05,
    overhead_slack_ms: float = 0.3,
    min_service_speedup: float = 10.0,
    min_contract_speedup: float = 2.0,
    min_contract_graphs: int = 2,
    min_sharded_speedup: float = 0.5,
    min_scaling_speedup: float = 1.7,
    min_scaling_graphs: int = 2,
    min_oocore_ceiling: float = 10.0,
) -> list[str]:
    """Apply the acceptance thresholds; returns a list of problems.

    The gate passes (empty list) when every graph's ``speedup`` is at
    least ``1 - max_regression``, at least one high-diameter graph
    with ``num_vertices >= min_vertices`` reaches ``min_speedup``, and
    the zero-fault resilient supervisor adds at most ``max_overhead``
    (relative) on every graph.  ``overhead_slack_ms`` is an absolute
    allowance on top of the relative bound: the smallest suite graphs
    finish in ~2 ms, where a 5% budget is inside timer jitter.

    Rows carrying the schema-v3 serving columns must additionally show
    the :class:`~repro.service.ConnectivityService` sustaining at least
    ``min_service_speedup`` times the naive recompute-per-mutation QPS
    under the 90/10 mixed load; rows without the columns (older
    payloads, or runs with ``service_ops=0``) are exempt.

    Rows carrying the schema-v4 head-to-head columns must keep every
    graph's ``best_speedup`` (frozen frontier over the faster of the
    contraction and frontier backends) at or above the no-regression
    floor — the backend *family* never loses to the pre-contraction
    code — and at least ``min_contract_graphs`` of them must reach
    ``min_contract_speedup``.  Rows without the columns (older
    payloads, or ``--backends`` runs that skipped the contract leg) are
    exempt, as is the count target when no row carries them.

    The schema-v5 sharded thresholds are conditioned on the recorded
    ``environment["cpu_count"]``, because strong scaling is a statement
    about hardware, not code: with at least 2 CPUs every row's
    ``sharded_speedup`` (live frontier over the largest-K sharded time)
    must stay at or above ``min_sharded_speedup`` — the no-regression
    floor; process transport may cost something, but the sharded path
    must never collapse — and with at least 4 CPUs at least
    ``min_scaling_graphs`` rows must reach ``min_scaling_speedup`` in
    ``scaling_speedup`` (K=1 over the largest K, the ≥1.7x strong-
    scaling target).  On smaller machines the columns are still
    recorded — a single-core run of this very gate produces them — but
    the targets are unenforceable there and skipped.

    The schema-v6 out-of-core checks are not hardware-conditioned — a
    memory *budget* is a claim about the code, not the machine: every
    row carrying the oocore columns must show ``oocore_peak_bytes``
    within ``oocore_budget_bytes``, and a payload carrying the
    ``oocore_demo`` section must show the demo's peak under its budget,
    its ``oocore_ceiling`` (CSR footprint over charged peak) at or
    above ``min_oocore_ceiling``, and its labels verified.  Rows and
    payloads without the columns (older schemas, or ``--backends`` runs
    that skipped the oocore leg) are exempt.

    The schema-v7 distributed check: every row carrying the
    ``dist_recoveries`` column must record **zero** recoveries — a
    fault-free gate run that triggered the failure detector means the
    detector fires falsely under benchmark load (timeouts tuned too
    tight for the machine), which would poison every chaos measurement
    built on it.  Rows without the column are exempt.
    """
    problems = []
    floor = 1.0 - max_regression
    hit_target = False
    contract_rows = 0
    hit_contract = 0
    cpu_count = int(payload.get("environment", {}).get("cpu_count", 1))
    sharded_rows = 0
    hit_scaling = 0
    for row in payload["graphs"]:
        if "speedup" in row and row["speedup"] < floor:
            problems.append(
                f"{row['name']}: speedup {row['speedup']:.2f}x is below the "
                f"no-regression floor {floor:.2f}x"
            )
        if "best_speedup" in row:
            contract_rows += 1
            if row["best_speedup"] >= min_contract_speedup:
                hit_contract += 1
            if row["best_speedup"] < floor:
                problems.append(
                    f"{row['name']}: best native backend is "
                    f"{row['best_speedup']:.2f}x the frozen frontier "
                    f"baseline, below the no-regression floor {floor:.2f}x"
                )
        if "resilient_ms" in row:
            budget_ms = row["after_ms"] * (1.0 + max_overhead) + overhead_slack_ms
            if row["resilient_ms"] > budget_ms:
                problems.append(
                    f"{row['name']}: zero-fault resilient run "
                    f"{row['resilient_ms']:.2f} ms exceeds the supervisor "
                    f"overhead budget {budget_ms:.2f} ms "
                    f"(after {row['after_ms']:.2f} ms + {max_overhead:.0%} "
                    f"+ {overhead_slack_ms:.2f} ms slack)"
                )
        if "sharded_speedup" in row:
            sharded_rows += 1
            if row.get("scaling_speedup", 0.0) >= min_scaling_speedup:
                hit_scaling += 1
            if cpu_count >= 2 and row["sharded_speedup"] < min_sharded_speedup:
                problems.append(
                    f"{row['name']}: sharded backend at K="
                    f"{row['sharded_workers'][-1]} is "
                    f"{row['sharded_speedup']:.2f}x the live frontier "
                    f"backend, below the {min_sharded_speedup:.2f}x sharded "
                    f"no-regression floor (cpu_count={cpu_count})"
                )
        if (
            "oocore_peak_bytes" in row
            and row["oocore_peak_bytes"] > row["oocore_budget_bytes"]
        ):
            problems.append(
                f"{row['name']}: out-of-core peak resident "
                f"{row['oocore_peak_bytes']} B exceeds the memory budget "
                f"{row['oocore_budget_bytes']} B"
            )
        if "dist_recoveries" in row and row["dist_recoveries"] != 0:
            problems.append(
                f"{row['name']}: distributed leg needed "
                f"{row['dist_recoveries']} recovery action(s) in a "
                f"fault-free run; the failure detector is firing falsely "
                f"under benchmark load"
            )
        if "service_speedup" in row and row["service_speedup"] < min_service_speedup:
            problems.append(
                f"{row['name']}: service speedup {row['service_speedup']:.1f}x "
                f"over the naive recompute baseline is below the "
                f"{min_service_speedup:.0f}x serving target"
            )
        if (
            row["high_diameter"]
            and row["num_vertices"] >= min_vertices
            and row.get("speedup", 0.0) >= min_speedup
        ):
            hit_target = True
    if not hit_target and any("speedup" in r for r in payload["graphs"]):
        problems.append(
            f"no high-diameter graph with >= {min_vertices} vertices reached "
            f"the {min_speedup:.1f}x speedup target"
        )
    if contract_rows and hit_contract < min_contract_graphs:
        problems.append(
            f"only {hit_contract} graph(s) reached the "
            f"{min_contract_speedup:.1f}x best-vs-frozen-frontier target "
            f"(need {min_contract_graphs})"
        )
    if sharded_rows and cpu_count >= 4 and hit_scaling < min_scaling_graphs:
        problems.append(
            f"only {hit_scaling} graph(s) reached the "
            f"{min_scaling_speedup:.1f}x sharded strong-scaling target "
            f"(K=1 over largest K; need {min_scaling_graphs} with "
            f"cpu_count={cpu_count})"
        )
    demo = payload.get("oocore_demo")
    if demo is not None:
        if demo["oocore_peak_bytes"] > demo["oocore_budget_bytes"]:
            problems.append(
                f"oocore demo: peak resident {demo['oocore_peak_bytes']} B "
                f"exceeds the memory budget {demo['oocore_budget_bytes']} B"
            )
        if demo["oocore_ceiling"] < min_oocore_ceiling:
            problems.append(
                f"oocore demo: size ceiling {demo['oocore_ceiling']:.1f}x "
                f"(CSR bytes over charged peak) is below the "
                f"{min_oocore_ceiling:.0f}x out-of-core target"
            )
        if not demo.get("labels_verified"):
            problems.append(
                "oocore demo: labels were not verified against the serial "
                "oracle; the run is not gate evidence"
            )
    return problems


def write_gate_json(payload: dict, path: str | Path) -> Path:
    """Write the gate payload as pretty-printed JSON; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path
