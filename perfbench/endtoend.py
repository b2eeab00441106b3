"""The untraced run: end-to-end metrics a library user would see."""

from __future__ import annotations

import gc
import time

from perfbench.measure import (
    PeakLog,
    freeze_heap,
    geomean,
    median,
    metric,
    peak_rss_mb,
    percentile,
    reset_peak_rss,
    vm_hwm_kb,
)
from perfbench.workloads import (
    Tally,
    build_graphs,
    build_service,
    release_setup_inputs,
    run_phases,
)

#: Scale-out backends with an end-to-end metric.  The distributed
#: backend's call time spread by more than its bound between runs with
#: two host threads on the machine's two CPUs, so it is the per-layer
#: ``dist_ms`` of the traced run; its samples here are in the detail record.
SCALEOUT_METRICS = {"oocore": "oocore_ms", "sharded": "sharded_ms"}


def run_setup(inputs, repeats: int):
    """Program set-up, repeated; returns ``(median_s, graphs, service)``
    with the graphs and service of the last repetition."""
    times = []
    graphs = svc = None
    for _ in range(repeats):
        if svc is not None:
            svc.close()
        graphs = svc = None  # one set resident at a time
        gc.collect()
        t0 = time.perf_counter()
        graphs = build_graphs(inputs)
        svc = build_service(inputs)
        times.append(time.perf_counter() - t0)
    return median(times), graphs, svc


def run_untraced(inputs, counts, workdir):
    reset_peak_rss()
    peaks = PeakLog()
    t0 = time.perf_counter()
    setup_s, graphs, svc = run_setup(inputs, counts["setup_repeats"])
    phase_s = {"setup": time.perf_counter() - t0}
    peaks.note("setup")
    release_setup_inputs(inputs)
    freeze_heap()
    t0 = time.perf_counter()
    static, service, scaleout = run_phases(inputs, graphs, svc, counts, workdir, peaks=peaks)
    phase_s["measured"] = time.perf_counter() - t0
    rss = peak_rss_mb()
    self_mb = vm_hwm_kb() / 1024.0
    memory = {"peak_phase": peaks.phase, "self_hwm_mb": self_mb, "children_mb": rss - self_mb}

    tally = Tally()
    for phase in (service, static, scaleout):
        tally.merge(phase.tally)
    metrics = {}
    if tally.failed == 0:
        per_graph_ms = [median(ts) for ts in static.times]
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(rss, "MB"),
            "solve_ms": metric(geomean(per_graph_ms), "ms"),
            "solve_meps": metric(sum(g.num_edges for g in graphs) / sum(per_graph_ms) / 1e3, "Medges/s"),
            "ops_per_s": metric(median(service.ops_per_s), "ops/s"),
            "query_us_p50": metric(percentile(service.query_us, 50), "us"),
            "visible_ms_p50": metric(percentile(service.visible_ms, 50), "ms"),
        }
        for backend, name in SCALEOUT_METRICS.items():
            metrics[name] = metric(median(scaleout.times[backend]), "ms")

    detail = {
        "graphs": [
            {"name": g.name, "vertices": g.num_vertices, "edges": g.num_edges,
             "solve_ms_median": median(ts) if ts else None}
            for g, ts in zip(graphs, static.times)
        ],
        "samples": {
            "static_per_graph": [len(ts) for ts in static.times],
            "queries": len(service.query_us),
            "queries_checked": service.reads_checked,
            "waited_writes": len(service.visible_ms),
            "scaleout_per_backend": {b: len(ts) for b, ts in scaleout.times.items()},
        },
        "scaleout_ms": scaleout.times,
        "reads_by_misses": _reads_by_misses(service),
        "auto_policy": service.auto_policy,
        "service_stats": service.stats,
        "dist": _dist_summary(scaleout.runs),
        "phase_s": phase_s,
        "memory": memory,
        "failures": tally.reasons,
    }
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return result, detail


def _dist_summary(runs):
    """The rounds, retransmits and recoveries of every distributed call."""
    dist = [r for r in runs if r["backend"] == "distributed"]
    return {k: [r[k] for r in dist] for k in ("rounds", "retransmits", "recoveries")}


def _reads_by_misses(service):
    """Read count and median latency per number of root-cache misses."""
    by: dict = {}
    for us, missed in zip(service.query_us, service.query_missed):
        by.setdefault(missed, []).append(us)
    return {k: {"reads": len(v), "us_p50": median(v)} for k, v in sorted(by.items())}
