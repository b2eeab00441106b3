"""The traced run: per-layer metrics from ``repro.observe`` spans.

The same interleaved phases as the untraced run execute under one
``repro.observe.Tracer``; every call the benchmark makes into a layer is
wrapped in a ``bench:*`` span carrying an op id.  Self times come from
the spans: a span's duration minus the part of it its children cover.
The service's flusher thread shares the tracer's span stack with the
client thread, so parent links of service spans are not trusted; they
are attributed by name and by time instead.  After the phases, direct
backend calls, the resilient supervisor, the structural certifier and
the tracer itself are measured against the public entry point.  The
spans are written out as a Chrome trace when the run ends.

Per-graph metrics name graphs by slot, ``g1`` .. ``g4``, in the order of
``inputs.FAMILIES[workload]``, so both workloads print the same names.
Times that summarise several graphs are means of per-graph medians, so
that parts add up.
"""

from __future__ import annotations

import json
import time

import numpy as np

from repro import connected_components, resilient_components
from repro.core.contract import contract_cc
from repro.core.ecl_cc_numpy import ecl_cc_numpy
from repro.observe import Tracer, to_chrome_trace, use_tracer
from repro.verify import verify_labels_structural

from perfbench.measure import (
    children_index,
    covered_ms,
    freeze_heap,
    geomean,
    median,
    metric,
    percentile,
    within,
)
from perfbench.workloads import (
    Tally,
    build_graphs,
    build_service,
    check_labels,
    release_setup_inputs,
    run_phases,
)

#: Interleaved rounds of the direct-call, resilience and trace-overhead
#: comparisons (each round calls every graph once per variant).
COMPARE_ROUNDS = 5

#: ``service.auto_winner`` is the cached winner's index here (``-1``: none).
AUTO_CONTENDERS = ("numpy", "contract", "sharded")

TRACE_DIR = ".perfbench_traces"


def _named(spans, name):
    return [s for s in spans if s.name == name]


def _mean_of_medians(per_graph):
    return float(np.mean([median(v) for v in per_graph]))


def _self_ms(span, kids):
    return span.duration_ms - covered_ms(span, kids.get(span.index, []))


def _graph_layer(inputs, repeats, tracer, m):
    """graph.build_ms / graph.derive_ms: per set-up, summed over the
    graphs; median over the set-ups."""
    mark = len(tracer.spans)
    with use_tracer(tracer):
        for rep in range(repeats):
            graphs = build_graphs(inputs, tracer, rep)
    for what in ("build", "derive"):
        per_rep = [0.0] * repeats
        for s in _named(tracer.spans[mark:], f"bench:graph.{what}"):
            per_rep[s.attrs["op"]] += s.duration_ms
        m[f"graph.{what}_ms"] = metric(median(per_rep), "ms")
    return graphs


def _service_metrics(spans, service, m, detail):
    batches = _named(spans, "service:batch")
    recomputes = _named(spans, "service:recompute")
    runs = _named(spans, "resilience:run")
    incremental = [b.duration_ms for b in batches if b.attrs.get("mode") == "incremental"]
    static = [b.duration_ms for b in batches if str(b.attrs.get("mode", "")).startswith("static")]
    # Queue wait of a waited write: submit to the start of the first
    # batch that starts after it, the batch that drains it.
    starts = np.array(sorted(b.start_ms for b in batches))
    waits = []
    for w in _named(spans, "bench:write"):
        if w.attrs.get("wait"):
            k = int(np.searchsorted(starts, w.start_ms))
            if k < starts.size:
                waits.append(starts[k] - w.start_ms)
    in_resilience = sum(covered_ms(r, within(r, runs)) for r in recomputes)
    stats = service.stats
    lookups = stats["cache_hits"] + stats["cache_misses"]
    winner = service.auto_policy.get("winner")
    m.update({
        "service.queue_wait_ms_p50": metric(median(waits), "ms"),
        "service.apply_ms_incremental_p50": metric(median(incremental), "ms"),
        "service.apply_ms_static_p50": metric(median(static), "ms"),
        "service.apply_ms_static_p99": metric(percentile(static, 99), "ms"),
        "service.recompute_ms_p50": metric(median([r.duration_ms for r in recomputes]), "ms"),
        "service.recompute_resilience_frac": metric(
            in_resilience / sum(r.duration_ms for r in recomputes), "ratio"),
        "service.batches": metric(stats["batches"], "count"),
        "service.incremental_batches": metric(stats["incremental_batches"], "count"),
        "service.static_recomputes": metric(stats["static_recomputes"], "count"),
        "service.static_fallbacks": metric(stats["static_fallbacks"], "count"),
        "service.compactions": metric(stats["compactions"], "count"),
        "service.cache_hit_rate": metric(stats["cache_hits"] / max(1, lookups), "ratio"),
        "service.auto_winner": metric(
            AUTO_CONTENDERS.index(winner) if winner in AUTO_CONTENDERS else -1, "index"),
        "service.auto_races": metric(service.auto_policy.get("races", 0), "count"),
        # Read latency split by root-cache outcome: no lookup missed, or
        # at least one did.
        "service.query_us_hit_p50": metric(
            median([us for us, k in zip(service.query_us, service.query_missed) if k == 0]), "us"),
        "service.query_us_miss_p50": metric(
            median([us for us, k in zip(service.query_us, service.query_missed) if k > 0]), "us"),
        # Tails whose run-to-run spread is too wide to gate on.
        "service.query_us_p99": metric(percentile(service.query_us, 99), "us"),
        "service.visible_ms_p90": metric(percentile(service.visible_ms, 90), "ms"),
        "service.visible_ms_p99": metric(percentile(service.visible_ms, 99), "ms"),
    })
    detail["auto_policy"] = service.auto_policy
    detail["service_stats"] = stats


def _static_metrics(spans, kids, graphs, m):
    init, hook, rest = ({g.name: [] for g in graphs} for _ in range(3))
    for bench in _named(spans, "bench:static"):
        name = bench.attrs["graph"]
        for cc in kids.get(bench.index, []):
            parts = kids.get(cc.index, [])
            for p in parts:
                if p.name == "numpy:init":
                    init[name].append(_self_ms(p, kids))
                elif p.name == "numpy:hook-rounds":
                    hook[name].append(_self_ms(p, kids))
            rest[name].append(cc.duration_ms - covered_ms(cc, parts))
    m["core.numpy_init_self_ms"] = metric(_mean_of_medians(init.values()), "ms")
    m["core.numpy_hook_self_ms"] = metric(_mean_of_medians(hook.values()), "ms")
    m["core.unspanned_ms"] = metric(_mean_of_medians(rest.values()), "ms")


def _scaleout_metrics(spans, kids, scaleout, m, detail):
    parts = {k: [] for k in ("partition", "worker", "merge", "pool", "spill", "shard", "oomerge")}
    for bench in _named(spans, "bench:scaleout"):
        for cc in kids.get(bench.index, []):
            inner = kids.get(cc.index, [])

            def total(name):
                return sum(p.duration_ms for p in inner if p.name == name)

            if cc.name == "cc:sharded":
                # Workers run side by side: the slowest one is on the path.
                work = max((p.duration_ms for p in inner if p.name == "shard:worker"), default=0.0)
                part, merge = total("shard:partition"), total("shard:merge")
                parts["partition"].append(part)
                parts["worker"].append(work)
                parts["merge"].append(merge)
                parts["pool"].append(cc.duration_ms - part - work - merge)
            elif cc.name == "cc:oocore":
                parts["spill"].append(total("oocore:spill"))
                parts["shard"].append(total("oocore:shard"))
                parts["oomerge"].append(total("oocore:merge-pass"))
    for key, name in (("partition", "shard.partition_ms"), ("worker", "shard.worker_ms"),
                      ("merge", "shard.merge_ms"), ("pool", "shard.pool_ms"),
                      ("spill", "oocore.spill_ms"), ("shard", "oocore.shard_ms"),
                      ("oomerge", "oocore.merge_ms")):
        m[name] = metric(median(parts[key]), "ms")

    oo = [r for r in scaleout.runs if r["backend"] == "oocore"]
    dist = [r for r in scaleout.runs if r["backend"] == "distributed"]
    for key in ("spilled_bytes", "peak_resident_bytes", "merge_passes", "merge_hooks"):
        m[f"oocore.{key}"] = metric(median([r[key] for r in oo]), "bytes" if "bytes" in key else "count")
    m["dist_ms"] = metric(median(scaleout.times["distributed"]), "ms")
    m["dist.round_ms_p50"] = metric(median([s.duration_ms for s in _named(spans, "dist:round")]), "ms")
    m["dist.rounds"] = metric(median([r["rounds"] for r in dist]), "count")
    m["dist.bytes_on_wire"] = metric(median([r["bytes_on_wire"] for r in dist]), "bytes")
    m["dist.updates_applied_frac"] = metric(
        sum(r["updates_applied"] for r in dist) / max(1, sum(r["updates_sent"] for r in dist)), "ratio")
    m["dist.retransmits"] = metric(sum(r["retransmits"] for r in dist), "count")
    m["dist.recoveries"] = metric(sum(r["recoveries"] for r in dist), "count")
    detail["dist"] = [{k: r[k] for k in ("graph", "rounds", "retransmits", "recoveries")} for r in dist]


def _core_layer(graphs, references, tracer, m, tally):
    """Direct backend calls interleaved with the public entry point and
    the resilient supervisor, then one structural certification per graph."""
    mark = len(tracer.spans)
    calls = {
        "numpy": ecl_cc_numpy,
        "contract": contract_cc,
        "api": connected_components,
        "resilient": lambda g: resilient_components(g, backends=("numpy", "serial")),
    }
    times = {what: [[] for _ in graphs] for what in calls}
    stats = {}
    with use_tracer(tracer):
        for rnd in range(COMPARE_ROUNDS):
            for i, g in enumerate(graphs):
                for what, call in calls.items():
                    tally.attempted += 1
                    try:
                        with tracer.span(f"bench:core.{what}", category="bench", op=rnd, graph=g.name) as sp:
                            out = call(g)
                    except Exception as exc:  # counted, and the run goes on
                        tally.fail(f"core {what} {g.name}: {type(exc).__name__}: {exc}")
                        continue
                    labels, stats[what, i] = out if isinstance(out, tuple) else (out.labels, None)
                    if check_labels(tally, f"core {what} {g.name}", labels, references[i]):
                        times[what][i].append(sp.duration_ms)
    if tally.failed:
        return
    k = range(len(graphs))
    for i in k:
        s = stats["numpy", i]
        m[f"core.numpy_ms.g{i + 1}"] = metric(median(times["numpy"][i]), "ms")
        m[f"core.contract_ms.g{i + 1}"] = metric(median(times["contract"][i]), "ms")
        m[f"core.hook_rounds.g{i + 1}"] = metric(s.hook_rounds, "count")
        m[f"core.edges_scanned.g{i + 1}"] = metric(s.edges_scanned, "count")
    m["core.doubling_passes"] = metric(sum(stats["numpy", i].doubling_passes for i in k), "count")
    m["core.contract_levels"] = metric(sum(stats["contract", i].levels for i in k), "count")
    api = [median(v) for v in times["api"]]
    m["api.overhead_ms"] = metric(float(np.mean([api[i] - median(times["numpy"][i]) for i in k])), "ms")
    m["resilience.overhead_ms"] = metric(
        float(np.mean([median(times["resilient"][i]) - api[i] for i in k])), "ms")

    spans = tracer.spans[mark:]
    kids = children_index(spans)
    levels = {g.name: [] for g in graphs}
    for bench in _named(spans, "bench:core.contract"):
        for p in kids.get(bench.index, []):
            if p.name == "contract:levels":
                levels[bench.attrs["graph"]].append(_self_ms(p, kids))
    m["core.contract_levels_self_ms"] = metric(_mean_of_medians(levels.values()), "ms")

    certify = []
    with use_tracer(tracer):
        for i, g in enumerate(graphs):
            tally.attempted += 1
            with tracer.span("bench:verify.certify", category="bench", op=i, graph=g.name) as sp:
                ok = verify_labels_structural(g, references[i])
            if not ok:
                tally.fail(f"verify {g.name}: certifier rejected the reference labels")
            certify.append(sp.duration_ms)
            m[f"verify.certify_ms.g{i + 1}"] = metric(sp.duration_ms, "ms")
    m["verify.certify_ratio"] = metric(sum(certify) / sum(api), "ratio")


def _observe_layer(graphs, tracer, m):
    """Trace overhead (traced vs untraced solves, interleaved) and the
    share of every ``cc:*`` span that child spans cover."""
    plain, traced = [[] for _ in graphs], [[] for _ in graphs]
    for _ in range(COMPARE_ROUNDS):
        for i, g in enumerate(graphs):
            t0 = time.perf_counter()
            connected_components(g)
            plain[i].append(time.perf_counter() - t0)
            with Tracer():
                t0 = time.perf_counter()
                connected_components(g)
                traced[i].append(time.perf_counter() - t0)
    m["observe.trace_overhead_frac"] = metric(
        geomean([median(v) for v in traced]) / geomean([median(v) for v in plain]) - 1.0, "ratio")
    kids = children_index(tracer.spans)
    total = covered = 0.0
    for s in tracer.spans:
        if s.name.startswith("cc:"):
            total += s.duration_ms
            covered += covered_ms(s, kids.get(s.index, []))
    m["observe.span_coverage"] = metric(covered / total, "ratio")


def run_traced(inputs, counts, workdir):
    tally = Tally()
    m: dict = {}
    detail: dict = {}
    tracer = Tracer(meta={"benchmark": "perfbench", "workload": inputs.workload, "seed": inputs.seed})
    graphs = _graph_layer(inputs, counts["setup_repeats"], tracer, m)
    with tracer.span("bench:service.build", category="bench", op=0):
        svc = build_service(inputs, tracer)
    release_setup_inputs(inputs)
    freeze_heap()
    static, service, scaleout = run_phases(inputs, graphs, svc, counts, workdir, tracer)
    for phase in (service, static, scaleout):
        tally.merge(phase.tally)
    if tally.failed == 0:
        kids = children_index(tracer.spans)
        _service_metrics(tracer.spans, service, m, detail)
        _static_metrics(tracer.spans, kids, graphs, m)
        _scaleout_metrics(tracer.spans, kids, scaleout, m, detail)
        _core_layer(graphs, inputs.references, tracer, m, tally)
    if tally.failed == 0:
        _observe_layer(graphs, tracer, m)
        attempts = len(_named(tracer.spans, "resilience:attempt"))
        m["resilience.attempts"] = metric(
            attempts / max(1, len(_named(tracer.spans, "resilience:run"))), "attempts/run")

    trace_dir = workdir.parent / TRACE_DIR
    trace_dir.mkdir(exist_ok=True)
    path = trace_dir / f"{inputs.workload}-seed{inputs.seed}.json"
    with open(path, "w") as fh:
        json.dump(to_chrome_trace(tracer), fh, separators=(",", ":"))
    detail.update(
        graphs=[{"slot": f"g{i + 1}", "name": g.name, "vertices": g.num_vertices,
                 "edges": g.num_edges} for i, g in enumerate(graphs)],
        trace_file=str(path.relative_to(workdir.parent)),
        spans=len(tracer.spans),
        failures=tally.reasons,
    )
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": m if tally.failed == 0 else {},
    }
    return result, detail
