"""Tests for the repro.observe tracing/metrics subsystem."""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro import connected_components
from repro.observe import (
    DISABLED,
    DisabledTracer,
    Tracer,
    counters_to_csv,
    current_tracer,
    render_tree,
    to_chrome_trace,
    to_csv,
    use_tracer,
)


class TestSpanNesting:
    def test_parent_depth_and_order(self):
        t = Tracer()
        with t.span("outer"):
            with t.span("inner-a"):
                pass
            with t.span("inner-b"):
                with t.span("leaf"):
                    pass
        names = [s.name for s in t.spans]
        assert names == ["outer", "inner-a", "inner-b", "leaf"]
        outer, a, b, leaf = t.spans
        assert outer.parent == -1 and outer.depth == 0
        assert a.parent == outer.index and a.depth == 1
        assert b.parent == outer.index and b.depth == 1
        assert leaf.parent == b.index and leaf.depth == 2
        assert t.children(outer) == [a, b]
        assert t.roots() == [outer]

    def test_durations_nest(self):
        t = Tracer()
        with t.span("outer"):
            with t.span("inner"):
                time.sleep(0.002)
        outer, inner = t.spans
        assert inner.duration_ms >= 2.0
        assert outer.duration_ms >= inner.duration_ms

    def test_attrs_and_modeled(self):
        t = Tracer()
        with t.span("k", category="gpusim.kernel", threads=32) as sp:
            sp.set("modeled_ms", 1.25)
            sp.update(cycles=100)
        (sp,) = t.spans
        assert sp.attrs["threads"] == 32
        assert sp.modeled_ms == 1.25
        assert sp.effective_ms == 1.25  # modeled preferred over wall
        assert sp.category == "gpusim.kernel"

    def test_counters_and_gauges(self):
        t = Tracer()
        t.count("x")
        t.count("x", 2)
        t.gauge("occ", 0.5)
        assert t.counters["x"] == 3
        assert t.gauges[0][1:] == ("occ", 0.5)

    def test_exception_still_closes_span(self):
        t = Tracer()
        with pytest.raises(RuntimeError):
            with t.span("boom"):
                raise RuntimeError
        assert t.spans[0].duration_ms >= 0.0
        assert not t._stack


class TestDisabledTracer:
    def test_ambient_default_is_disabled(self):
        assert current_tracer() is DISABLED
        assert isinstance(current_tracer(), DisabledTracer)
        assert not current_tracer().enabled

    def test_disabled_records_nothing(self, triangle_plus_edge):
        before = len(DISABLED.spans)
        connected_components(triangle_plus_edge, backend="numpy")
        connected_components(triangle_plus_edge, backend="gpu")
        assert len(DISABLED.spans) == before == 0
        assert DISABLED.counters == {}
        assert DISABLED.gauges == []

    def test_disabled_span_is_shared_noop(self):
        s1 = DISABLED.span("a", category="x", foo=1)
        s2 = DISABLED.span("b")
        assert s1 is s2  # one shared null span, no allocation per call
        with s1 as sp:
            sp.set("k", "v")
            sp.update(x=1)

    def test_activation_scoping(self):
        t = Tracer()
        with t:
            assert current_tracer() is t
            with use_tracer(Tracer()) as inner:
                assert current_tracer() is inner
            assert current_tracer() is t
        assert current_tracer() is DISABLED

    def test_full_result_trace_none_when_disabled(self, triangle_plus_edge):
        res = connected_components(
            triangle_plus_edge, backend="numpy", full_result=True
        )
        assert res.trace is None


class TestBackendInstrumentation:
    def test_gpu_kernel_spans_match_launch_stats(self, two_cliques):
        with Tracer() as t:
            res = connected_components(two_cliques, backend="gpu", full_result=True)
        kernel_spans = t.find_spans(category="gpusim.kernel")
        assert len(kernel_spans) == len(res.stats.kernels)
        for sp, launch in zip(kernel_spans, res.stats.kernels):
            assert sp.name == f"kernel:{launch.name}"
            assert sp.attrs["modeled_ms"] == launch.time_ms
            assert sp.attrs["atomics"] == launch.cache.atomics
        modeled = sum(sp.attrs["modeled_ms"] for sp in kernel_spans)
        assert modeled == pytest.approx(res.stats.total_time_ms, rel=0.01)
        assert t.counters["gpusim.launches"] == len(res.stats.kernels)

    def test_gpu_worklist_gauges(self):
        from repro.generators import load

        g = load("coPapersDBLP", "tiny")  # has medium/high-degree vertices
        with Tracer() as t:
            res = connected_components(g, backend="gpu", full_result=True)
        gauge_names = {name for _t, name, _v in t.gauges}
        assert {"worklist.front", "worklist.back", "worklist.occupancy"} <= gauge_names
        front = next(v for _t, n, v in t.gauges if n == "worklist.front")
        assert front == res.stats.worklist_front

    def test_omp_region_spans(self, two_cliques):
        with Tracer() as t:
            res = connected_components(two_cliques, backend="omp", full_result=True)
        regions = t.find_spans(category="cpusim.region")
        assert [s.name for s in regions] == [
            "region:init", "region:compute", "region:finalize",
        ]
        assert len(regions) == len(res.stats.regions)
        for sp, reg in zip(regions, res.stats.regions):
            assert sp.attrs["modeled_ms"] == pytest.approx(reg.modeled_s * 1e3)
            assert sp.attrs["chunks"] == reg.num_chunks
            assert sp.attrs["imbalance"] >= 1.0 or reg.work_s == 0

    def test_serial_phase_spans(self, path_graph):
        with Tracer() as t:
            connected_components(path_graph, backend="serial")
        names = [s.name for s in t.find_spans(category="core.serial")]
        assert names == ["serial:init", "serial:compute", "serial:finalize"]

    def test_numpy_round_attrs(self, path_graph):
        with Tracer() as t:
            res = connected_components(path_graph, backend="numpy", full_result=True)
        (hook_span,) = t.find_spans(name="numpy:hook-rounds")
        assert hook_span.attrs["hook_rounds"] == res.stats.hook_rounds
        assert hook_span.attrs["doubling_passes"] == res.stats.doubling_passes

    def test_afforest_giant_span(self):
        from repro.generators import load

        g = load("rmat16.sym", "tiny")
        with Tracer() as t:
            res = connected_components(g, backend="afforest", full_result=True)
        (sp,) = t.find_spans(name="afforest:sample-giant")
        assert sp.attrs["giant_label"] == res.stats.giant_label
        assert sp.attrs["skipped_vertices"] == res.stats.skipped_vertices

    def test_api_span_wraps_backend(self, triangle_plus_edge):
        with Tracer() as t:
            res = connected_components(
                triangle_plus_edge, backend="numpy", full_result=True
            )
        root = t.roots()[0]
        assert root.name == "cc:numpy"
        assert root.attrs["num_vertices"] == triangle_plus_edge.num_vertices
        assert res.trace == t.spans  # whole run captured on the result

    def test_experiment_spans(self):
        from repro.experiments.registry import run_experiment

        with Tracer() as t:
            run_experiment("table2", scale="tiny", names=["rmat16.sym"])
        assert t.find_spans(name="experiment:table2")


class TestExporters:
    def _traced(self, graph):
        t = Tracer(meta={"purpose": "test"})
        with t:
            connected_components(graph, backend="gpu")
        t.count("hand.counter", 7)
        return t

    def test_chrome_trace_round_trip(self, two_cliques):
        t = self._traced(two_cliques)
        doc = json.loads(json.dumps(to_chrome_trace(t)))
        span_events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        counter_events = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert len(span_events) == len(t.spans)
        assert len(counter_events) == len(t.gauges)
        by_name = {e["name"]: e for e in span_events}
        for sp in t.spans:
            ev = by_name[sp.name]
            assert ev["ts"] == pytest.approx(sp.start_ms * 1e3, abs=0.01)
            assert ev["dur"] == pytest.approx(sp.effective_ms * 1e3, abs=0.01)
            assert ev["args"]["wall_ms"] == pytest.approx(sp.duration_ms, abs=1e-4)
        assert doc["metadata"]["counters"]["hand.counter"] == 7
        assert doc["metadata"]["purpose"] == "test"

    def test_csv_shape(self, two_cliques):
        t = self._traced(two_cliques)
        lines = to_csv(t).splitlines()
        assert len(lines) == len(t.spans) + 1
        header = lines[0].split(",")
        assert header[:5] == ["index", "parent", "depth", "category", "name"]
        counters = counters_to_csv(t).splitlines()
        assert counters[0] == "name,value"
        assert any("hand.counter" in line for line in counters)

    def test_tree_rendering(self, two_cliques):
        t = self._traced(two_cliques)
        text = render_tree(t)
        assert "cc:gpu" in text
        assert "kernel:init" in text
        assert "modeled" in text
        assert "counters:" in text

    def test_numpy_scalars_json_safe(self):
        t = Tracer()
        with t.span("s", value=np.int64(3), arr=(np.float64(1.5), 2)):
            pass
        doc = json.dumps(to_chrome_trace(t))  # must not raise
        args = json.loads(doc)["traceEvents"][0]["args"]
        assert args["value"] == 3
        assert args["arr"] == [1.5, 2]


class TestCLI:
    def test_selftest(self, capsys):
        from repro.observe.__main__ import main

        assert main(["--selftest"]) == 0
        assert "selftest: ok" in capsys.readouterr().out

    def test_json_emission_matches_gpu_total(self, tmp_path, capsys):
        from repro.observe.__main__ import main

        out = tmp_path / "trace.json"
        assert main([
            "--backend", "gpu", "--graph", "rmat", "--scale", "tiny",
            "--format", "json", "-o", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        kernels = [
            e for e in doc["traceEvents"] if e.get("cat") == "gpusim.kernel"
        ]
        assert kernels, "expected one span per kernel launch"
        from repro.core.ecl_cc_gpu import ecl_cc_gpu
        from repro.generators import load

        res = ecl_cc_gpu(load("rmat16.sym", "tiny"))
        assert len(kernels) == len(res.kernels)
        modeled = sum(e["args"]["modeled_ms"] for e in kernels)
        assert modeled == pytest.approx(res.total_time_ms, rel=0.01)

    def test_graph_resolution(self):
        from repro.observe.__main__ import resolve_graph

        assert resolve_graph("rmat") == "rmat16.sym"
        assert resolve_graph("europe_osm") == "europe_osm"
        assert resolve_graph("skitter") == "as-skitter"  # substring
        with pytest.raises(SystemExit):
            resolve_graph("no-such-graph")

    def test_tree_format_stdout(self, capsys):
        from repro.observe.__main__ import main

        assert main([
            "--backend", "numpy", "--graph", "internet", "--format", "tree",
        ]) == 0
        out = capsys.readouterr().out
        assert "cc:numpy" in out
