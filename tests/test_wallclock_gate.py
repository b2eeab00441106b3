"""Tests for the wall-clock benchmark gate and its observability hooks."""

import json

import numpy as np
import pytest

from repro.core import kernels
from repro.core.ecl_cc_numpy import ecl_cc_numpy
from repro.core.ecl_cc_serial import ecl_cc_serial
from repro.errors import VerificationError
from repro.experiments import wallclock
from repro.experiments.wallclock import (
    check_gate,
    frozen_frontier_cc,
    legacy_numpy_cc,
    run_wallclock_gate,
    summarize,
    write_gate_json,
)
from repro.generators import load
from repro.observe import Tracer, use_tracer
from repro.observe.export import to_chrome_trace

GATE_NAMES = ["2d-2e20.sym", "rmat16.sym"]


class TestLegacySnapshot:
    def test_matches_serial(self):
        for name in GATE_NAMES:
            g = load(name, "tiny")
            expected, _ = ecl_cc_serial(g)
            assert np.array_equal(legacy_numpy_cc(g), expected)

    def test_empty_graph(self):
        from repro.graph.build import empty_graph

        assert legacy_numpy_cc(empty_graph(0)).size == 0
        assert legacy_numpy_cc(empty_graph(4)).tolist() == [0, 1, 2, 3]


class TestFrozenFrontierSnapshot:
    def test_matches_serial(self):
        for name in GATE_NAMES + ["USA-road-d.NY", "internet"]:
            g = load(name, "tiny")
            expected, _ = ecl_cc_serial(g)
            assert np.array_equal(frozen_frontier_cc(g), expected)

    def test_empty_graph(self):
        from repro.graph.build import empty_graph

        assert frozen_frontier_cc(empty_graph(0)).size == 0
        assert frozen_frontier_cc(empty_graph(4)).tolist() == [0, 1, 2, 3]

    def test_random_graphs(self):
        from repro.graph.build import from_edges

        rng = np.random.default_rng(2)
        for _ in range(5):
            n = int(rng.integers(2, 300))
            edges = rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2))
            g = from_edges(edges, num_vertices=n)
            expected, _ = ecl_cc_serial(g)
            assert np.array_equal(frozen_frontier_cc(g), expected)


#: Columns schema v8 dropped: perfbench measures them now, or they only
#: fed a removed leg.
REMOVED_COLUMNS = (
    "hook_rounds", "doubling_passes", "frontier_sizes", "dense_ms",
    "fastsv_ms", "oocore_ms", "oocore_csr_bytes", "oocore_ceiling",
    "oocore_shards", "oocore_merge_passes", "dist_ms", "dist_hosts",
    "dist_rounds", "dist_bytes_on_wire",
)


def _columns(*legs):
    cols = list(wallclock.BASE_COLUMNS)
    for leg in legs:
        cols += wallclock.LEGS[leg].columns
    return cols


class TestGateRun:
    @pytest.fixture(scope="class")
    def gate(self):
        # Record every label verification the legs make.
        verified = []
        real = wallclock.GraphRun.verify

        def recording(run, backend, labels):
            verified.append((run.name, backend))
            real(run, backend, labels)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(wallclock.GraphRun, "verify", recording)
            payload = run_wallclock_gate(scale="tiny", names=GATE_NAMES, repeats=1)
        return payload, verified

    @pytest.fixture(scope="class")
    def payload(self, gate):
        return gate[0]

    def test_schema(self, payload):
        assert payload["schema_version"] == wallclock.SCHEMA_VERSION == 8
        assert payload["scale"] == "tiny"
        assert {
            "python", "numpy", "numba", "machine", "system",
            "cpu_count", "cpus_available", "sharded_workers",
        } <= set(payload["environment"])
        assert payload["environment"]["cpu_count"] >= 1
        assert payload["environment"]["sharded_workers"] == [1, 2, 4]
        assert [r["name"] for r in payload["graphs"]] == GATE_NAMES
        for row in payload["graphs"]:
            # Exactly the base columns plus every leg's, in table order.
            assert list(row) == _columns(*wallclock.LEGS)
            assert not set(REMOVED_COLUMNS) & set(row)
            assert row["labels_verified"]
            assert row["before_ms"] > 0 and row["after_ms"] > 0
            assert row["speedup"] > 0
            assert row["resilient_ms"] > 0
            # The ratio is recorded from the rounded fields, so it is
            # exactly reconstructible from the row itself.
            assert row["supervisor_overhead"] == pytest.approx(
                row["resilient_ms"] / row["after_ms"] - 1.0, abs=1e-4
            )
            assert row["frozen_frontier_ms"] > 0
            assert row["contract_ms"] > 0
            assert row["best_backend"] in ("contract", "numpy")
            assert row["best_ms"] == min(row["contract_ms"], row["after_ms"])
            assert row["best_speedup"] == pytest.approx(
                row["frozen_frontier_ms"] / row["best_ms"], rel=0.02
            )
            assert row["contract_speedup"] == pytest.approx(
                row["frozen_frontier_ms"] / row["contract_ms"], rel=0.02
            )
            assert row["compiled_speedup"] > 0
            assert row["sharded_workers"] == [1, 2, 4]
            assert set(row["scaling"]) == {"1", "2", "4"}
            assert all(ms > 0 for ms in row["scaling"].values())
            assert row["sharded_ms"] == row["scaling"]["4"]
            assert row["sharded_speedup"] == pytest.approx(
                row["after_ms"] / row["sharded_ms"], abs=5e-4
            )
            assert row["scaling_speedup"] == pytest.approx(
                row["scaling"]["1"] / row["scaling"]["4"], rel=0.02
            )
            assert 0 < row["oocore_peak_bytes"] <= row["oocore_budget_bytes"]
            assert row["dist_recoveries"] == 0
            assert row["service_qps"] > 0
            assert row["naive_qps"] > 0
            assert row["service_speedup"] == pytest.approx(
                row["service_qps"] / row["naive_qps"], rel=0.02
            )
            assert row["service_verified"]

    def test_every_leg_verifies_labels(self, gate):
        _, verified = gate
        for name in GATE_NAMES:
            backends = {b for g, b in verified if g == name}
            assert backends == {
                "numpy", "legacy", "resilient", "frozen-frontier", "contract",
                "sharded(K=1)", "sharded(K=2)", "sharded(K=4)", "oocore",
                "distributed",
            } | ({"contract-no-numba"} if kernels.NUMBA_AVAILABLE else set())

    def test_service_label_mismatch_raises(self, monkeypatch):
        from repro.experiments import loadgen

        monkeypatch.setattr(
            loadgen, "reference_labels", lambda g: np.full(g.num_vertices, -1)
        )
        with pytest.raises(VerificationError, match="service"):
            run_wallclock_gate(
                scale="tiny", names=["rmat16.sym"], repeats=1,
                backends=["service"],
            )

    def test_oocore_demo_section(self, payload):
        """The size-ceiling demo: a CSR at least OOCORE_DEMO_DIVISOR
        times the budget, streamed with the charged peak under budget."""
        demo = payload["oocore_demo"]
        assert demo["graph"] == "oocore-demo"
        assert demo["oocore_csr_bytes"] >= (
            wallclock.OOCORE_DEMO_DIVISOR * demo["oocore_budget_bytes"]
        )
        assert demo["oocore_peak_bytes"] <= demo["oocore_budget_bytes"]
        assert demo["oocore_ceiling"] >= wallclock.OOCORE_CEILING_TARGET
        assert demo["oocore_shards"] >= 2
        assert demo["oocore_merge_passes"] >= 1
        assert demo["oocore_ms"] > 0
        assert demo["labels_verified"]

    def test_summary_lines(self, payload):
        lines = summarize(payload)
        assert len(lines) == len(GATE_NAMES) + 1
        for line in lines[:-1]:
            for word in ("frontier", "before", "resilient", "contract",
                         "sharded", "oocore peak", "dist recoveries",
                         "service"):
                assert word in line
        assert lines[-1].startswith("oocore demo:")

    def test_service_columns_skippable(self):
        payload = run_wallclock_gate(
            scale="tiny", names=["rmat16.sym"], repeats=1, backends=["legacy"]
        )
        assert list(payload["graphs"][0]) == _columns("legacy")
        assert "service_qps" not in payload["graphs"][0]

    def test_backends_filter_drops_columns(self):
        payload = run_wallclock_gate(
            scale="tiny", names=["rmat16.sym"], repeats=1, backends=["contract"],
        )
        row = payload["graphs"][0]
        # The base columns survive the filter; the skipped legs' columns
        # are simply absent.
        assert list(row) == _columns("contract")
        assert row["after_ms"] > 0 and row["frozen_frontier_ms"] > 0
        assert "oocore_demo" not in payload
        assert payload["environment"]["sharded_workers"] == []
        # A filtered payload must still be checkable.
        problems = check_gate(payload)
        assert all("no-regression floor" not in p or "best" in p
                   for p in problems)

    def test_unknown_backend_leg_raises(self):
        for gone in ("quantum", "dense", "fastsv"):
            with pytest.raises(ValueError, match="unknown gate leg"):
                run_wallclock_gate(
                    scale="tiny", names=["rmat16.sym"], repeats=1,
                    backends=["contract", gone],
                )

    def test_invalid_worker_counts_raise(self):
        for bad in ([0], [-2], [2.5], ["4"], []):
            with pytest.raises(ValueError, match="worker"):
                run_wallclock_gate(
                    scale="tiny", names=["rmat16.sym"], repeats=1,
                    backends=["sharded"], workers=bad,
                )

    def test_custom_worker_counts(self):
        payload = run_wallclock_gate(
            scale="tiny", names=["rmat16.sym"], repeats=1,
            backends=["sharded"], workers=[2, 1, 2],
        )
        row = payload["graphs"][0]
        # Deduplicated and sorted, recorded in row and environment.
        assert row["sharded_workers"] == [1, 2]
        assert set(row["scaling"]) == {"1", "2"}
        assert payload["environment"]["sharded_workers"] == [1, 2]
        assert row["sharded_ms"] == row["scaling"]["2"]

    def test_oocore_spill_dir_keeps_demo_manifest(self, tmp_path):
        payload = run_wallclock_gate(
            scale="tiny", names=["rmat16.sym"], repeats=1,
            backends=["oocore"], oocore_spill_dir=tmp_path / "spills",
        )
        assert payload["graphs"][0]["oocore_peak_bytes"] > 0
        # The demo's spill survives for artifact upload; the per-row
        # spills are ephemeral and cleaned after their runs.
        assert (tmp_path / "spills" / "oocore_demo" / "MANIFEST.json").is_file()
        assert not (tmp_path / "spills" / "rmat16.sym").exists()

    def test_high_diameter_flag(self, payload):
        flags = {r["name"]: r["high_diameter"] for r in payload["graphs"]}
        assert flags["2d-2e20.sym"] is True
        assert flags["rmat16.sym"] is False

    def test_json_roundtrip(self, payload, tmp_path):
        path = write_gate_json(payload, tmp_path / "gate.json")
        assert json.loads(path.read_text()) == payload

    def test_label_mismatch_raises(self, monkeypatch):
        def bad_serial(graph):
            return np.zeros(graph.num_vertices, dtype=np.int64) - 1, None

        monkeypatch.setattr(wallclock, "ecl_cc_serial", bad_serial)
        with pytest.raises(VerificationError, match="diverge"):
            run_wallclock_gate(
                scale="tiny", names=["rmat16.sym"], repeats=1, backends=[]
            )


class TestCheckGate:
    FLOOR = 1.0 - wallclock.MAX_REGRESSION

    @staticmethod
    def row(name, speedup, high_diameter=True, n=200_000):
        return {
            "name": name,
            "speedup": speedup,
            "high_diameter": high_diameter,
            "num_vertices": n,
        }

    def test_thresholds_keep_their_values(self):
        assert (
            wallclock.MAX_REGRESSION,
            wallclock.LEGACY_TARGET,
            wallclock.LEGACY_TARGET_VERTICES,
            wallclock.MAX_SUPERVISOR_OVERHEAD,
            wallclock.SUPERVISOR_SLACK_MS,
            wallclock.CONTRACT_TARGET,
            wallclock.CONTRACT_TARGET_GRAPHS,
            wallclock.SHARDED_FLOOR,
            wallclock.SCALING_TARGET,
            wallclock.SCALING_TARGET_GRAPHS,
            wallclock.OOCORE_CEILING_TARGET,
            wallclock.SERVICE_TARGET,
        ) == (0.05, 3.0, 100_000, 0.05, 0.3, 2.0, 2, 0.5, 1.7, 2, 10.0, 10.0)

    def test_passes(self):
        payload = {"graphs": [self.row("a", 3.5), self.row("b", 1.0, False)]}
        assert check_gate(payload) == []

    def test_flags_regression(self):
        payload = {
            "graphs": [self.row("a", 3.5), self.row("b", self.FLOOR - 0.01, False)]
        }
        problems = check_gate(payload)
        assert len(problems) == 1 and "b" in problems[0]
        payload["graphs"][1]["speedup"] = self.FLOOR
        assert check_gate(payload) == []

    def test_flags_supervisor_overhead(self):
        budget = 100.0 * (1 + wallclock.MAX_SUPERVISOR_OVERHEAD) + (
            wallclock.SUPERVISOR_SLACK_MS
        )
        slow = dict(self.row("a", 3.5), after_ms=100.0, resilient_ms=budget + 0.01)
        problems = check_gate({"graphs": [slow]})
        assert len(problems) == 1 and "overhead budget" in problems[0]
        slow["resilient_ms"] = budget
        assert check_gate({"graphs": [slow]}) == []

    def test_overhead_slack_covers_tiny_graphs(self):
        # +10% relative, but only 0.2 ms absolute: inside the slack.
        tiny = dict(self.row("a", 3.5), after_ms=2.0, resilient_ms=2.2)
        assert check_gate({"graphs": [tiny]}) == []

    def test_rows_without_resilient_field_still_checked(self):
        # A run without the resilient leg still gets the legacy checks.
        assert check_gate({"graphs": [self.row("a", 3.5)]}) == []
        assert check_gate({"graphs": [self.row("a", 0.5)]}) != []

    def test_flags_service_speedup_below_target(self):
        slow = dict(
            self.row("a", 3.5), service_speedup=wallclock.SERVICE_TARGET - 0.1
        )
        problems = check_gate({"graphs": [slow]})
        assert len(problems) == 1 and "serving target" in problems[0]

    def test_service_speedup_at_target_passes(self):
        ok = dict(self.row("a", 3.5), service_speedup=wallclock.SERVICE_TARGET)
        assert check_gate({"graphs": [ok]}) == []

    def test_rows_without_service_fields_exempt(self):
        assert check_gate({"graphs": [self.row("a", 3.5)]}) == []

    def test_requires_high_diameter_target(self):
        target = wallclock.LEGACY_TARGET
        big = wallclock.LEGACY_TARGET_VERTICES
        # Big speedup, but on a low-diameter / too-small graph only.
        payload = {
            "graphs": [
                self.row("a", 9.0, high_diameter=False),
                self.row("b", 9.0, n=big - 1),
                self.row("c", target - 0.1, n=big),
            ]
        }
        problems = check_gate(payload)
        assert len(problems) == 1 and f"{target:.1f}x" in problems[0]
        payload["graphs"][2]["speedup"] = target
        assert check_gate(payload) == []

    def test_legacy_target_exempt_without_speedup_columns(self):
        # A --backends run that skipped the legacy leg has no "speedup"
        # column anywhere; the legacy target cannot apply.
        rows = [
            {"name": "a", "high_diameter": True, "num_vertices": 200_000,
             "best_speedup": 2.5},
            {"name": "b", "high_diameter": False, "num_vertices": 200_000,
             "best_speedup": 2.1},
        ]
        assert check_gate({"graphs": rows}) == []

    def test_contract_family_floor(self):
        bad = dict(self.row("a", 3.5), best_speedup=self.FLOOR - 0.01)
        problems = check_gate({"graphs": [bad]})
        assert any("best native backend" in p for p in problems)
        ok = dict(bad, best_speedup=self.FLOOR)
        assert not any("best native backend" in p for p in check_gate({"graphs": [ok]}))

    def test_contract_target_count(self):
        target = wallclock.CONTRACT_TARGET
        rows = [
            dict(self.row(str(i), 3.5), best_speedup=target + 0.4)
            for i in range(wallclock.CONTRACT_TARGET_GRAPHS - 1)
        ] + [dict(self.row("last", 3.5, False), best_speedup=target - 0.01)]
        problems = check_gate({"graphs": rows})
        assert len(problems) == 1 and "best-vs-frozen-frontier" in problems[0]
        rows[-1]["best_speedup"] = target
        assert check_gate({"graphs": rows}) == []

    def test_rows_without_contract_fields_exempt(self):
        assert check_gate({"graphs": [self.row("a", 3.5)]}) == []

    @staticmethod
    def sharded_row(name, sharded=1.0, scaling=2.0, **kw):
        return dict(
            TestCheckGate.row(name, 3.5, **kw),
            sharded_workers=[1, 2, 4],
            sharded_speedup=sharded,
            scaling_speedup=scaling,
        )

    def test_sharded_floor_enforced_with_two_cpus(self):
        payload = {
            "environment": {"cpu_count": 2},
            "graphs": [self.sharded_row("a", sharded=wallclock.SHARDED_FLOOR - 0.01)],
        }
        problems = check_gate(payload)
        assert len(problems) == 1
        assert "sharded no-regression floor" in problems[0]
        payload["graphs"][0]["sharded_speedup"] = wallclock.SHARDED_FLOOR
        assert check_gate(payload) == []

    def test_sharded_floor_skipped_on_one_cpu(self):
        payload = {
            "environment": {"cpu_count": 1},
            "graphs": [self.sharded_row("a", sharded=0.3, scaling=0.5)],
        }
        assert check_gate(payload) == []

    def test_scaling_target_enforced_with_four_cpus(self):
        target = wallclock.SCALING_TARGET
        payload = {
            "environment": {"cpu_count": 4},
            "graphs": [
                self.sharded_row(str(i), scaling=target + 0.2)
                for i in range(wallclock.SCALING_TARGET_GRAPHS - 1)
            ]
            + [self.sharded_row("last", scaling=target - 0.01, high_diameter=False)],
        }
        problems = check_gate(payload)
        assert len(problems) == 1 and "strong-scaling target" in problems[0]
        payload["graphs"][-1]["scaling_speedup"] = target
        assert check_gate(payload) == []

    def test_scaling_target_skipped_below_four_cpus(self):
        payload = {
            "environment": {"cpu_count": 3},
            "graphs": [self.sharded_row("a", scaling=0.8)],
        }
        assert check_gate(payload) == []

    def test_rows_without_sharded_fields_exempt(self):
        payload = {
            "environment": {"cpu_count": 16},
            "graphs": [self.row("a", 3.5)],
        }
        assert check_gate(payload) == []

    @staticmethod
    def demo(peak=100, budget=150, ceiling=12.0, verified=True):
        return {
            "graph": "oocore-demo",
            "oocore_peak_bytes": peak,
            "oocore_budget_bytes": budget,
            "oocore_ceiling": ceiling,
            "labels_verified": verified,
        }

    def test_oocore_row_over_budget_flagged(self):
        bad = dict(self.row("a", 3.5), oocore_peak_bytes=1_001,
                   oocore_budget_bytes=1_000)
        problems = check_gate({"graphs": [bad]})
        assert len(problems) == 1 and "exceeds the memory budget" in problems[0]
        bad["oocore_peak_bytes"] = 1_000  # at budget is within budget
        assert check_gate({"graphs": [bad]}) == []

    def test_oocore_demo_over_budget_flagged(self):
        payload = {
            "graphs": [self.row("a", 3.5)],
            "oocore_demo": self.demo(peak=151),
        }
        problems = check_gate(payload)
        assert len(problems) == 1 and "oocore demo" in problems[0]

    def test_oocore_demo_ceiling_below_target_flagged(self):
        target = wallclock.OOCORE_CEILING_TARGET
        payload = {
            "graphs": [self.row("a", 3.5)],
            "oocore_demo": self.demo(ceiling=target - 0.01),
        }
        problems = check_gate(payload)
        assert len(problems) == 1 and "out-of-core target" in problems[0]
        payload["oocore_demo"]["oocore_ceiling"] = target
        assert check_gate(payload) == []

    def test_oocore_demo_unverified_flagged(self):
        payload = {
            "graphs": [self.row("a", 3.5)],
            "oocore_demo": self.demo(verified=False),
        }
        problems = check_gate(payload)
        assert len(problems) == 1 and "not gate evidence" in problems[0]

    def test_payloads_without_oocore_fields_exempt(self):
        assert check_gate({"graphs": [self.row("a", 3.5)]}) == []

    def test_dist_recoveries_nonzero_flagged(self):
        bad = dict(self.row("a", 3.5), dist_recoveries=1)
        problems = check_gate({"graphs": [bad]})
        assert len(problems) == 1 and "failure detector" in problems[0]
        bad["dist_recoveries"] = 0
        assert check_gate({"graphs": [bad]}) == []

    def test_payloads_without_dist_fields_exempt(self):
        assert check_gate({"graphs": [self.row("a", 3.5)]}) == []


class TestFrontierTraceVisibility:
    def test_frontier_gauges_reach_chrome_trace(self):
        g = load("rmat16.sym", "tiny")
        tracer = Tracer()
        with use_tracer(tracer):
            # Init1 leaves the whole first frontier alive, guaranteeing
            # at least one hook round even on easy graphs.
            ecl_cc_numpy(g, init="Init1")
        trace = to_chrome_trace(tracer)
        counter_events = [
            e for e in trace["traceEvents"] if e.get("ph") == "C"
        ]
        names = {e["name"] for e in counter_events}
        assert "numpy.frontier_edges" in names
        assert "numpy.active_vertices" in names
        span_names = {
            e["name"] for e in trace["traceEvents"] if e.get("ph") == "X"
        }
        assert "numpy:hook-rounds" in span_names

    def test_numpy_gauge_trajectory_reaches_chrome_trace(self):
        from repro import connected_components

        g = load("rmat16.sym", "tiny")
        tracer = Tracer()
        with use_tracer(tracer):
            res = connected_components(g, backend="numpy", init="Init1")
        trace = to_chrome_trace(tracer)
        samples = [
            e["args"]["numpy.frontier_edges"]
            for e in trace["traceEvents"]
            if e.get("ph") == "C" and e["name"] == "numpy.frontier_edges"
        ]
        # One sample per hook round, then the converged zero.
        assert samples == [float(s) for s in res.stats.frontier_sizes] + [0.0]
        assert len(samples) >= 2
