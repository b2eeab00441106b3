"""The fuzz driver end-to-end: clean pass, mutant catching, minimization,
counterexample replay, and the CLI."""

import json

import numpy as np
import pytest

from repro.graph.build import from_edges
from repro.verify import (
    Counterexample,
    DiffConfig,
    ablation_configs,
    ddmin_edges,
    differential_check,
    fuzz,
    minimize_graph,
    replay,
    shrink_trace,
    trial_graph,
)
from repro.verify.__main__ import main as verify_main
from repro.verify.broken import (
    g_hook_noretry,
    register_broken_backends,
    unregister_broken_backends,
)
from repro.verify.schedulers import RandomScheduler, ReplayScheduler


@pytest.fixture
def broken_registry():
    names = register_broken_backends()
    yield names
    unregister_broken_backends()


class TestAblationConfigs:
    def test_covers_full_cross_product(self):
        cfgs = ablation_configs(["gpu"])
        assert len(cfgs) == 3 * 4 * 3  # Init1-3 x Jump1-4 x Fini1-3
        assert len(set(cfgs)) == len(cfgs)

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            ablation_configs(["gpu", "typo"])

    def test_every_registered_backend_included(self):
        cfgs = ablation_configs()
        backends = {c.backend for c in cfgs}
        for expected in ("serial", "numpy", "gpu", "omp", "fastsv",
                         "afforest"):
            assert expected in backends


class TestTrialGraphs:
    def test_deterministic(self):
        for seed in (0, 7, 123456):
            a, b = trial_graph(seed), trial_graph(seed)
            assert np.array_equal(a.row_ptr, b.row_ptr)
            assert np.array_equal(a.col_idx, b.col_idx)

    def test_pool_diversity_and_bounds(self):
        names = set()
        for seed in range(200):
            g = trial_graph(seed)
            assert g.num_vertices <= 260
            names.add(g.name)
        assert len(names) >= 6  # degenerate + structured + random families


class TestFuzzClean:
    def test_small_fuzz_passes(self):
        report = fuzz(trials=40, seed=1)
        assert report.ok, report.summary()
        assert report.trials == 40
        assert report.by_kind.get("differential", 0) > 0
        assert report.decisions > 0

    def test_seconds_budget_stops(self):
        report = fuzz(seconds=0.5, seed=2)
        assert report.ok, report.summary()
        assert report.elapsed_s < 30  # generous: one trial may overshoot


class TestBrokenVariantCaught:
    def test_caught_and_minimized_within_budget(self, broken_registry):
        """Acceptance: the non-retrying hook falls within the same budget
        used by CI, with a minimized replayable counterexample."""
        report = fuzz(trials=500, seed=0, backends=broken_registry)
        cx = report.counterexample
        assert cx is not None, "broken hook survived 500 trials"
        assert cx.minimized
        assert cx.num_vertices <= 30  # shrunk far below the pool sizes
        # The artifact replays: same failure, no fuzzing loop needed.
        assert replay(cx) is not None
        # And survives a JSON round-trip (the CI artifact path).
        again = Counterexample.from_json(cx.to_json())
        assert replay(again) is not None

    def test_broken_hook_is_schedule_dependent(self, broken_registry):
        # Friendly round-robin (no scheduler) can stay correct on a tiny
        # graph: the defect needs contention, which the fuzzer supplies.
        g = from_edges([(0, 1), (1, 2)], num_vertices=3, name="tiny")
        msg = differential_check(g, DiffConfig(broken_registry[0]))
        assert msg is None


class TestMinimizer:
    def test_ddmin_isolates_the_culprit_edge(self):
        edges = [(i, i + 1) for i in range(10)] + [(2, 7)]

        def fails(graph):
            src, dst = graph.arc_array()
            return bool(np.any((src == 2) & (dst == 7)))

        small = ddmin_edges(edges, 11, fails)
        assert small == [(2, 7)]

    def test_minimize_graph_compacts_vertices(self):
        edges = [(40, 41), (41, 42), (3, 4)]

        def fails(graph):
            # Fails whenever some component has >= 3 vertices.
            from repro.verify import reference_labels

            labels = reference_labels(graph)
            if labels.size == 0:
                return False
            _, counts = np.unique(labels, return_counts=True)
            return bool(counts.max() >= 3)

        small, n = minimize_graph(edges, 60, fails)
        assert n <= 3
        assert len(small) == 2

    def test_shrink_trace_prefix(self):
        g = from_edges(
            [(0, 1), (1, 2), (2, 3), (3, 4)], num_vertices=5, name="p5"
        )
        rec = RandomScheduler(3)
        assert differential_check(g, DiffConfig("gpu"), scheduler=rec) is None
        trace = rec.trace
        # Synthetic failure predicate: "fails" while the prefix is long
        # enough; shrink must find the threshold exactly.
        threshold = len(trace.picks) // 3

        def fails_with_trace(t):
            return len(t.picks) >= threshold

        small = shrink_trace(trace, fails_with_trace)
        assert len(small.picks) == threshold
        # A shrunk trace still drives a complete, correct run via the
        # round-robin tail.
        msg = differential_check(
            g, DiffConfig("gpu"), scheduler=ReplayScheduler(small)
        )
        assert msg is None


class TestCli:
    def test_fuzz_cli_pass(self, capsys):
        rc = verify_main(["fuzz", "--trials", "25", "--seed", "3", "--quiet"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out

    def test_fuzz_cli_catches_and_writes_artifact(
        self, tmp_path, capsys, broken_registry
    ):
        out_path = tmp_path / "cx.json"
        rc = verify_main(
            [
                "fuzz", "--trials", "300", "--seed", "0",
                "--backends", ",".join(broken_registry),
                "--out", str(out_path), "--quiet",
            ]
        )
        assert rc == 1
        data = json.loads(out_path.read_text())
        assert data["backend"] in broken_registry
        assert data["minimized"] is True

        # replay CLI on the artifact (CI triage path).
        rc = verify_main(["replay", str(out_path), "--expect-failure"])
        assert rc == 0
        assert "reproduces" in capsys.readouterr().out

    def test_selfcheck_cli(self, capsys):
        rc = verify_main(["selfcheck", "--trials", "200", "--seed", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "selfcheck: OK" in out


def test_g_hook_noretry_is_actually_single_shot():
    # Defense against the mutant quietly being fixed: the generator must
    # issue at most one CAS.
    from repro.gpusim.memory import DeviceMemory

    ops = []
    mem_parent = np.arange(4, dtype=np.int64)

    class FakeArr:
        name = "parent"
        data = mem_parent

    gen = g_hook_noretry(3, 1, FakeArr())
    try:
        op = next(gen)
        while True:
            ops.append(op)
            # Simulate a FAILED cas (someone else changed the slot).
            op = gen.send(0)
    except StopIteration:
        pass
    assert len([o for o in ops if o[0] == "cas"]) == 1
