"""Tests for the serving layer: EdgeStore, ConnectivityService, loadgen.

The differential backbone: after every applied batch,
``labels_snapshot()`` must be bit-identical to the serial oracle run on
the store's live edge set — the service's incremental path is held to
the same canonical minimum-member labeling as every batch backend.
"""

from __future__ import annotations

import multiprocessing
import threading
import time

import numpy as np
import pytest

from repro import BatchPolicy, CCResult, ConnectivityService, connected_components
import repro.core.api
import repro.resilience
from repro.errors import QueueFullError
from repro.experiments.loadgen import (
    build_ops,
    compare_loadgen,
    run_naive_loadgen,
    run_service_loadgen,
)
from repro.generators import load, rmat
from repro.graph.build import from_edges
from repro.observe import Tracer, current_tracer, use_tracer
from repro.service import EdgeStore
from repro.verify import reference_labels


def oracle_labels(svc: ConnectivityService) -> np.ndarray:
    """Serial-oracle labels of the service's committed edge set."""
    from repro.core.ecl_cc_serial import ecl_cc_serial

    labels, _ = ecl_cc_serial(svc.current_graph())
    return labels


class TestEdgeStore:
    def test_insert_reports_newly_alive(self):
        store = EdgeStore(10)
        nu, nv = store.insert([0, 1, 0], [1, 2, 1])  # duplicate in batch
        assert store.num_edges == 2
        # The duplicate within the batch is reported once.
        assert nu.size == 2
        nu, nv = store.insert([0], [1])  # duplicate of a live edge
        assert nu.size == 0 and store.num_edges == 2

    def test_self_loops_dropped(self):
        store = EdgeStore(5)
        nu, _ = store.insert([2], [2])
        assert nu.size == 0 and store.num_edges == 0

    def test_delete_and_revive(self):
        store = EdgeStore(5)
        store.insert([0, 1], [1, 2])
        assert store.delete([1], [0]) == 1  # canonical order-insensitive
        assert store.num_edges == 1
        assert not store.contains(0, 1)
        nu, _ = store.insert([0], [1])  # revive the tombstone
        assert nu.size == 1 and store.contains(0, 1)

    def test_delete_absent_is_noop(self):
        store = EdgeStore(5)
        assert store.delete([3], [4]) == 0

    def test_to_graph_round_trip(self):
        g = load("rmat16.sym", "tiny")
        store = EdgeStore.from_graph(g)
        back = store.to_graph()
        assert np.array_equal(back.edge_array()[0], g.edge_array()[0])
        assert np.array_equal(back.edge_array()[1], g.edge_array()[1])

    def test_compact_reclaims_tombstones(self):
        store = EdgeStore(10)
        store.insert(np.arange(9), np.arange(1, 10))
        store.delete(np.arange(4), np.arange(1, 5))
        assert store.tombstone_fraction == pytest.approx(4 / 9)
        assert store.compact() == 4
        assert store.tombstone_fraction == 0.0
        assert store.num_edges == 5
        assert store.contains(5, 6) and not store.contains(0, 1)

    def test_bounds_checked(self):
        store = EdgeStore(4)
        with pytest.raises(IndexError, match="out of range"):
            store.insert([0], [4])


class TestServiceBasics:
    def test_seeded_from_graph(self, two_cliques):
        svc = ConnectivityService(two_cliques, start=False)
        assert svc.component_count() == 2
        assert svc.same_component(0, 2)
        assert not svc.same_component(0, 4)
        assert np.array_equal(
            svc.labels_snapshot(), reference_labels(two_cliques)
        )

    def test_empty_universe(self):
        svc = ConnectivityService(num_vertices=5, start=False)
        assert svc.component_count() == 5
        t = svc.add_edge(0, 4)
        svc.flush()
        assert t.applied and svc.same_component(0, 4)

    def test_requires_graph_or_size(self):
        with pytest.raises(ValueError):
            ConnectivityService()

    def test_num_vertices_must_match_graph(self, two_cliques):
        with pytest.raises(ValueError, match="does not match"):
            ConnectivityService(two_cliques, num_vertices=10, start=False)
        svc = ConnectivityService(two_cliques, num_vertices=8, start=False)
        assert svc.num_vertices == 8

    def test_query_bounds_checked(self, two_cliques):
        svc = ConnectivityService(two_cliques, start=False)
        with pytest.raises(IndexError):
            svc.component_of(two_cliques.num_vertices)

    def test_component_of_matches_labels(self, two_cliques):
        svc = ConnectivityService(two_cliques, start=False)
        labels = svc.labels_snapshot()
        for v in range(two_cliques.num_vertices):
            assert svc.component_of(v) == labels[v]

    def test_root_cache_counts_hits(self, two_cliques):
        svc = ConnectivityService(two_cliques, start=False)
        svc.component_of(1)
        misses = svc.stats.cache_misses
        svc.component_of(1)
        assert svc.stats.cache_hits >= 1
        assert svc.stats.cache_misses == misses
        svc.add_edge(0, 4)
        svc.flush()
        # New snapshot, cold cache: the next lookup misses again.
        svc.component_of(1)
        assert svc.stats.cache_misses > misses


class TestSnapshotIsolation:
    def test_published_arrays_immutable(self, two_cliques):
        svc = ConnectivityService(two_cliques, start=False)
        snap = svc.labels_snapshot()
        with pytest.raises(ValueError):
            snap[0] = 99

    def test_old_snapshot_survives_later_batches(self, two_cliques):
        svc = ConnectivityService(two_cliques, start=False)
        before = svc.labels_snapshot()
        frozen = before.copy()
        svc.add_edge(0, 4)  # merge the cliques
        svc.flush()
        assert np.array_equal(before, frozen)
        assert svc.labels_snapshot()[4] == 0  # new snapshot sees the merge

    def test_interleaved_mutate_query(self):
        """Readers racing a mutating batch never see a half-applied
        state: every observed labeling equals the oracle of *some*
        committed prefix of the batch sequence."""
        n = 64
        svc = ConnectivityService(
            num_vertices=n,
            policy=BatchPolicy(max_batch_size=4, max_latency_s=0.001),
        )
        errors: list[str] = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                snap = svc.snapshot()
                labels = snap.labels()
                # Count and labels from the SAME snapshot must agree —
                # a torn read across a half-applied batch would break
                # this.
                if snap.num_components != np.unique(labels).size:
                    errors.append("snapshot count disagrees with labels")
                # A half-applied batch would leave a non-canonical
                # labeling; every published snapshot must be canonical
                # (labels[labels] == labels) with a matching count.
                if not np.array_equal(labels[labels], labels):
                    errors.append("non-canonical snapshot published")

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        tickets = [svc.add_edge(i, i + 1) for i in range(n - 1)]
        tickets[-1].result(5.0)
        stop.set()
        for t in threads:
            t.join()
        svc.close()
        assert not errors, errors[:3]
        assert svc.component_count() == 1


class TestBatchTriggers:
    def test_size_trigger(self):
        svc = ConnectivityService(
            num_vertices=100,
            policy=BatchPolicy(max_batch_size=5, max_latency_s=3600.0),
        )
        try:
            tickets = [svc.add_edge(i, i + 1) for i in range(5)]
            # With an hour-long latency budget, only the size trigger
            # can have fired.
            assert tickets[-1].result(2.0).size == 5
            assert svc.version == 2
        finally:
            svc.close()

    def test_latency_trigger(self):
        svc = ConnectivityService(
            num_vertices=100,
            policy=BatchPolicy(max_batch_size=10_000, max_latency_s=0.02),
        )
        try:
            t0 = time.monotonic()
            ticket = svc.add_edge(3, 4)
            stats = ticket.result(2.0)
            elapsed = time.monotonic() - t0
            # One edge is far below the size trigger: the flush must
            # have come from the latency timer.
            assert stats.size == 1
            assert elapsed >= 0.015
        finally:
            svc.close()

    def test_synchronous_mode_buffers_until_flush(self, two_cliques):
        svc = ConnectivityService(two_cliques, start=False)
        ticket = svc.add_edge(0, 4)
        assert svc.queue_depth == 1
        assert not svc.same_component(0, 4)  # not yet committed
        svc.flush()
        assert ticket.applied
        assert svc.same_component(0, 4)

    def test_synchronous_mode_size_trigger_applies_inline(self):
        svc = ConnectivityService(
            num_vertices=50,
            policy=BatchPolicy(max_batch_size=3),
            start=False,
        )
        svc.add_edge(0, 1)
        svc.add_edge(1, 2)
        assert svc.queue_depth == 2
        svc.add_edge(2, 3)  # hits the size trigger
        assert svc.queue_depth == 0
        assert svc.same_component(0, 3)

    def test_oversized_batch_not_split(self):
        svc = ConnectivityService(
            num_vertices=100, policy=BatchPolicy(max_batch_size=4), start=False
        )
        u = np.arange(10)
        ticket = svc.add_edges(u, u + 1)
        assert ticket.result(2.0).size == 10

    def test_empty_mutation_resolves_immediately(self, two_cliques):
        svc = ConnectivityService(two_cliques, start=False)
        ticket = svc.add_edges([], [])
        assert ticket.wait(0)

    def test_close_drains_pending(self):
        svc = ConnectivityService(
            num_vertices=10,
            policy=BatchPolicy(max_batch_size=10_000, max_latency_s=3600.0),
        )
        ticket = svc.add_edge(0, 1)
        svc.close()
        assert ticket.applied
        assert svc.same_component(0, 1)


def assert_flat(svc: ConnectivityService) -> None:
    """The published snapshot's parent array has depth-zero chains."""
    parent = svc.snapshot()._parent
    assert np.array_equal(parent[parent], parent)


class TestUpdatePolicy:
    def test_small_batch_applies_incrementally(self, two_cliques):
        svc = ConnectivityService(two_cliques, start=False)
        t = svc.add_edge(0, 4)
        svc.flush()
        assert t.result().mode == "incremental"
        assert svc.stats.incremental_batches == 1
        assert svc.stats.static_recomputes == 0

    def test_bulk_merge_stays_incremental(self):
        # 100 singletons wired into one path by a single insert batch:
        # insert batches never recompute, however much they merge.
        svc = ConnectivityService(num_vertices=100, start=False)
        u = np.arange(99)
        t = svc.add_edges(u, u + 1)
        svc.flush()
        assert t.result().mode == "incremental"
        assert svc.stats.static_fallbacks == 0
        assert svc.component_count() == 1

    def test_auto_policy_snapshot_and_gauges(self, two_cliques):
        # The retired recompute race reports a fixed empty record and
        # emits no service.auto_* counters or gauges, even on a delete.
        tracer = Tracer()
        with use_tracer(tracer):
            svc = ConnectivityService(two_cliques, start=False)
            svc.remove_edge(0, 1)
            svc.flush()
        assert svc.last_batch().mode == "static"
        assert svc.auto_policy() == {
            "winner": None, "at_edges": None, "races": 0, "reraces": 0
        }
        names = set(tracer.counters) | {name for _, name, _ in tracer.gauges}
        assert not [name for name in names if name.startswith("service.auto")]

    def test_delete_batch_runs_no_backend(self, two_cliques, monkeypatch):
        # A delete re-seeds the union-find from the edge store's live
        # arrays: no CSR build, no registry backend, no supervisor and
        # no worker process.
        def forbidden(*args, **kwargs):
            raise AssertionError("a delete batch left the union-find engine")

        svc = ConnectivityService(two_cliques, start=False)
        with monkeypatch.context() as m:
            m.setattr(repro.core.api, "connected_components", forbidden)
            m.setattr(repro.resilience, "resilient_components", forbidden)
            m.setattr(EdgeStore, "to_graph", forbidden)
            ticket = svc.remove_edges([0, 4], [1, 5])
            svc.flush()
            assert ticket.result(0).mode == "static"
        assert np.array_equal(svc.labels_snapshot(), oracle_labels(svc))
        assert multiprocessing.active_children() == []

    def test_deletion_forces_static(self, two_cliques):
        svc = ConnectivityService(two_cliques, start=False)
        t = svc.remove_edge(0, 1)
        svc.flush()
        assert t.result().mode == "static"
        # {0,1,2,3} is a clique: removing one edge keeps it connected.
        assert svc.same_component(0, 1)
        assert np.array_equal(svc.labels_snapshot(), oracle_labels(svc))

    def test_split_detected_after_deletions(self):
        g = from_edges([(0, 1), (1, 2)], num_vertices=3, name="path3")
        svc = ConnectivityService(g, start=False)
        svc.remove_edge(1, 2)
        svc.flush()
        assert not svc.same_component(0, 2)
        assert svc.component_count() == 2
        assert_flat(svc)

    @pytest.mark.parametrize("live", [0, 31, 32, 33])
    def test_deletes_leave_live_edges(self, live):
        # A 40-edge path plus isolated vertices 41..49, cut down to
        # `live` edges: both sides of VECTOR_THRESHOLD (32), and none.
        # Stored high end first, so a scalar re-seed builds long chains.
        n, path = 50, np.arange(40)[::-1]
        svc = ConnectivityService(num_vertices=n, start=False)
        svc.add_edges(path, path + 1)
        svc.flush()
        gone = np.random.default_rng(live).permutation(40)[: 40 - live]
        t = svc.remove_edges(path[gone], path[gone] + 1)
        svc.flush()
        assert t.result().mode == "static"
        assert svc.num_edges == live
        labels = svc.labels_snapshot()
        assert np.array_equal(labels, oracle_labels(svc))
        assert svc.component_count() == np.unique(labels).size == n - live
        assert_flat(svc)
        if live == 0:
            assert np.array_equal(labels, np.arange(n))

    def test_duplicate_inserts_cause_no_merges(self, two_cliques):
        svc = ConnectivityService(two_cliques, start=False)
        t = svc.add_edge(0, 1)  # already present
        svc.flush()
        stats = t.result()
        assert stats.inserts == 0 and stats.merges == 0

    def test_mixed_insert_delete_batch(self, two_cliques):
        svc = ConnectivityService(two_cliques, start=False)
        svc.add_edge(0, 4)
        svc.remove_edge(2, 3)
        svc.flush()  # one batch: contains a delete -> static
        assert svc.last_batch().mode == "static"
        assert svc.same_component(0, 4)
        assert np.array_equal(svc.labels_snapshot(), oracle_labels(svc))
        assert_flat(svc)

    def test_compaction_runs_at_threshold(self):
        svc = ConnectivityService(
            num_vertices=20,
            policy=BatchPolicy(compact_tombstone_frac=0.25),
            start=False,
        )
        u = np.arange(10)
        svc.add_edges(u, u + 1)
        svc.flush()
        svc.remove_edges(u[:5], u[:5] + 1)
        svc.flush()
        assert svc.stats.compactions >= 1

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            BatchPolicy(max_batch_size=0)
        with pytest.raises(ValueError):
            BatchPolicy(max_latency_s=-1.0)
        for retired in ("recompute_merge_frac", "recompute_backend", "resilient"):
            with pytest.raises(TypeError):
                BatchPolicy(**{retired: 0})

    def test_recompute_failure_resolves_ticket_with_error(self, two_cliques):
        svc = ConnectivityService(two_cliques, start=False)

        def boom():
            raise RuntimeError("injected")

        # The re-seed reads the store's live arrays; make that fail.
        svc._store.alive_arrays = boom
        before = svc.snapshot()
        ticket = svc.remove_edge(0, 1)
        svc.flush()
        assert not ticket.applied
        with pytest.raises(RuntimeError, match="injected"):
            ticket.result(0)
        assert svc.stats.failed_batches == 1
        # The service keeps serving the last committed snapshot.
        assert svc.snapshot() is before
        assert svc.component_count() == 2


class TestDifferentialAgainstOracle:
    """The satellite's core check: every post-batch snapshot is
    bit-identical to the serial oracle on the committed edge set."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_batches_match_oracle(self, seed):
        rng = np.random.default_rng(seed)
        g = rmat(7, 2.0, seed=seed, name=f"svc-diff-{seed}")
        svc = ConnectivityService(
            g,
            policy=BatchPolicy(max_batch_size=16),
            start=False,
        )
        n = g.num_vertices
        for _ in range(12):
            k = int(rng.integers(1, 12))
            if rng.random() < 0.25:
                eu, ev = svc.current_graph().edge_array()
                if eu.size:
                    pick = rng.integers(0, eu.size, size=min(k, eu.size))
                    svc.remove_edges(eu[pick], ev[pick])
            else:
                svc.add_edges(
                    rng.integers(0, n, size=k), rng.integers(0, n, size=k)
                )
            svc.flush()
            assert np.array_equal(svc.labels_snapshot(), oracle_labels(svc))
            assert svc.component_count() == np.unique(
                svc.labels_snapshot()
            ).size
            if svc.last_batch().mode == "static":
                assert_flat(svc)
        # Deleting every live edge leaves n singletons.
        eu, ev = svc.current_graph().edge_array()
        svc.remove_edges(eu, ev)
        svc.flush()
        assert np.array_equal(svc.labels_snapshot(), np.arange(n))
        assert svc.component_count() == n
        assert_flat(svc)

    def test_grows_to_connected_and_agrees(self):
        g = load("2d-2e20.sym", "tiny")
        svc = ConnectivityService(g, start=False)
        # Wire all current component representatives together.
        labels = svc.labels_snapshot()
        roots = np.unique(labels)
        if roots.size > 1:
            svc.add_edges(roots[:-1], roots[1:])
            svc.flush()
        assert svc.component_count() == 1
        assert np.array_equal(svc.labels_snapshot(), oracle_labels(svc))


class TestObservability:
    def test_spans_and_gauges_recorded(self, two_cliques):
        tracer = Tracer()
        with use_tracer(tracer):
            svc = ConnectivityService(two_cliques, start=False)
            svc.add_edge(0, 4)
            svc.flush()
            svc.same_component(0, 4)
        names = [s.name for s in tracer.spans]
        assert "service:batch" in names
        assert tracer.counters.get("service.batches") == 1
        assert tracer.counters.get("service.mutations") == 1
        gauge_names = {name for _, name, _ in tracer.gauges}
        assert "service.queue_depth" in gauge_names
        assert "service.components" in gauge_names

    def test_tracer_captured_at_construction_crosses_threads(self, two_cliques):
        # The flusher thread must report into the tracer that was
        # ambient when the service was built (contextvars don't cross
        # threads on their own).
        tracer = Tracer()
        with use_tracer(tracer):
            svc = ConnectivityService(
                two_cliques, policy=BatchPolicy(max_latency_s=0.001)
            )
        svc.add_edge(0, 4).result(2.0)
        svc.close()
        assert "service:batch" in [s.name for s in tracer.spans]

    def test_flusher_recompute_reaches_backend_spans(self, two_cliques):
        # Code under a recompute reads the ambient tracer itself, so the
        # flusher thread must install the captured one around each
        # batch or those spans silently go to the disabled tracer.
        tracer = Tracer()
        with use_tracer(tracer):
            svc = ConnectivityService(two_cliques, start=True)
        recompute = svc._recompute

        def probe():
            with current_tracer().span("test:probe", category="test"):
                recompute()

        svc._recompute = probe
        try:
            svc.remove_edge(0, 1)
            svc.flush(timeout=10.0)
        finally:
            svc.close()
        spans = tracer.spans
        (probed,) = [s for s in spans if s.name == "test:probe"]
        assert spans[probed.parent].name == "service:batch"

    def test_delete_batch_records_one_rebuild_span(self, two_cliques):
        # The forest rebuild after a delete is one service:recompute
        # span directly inside the batch; no CSR rebuild span remains.
        tracer = Tracer()
        with use_tracer(tracer):
            svc = ConnectivityService(two_cliques, start=False)
            svc.remove_edge(0, 1)
            svc.flush()
        spans = tracer.spans
        (recompute,) = [s for s in spans if s.name == "service:recompute"]
        assert spans[recompute.parent].name == "service:batch"
        assert not [s for s in spans if s.name == "service:rebuild"]


class TestLoadgen:
    @pytest.fixture(scope="class")
    def graph(self):
        return load("rmat16.sym", "tiny")

    def test_build_ops_deterministic(self, graph):
        a = build_ops(graph, num_ops=500, seed=7)
        b = build_ops(graph, num_ops=500, seed=7)
        assert np.array_equal(a.op, b.op)
        assert np.array_equal(a.u, b.u)
        assert a.seed_graph.num_edges == b.seed_graph.num_edges

    def test_read_write_mix(self, graph):
        ops = build_ops(graph, num_ops=1000, read_fraction=0.9, seed=0)
        assert ops.num_writes == 100
        assert ops.seed_graph.num_edges < graph.num_edges

    def test_service_run_verifies_against_oracle(self, graph):
        ops = build_ops(graph, num_ops=1000, seed=1)
        res, svc = run_service_loadgen(ops)
        assert res.ops_executed == 1000
        assert res.qps > 0
        assert np.array_equal(
            svc.labels_snapshot(), reference_labels(svc.current_graph())
        )

    def test_naive_prefix_contains_writes(self, graph):
        ops = build_ops(graph, num_ops=1000, seed=2)
        res = run_naive_loadgen(ops, max_ops=50, min_writes=5)
        assert res.writes >= 5

    def test_compare_reports_speedup(self, graph):
        row = compare_loadgen(graph, num_ops=2000, naive_max_ops=100, seed=3)
        assert row["verified"]
        assert row["service_qps"] > 0 and row["naive_qps"] > 0
        assert row["service_speedup"] == pytest.approx(
            row["service_qps"] / row["naive_qps"]
        )


class TestPublicSurface:
    def test_all_exports_importable(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_core_verify_shim_removed(self):
        # The one-release deprecation window for the repro.core.verify
        # shim elapsed; the module must be gone, not silently aliased.
        import importlib
        import sys

        sys.modules.pop("repro.core.verify", None)
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.core.verify")

    def test_importing_repro_core_does_not_warn(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-W", "error::DeprecationWarning", "-c",
             "import repro.core"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_ccresult_default_round_trip(self, two_cliques):
        res = connected_components(two_cliques)
        assert isinstance(res, CCResult)
        assert res.num_components == 2


class TestBoundedQueue:
    def test_shed_raises_typed_error_and_counts(self):
        svc = ConnectivityService(
            num_vertices=50,
            policy=BatchPolicy(max_pending=4, max_latency_s=3600.0),
            start=False,
        )
        try:
            svc.add_edges([0], [1])
            svc.add_edges([1, 2], [2, 3])  # 3 pending
            with pytest.raises(QueueFullError) as exc:
                svc.add_edges([4, 5], [5, 6])  # would be 5 > 4
            assert exc.value.pending == 3
            assert exc.value.max_pending == 4
            assert svc.stats.shed == 1
            assert svc.stats.shed_edges == 2
            # Queue unchanged (2 buffered submissions): the shed
            # submission left no partial state behind.
            assert svc.queue_depth == 2
            svc.flush()
            assert svc.same_component(0, 3)
        finally:
            svc.close()

    def test_flush_drains_and_unblocks_queue(self):
        svc = ConnectivityService(
            num_vertices=50,
            policy=BatchPolicy(max_pending=2, max_latency_s=3600.0),
            start=False,
        )
        try:
            svc.add_edges([0, 1], [1, 2])
            with pytest.raises(QueueFullError):
                svc.add_edges([2], [3])
            svc.flush()
            svc.add_edges([2], [3])  # accepted again after the drain
            svc.flush()
            assert svc.same_component(0, 3)
            assert svc.stats.shed == 1
        finally:
            svc.close()

    def test_shed_metric_traced(self):
        tracer = Tracer()
        with use_tracer(tracer):
            svc = ConnectivityService(
                num_vertices=10,
                policy=BatchPolicy(max_pending=1, max_latency_s=3600.0),
                start=False,
            )
            try:
                svc.add_edges([0], [1])
                with pytest.raises(QueueFullError):
                    svc.add_edges([1, 2], [2, 3])
            finally:
                svc.close()
        assert tracer.counters.get("service.shed") == 1
        assert tracer.counters.get("service.shed_edges") == 2

    def test_unbounded_by_default(self):
        svc = ConnectivityService(num_vertices=20, start=False)
        for i in range(15):
            svc.add_edge(i, i + 1)
        svc.flush()
        assert svc.same_component(0, 15)
        assert svc.stats.shed == 0

    def test_max_pending_validated(self):
        with pytest.raises(ValueError):
            BatchPolicy(max_pending=0)


class TestFlushTimeout:
    def test_flush_raises_on_hung_flusher(self):
        svc = ConnectivityService(
            num_vertices=20,
            policy=BatchPolicy(max_latency_s=3600.0),
        )
        try:
            inner = svc._apply_batch_inner
            release = threading.Event()

            def slow(batch, span):
                release.wait(5.0)
                return inner(batch, span)

            svc._apply_batch_inner = slow
            svc.add_edge(1, 2)
            t0 = time.monotonic()
            with pytest.raises(TimeoutError):
                svc.flush(timeout=0.05)
            assert time.monotonic() - t0 < 1.0
            release.set()
            svc.flush()  # untimed flush completes once unblocked
            assert svc.same_component(1, 2)
        finally:
            svc.close()

    def test_flush_waits_for_inflight_drained_batch(self):
        # The drained-but-still-applying window: the queue is empty yet
        # the batch has not committed.  flush() must not return early.
        svc = ConnectivityService(
            num_vertices=20,
            policy=BatchPolicy(max_batch_size=1, max_latency_s=3600.0),
        )
        try:
            inner = svc._apply_batch_inner
            entered = threading.Event()
            release = threading.Event()

            def slow(batch, span):
                entered.set()
                release.wait(5.0)
                return inner(batch, span)

            svc._apply_batch_inner = slow
            svc.add_edge(3, 4)  # size trigger drains it immediately
            assert entered.wait(2.0)
            assert svc.queue_depth == 0  # drained, still applying
            with pytest.raises(TimeoutError):
                svc.flush(timeout=0.05)
            release.set()
            svc.flush()
            assert svc.same_component(3, 4)
        finally:
            svc.close()

    def test_flush_no_pending_returns_immediately(self):
        svc = ConnectivityService(num_vertices=5)
        try:
            t0 = time.monotonic()
            svc.flush(timeout=5.0)
            assert time.monotonic() - t0 < 1.0
        finally:
            svc.close()
