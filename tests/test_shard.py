"""Tests for the sharded multi-process backend (``repro.shard``).

Covers the partitioners, the per-graph shard export (reuse across
calls, release points, concurrent runs), bit-identity of the partition-then-merge pipeline
against the serial oracle (inline and real process pools), metamorphic
invariants (shard-count and vertex-permutation invariance), adversarial
partitions (all edges crossing, empty shards, isolated-vertex shards),
worker-crash recovery through the fault injector — including the
no-leaked-``/dev/shm``-segments regression check — and the lifecycle of
the process-wide worker pool (reuse, replacement after a killed worker,
stale attachments, clean interpreter exit).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import connected_components
from repro.errors import GraphValidationError
from repro.generators import load
from repro.graph.build import empty_graph, from_edges
from repro.observe import Tracer
from repro.resilience import FaultPlan, FaultSpec
from repro.shard import (
    PARTITIONERS,
    ShardPlan,
    ShardedExecutor,
    ShardedRunStats,
    export_segments,
    leaked_shared_segments,
    make_plan,
    merge_boundary,
    partition_degree,
    partition_range,
    release_exports,
    sharded_cc,
    shutdown_pool,
)
from repro.shard import runner
from repro.shard.worker import solve_csr_slice, solve_slice_all_arcs
from repro.verify import reference_labels
from repro.verify.metamorphic import permute_vertices

GRAPHS = ["2d-2e20.sym", "rmat16.sym", "USA-road-d.NY", "internet"]


def random_graph(rng, n_max=300):
    n = int(rng.integers(2, n_max))
    edges = rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2))
    return from_edges(edges, num_vertices=n)


# ----------------------------------------------------------------------
# Partitioners
# ----------------------------------------------------------------------
class TestPartitioners:
    def test_range_even_split(self):
        plan = partition_range(10, 4)
        assert plan.kind == "range"
        assert plan.starts.tolist() == [0, 3, 5, 8, 10]
        assert plan.num_shards == 4 and plan.num_vertices == 10
        assert plan.ranges() == [(0, 3), (3, 5), (5, 8), (8, 10)]

    def test_range_more_shards_than_vertices(self):
        plan = partition_range(2, 5)
        assert plan.starts[0] == 0 and plan.starts[-1] == 2
        assert sum(e - s for s, e in plan.ranges()) == 2  # covers, some empty

    def test_degree_balances_arcs(self):
        # A hub star plus a long path: equal-vertex splitting puts the
        # whole star (most arcs) in one shard; the degree partitioner
        # must cut by arc mass instead.
        edges = [(0, i) for i in range(1, 50)]  # hub 0, degree 49
        edges += [(i, i + 1) for i in range(50, 60)]
        g = from_edges(np.array(edges))
        plan = partition_degree(g, 2)
        assert plan.kind == "degree"
        arcs = [int(g.row_ptr[e] - g.row_ptr[s]) for s, e in plan.ranges()]
        assert max(arcs) < g.num_arcs  # the hub shard does not take all
        # Balanced within one row's degree of the ideal.
        assert abs(arcs[0] - arcs[1]) <= int(g.degrees().max())

    def test_degree_on_edgeless_graph_falls_back_to_range(self):
        g = empty_graph(8)
        plan = partition_degree(g, 3)
        assert plan.kind == "degree"
        assert plan.starts[-1] == 8

    def test_shard_of_vectorized(self):
        plan = partition_range(10, 4)
        got = plan.shard_of(np.arange(10))
        assert got.tolist() == [0, 0, 0, 1, 1, 2, 2, 2, 3, 3]

    def test_plan_validation(self):
        with pytest.raises(GraphValidationError, match="must be 0"):
            ShardPlan(np.array([1, 5]))
        with pytest.raises(GraphValidationError, match="non-decreasing"):
            ShardPlan(np.array([0, 5, 3]))
        with pytest.raises(GraphValidationError, match="at least 2"):
            ShardPlan(np.array([0]))

    def test_make_plan_dispatch_and_custom_plan(self, two_cliques):
        assert make_plan(two_cliques, 2, "range").kind == "range"
        assert make_plan(two_cliques, 2, "degree").kind == "degree"
        custom = ShardPlan(np.array([0, 4, two_cliques.num_vertices]))
        assert make_plan(two_cliques, 99, custom) is custom
        with pytest.raises(ValueError, match="unknown partitioner"):
            make_plan(two_cliques, 2, "metis")
        wrong = ShardPlan(np.array([0, 3]))
        with pytest.raises(GraphValidationError, match="covers"):
            make_plan(two_cliques, 2, wrong)

    def test_registry(self):
        assert set(PARTITIONERS) == {"range", "degree"}


# ----------------------------------------------------------------------
# Local shard solve + boundary merge building blocks
# ----------------------------------------------------------------------
class TestLocalSolve:
    @staticmethod
    def _slices(g, start, end):
        rp = g.row_ptr[start : end + 1]
        return rp, g.col_idx[int(rp[0]) : int(rp[-1])]

    def test_whole_graph_as_one_shard(self):
        g = load("2d-2e20.sym", "tiny")
        n = g.num_vertices
        labels, bu, bv = solve_csr_slice(*self._slices(g, 0, n), 0, n)
        assert np.array_equal(labels, reference_labels(g))
        assert bu.size == 0 and bv.size == 0

    def test_boundary_arcs_emitted_once(self):
        # Path 0-1-2-3 split at 2: the crossing edge (1,2) must appear
        # exactly once across the two shards (owned by min endpoint).
        g = from_edges(np.array([(0, 1), (1, 2), (2, 3)]))
        _, bu0, bv0 = solve_csr_slice(*self._slices(g, 0, 2), 0, 2)
        _, bu1, bv1 = solve_csr_slice(*self._slices(g, 2, 4), 2, 4)
        pairs = list(zip(bu0.tolist(), bv0.tolist())) + list(
            zip(bu1.tolist(), bv1.tolist())
        )
        assert pairs == [(1, 2)]

    def test_empty_shard(self):
        g = load("rmat16.sym", "tiny")
        labels, bu, bv = solve_csr_slice(*self._slices(g, 5, 5), 5, 5)
        assert labels.size == 0 and bu.size == 0 and bv.size == 0

    @staticmethod
    def _searchsorted_cross(rp, cols, start, end):
        """The boundary formula before the row-expansion rewrite: every
        arc leaving the shard, its source found by binary search."""
        base = int(rp[0])
        out_idx = np.flatnonzero(~((cols >= start) & (cols < end)))
        bu = np.searchsorted(rp, out_idx + base, side="right") - 1 + start
        return bu, cols[out_idx]

    @given(
        n=st.integers(1, 40),
        edges=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=80),
        cut=st.tuples(st.integers(0, 40), st.integers(0, 40)),
    )
    @settings(max_examples=150, deadline=None)
    def test_cross_arcs_match_searchsorted_formula(self, n, edges, cut):
        # Vertices past the last edge endpoint give empty rows.
        g = from_edges([(u, v) for u, v in edges if u < n and v < n], num_vertices=n)
        start, end = sorted(min(c, n) for c in cut)
        with tempfile.TemporaryDirectory() as tmp:
            mapped = []
            for arr, fname in ((g.row_ptr, "rp"), (g.col_idx, "cols")):
                mm = np.memmap(os.path.join(tmp, fname), dtype=arr.dtype,
                               mode="w+", shape=max(arr.size, 1))
                mm[: arr.size] = arr
                mapped.append(mm[: arr.size])
            # The shard under test, an empty shard, and the whole graph
            # (a shard with no arcs leaving it), on in-memory arrays and
            # on np.memmap views alike.
            for lo, hi in ((start, end), (start, start), (0, n)):
                for row_ptr, col_idx in ((g.row_ptr, g.col_idx), mapped):
                    rp = row_ptr[lo : hi + 1]
                    cols = col_idx[int(rp[0]) : int(rp[-1])]
                    labels, bu, bv = solve_slice_all_arcs(rp, cols, lo, hi)
                    want_u, want_v = self._searchsorted_cross(rp, cols, lo, hi)
                    assert bu.tolist() == want_u.tolist()
                    assert bv.tolist() == want_v.tolist()
                    assert type(bu) is np.ndarray and type(bv) is np.ndarray
                    low, lu, lv = solve_csr_slice(rp, cols, lo, hi)
                    keep = want_u < want_v
                    assert lu.tolist() == want_u[keep].tolist()
                    assert lv.tolist() == want_v[keep].tolist()
                    assert np.array_equal(low, labels)
            del mapped, mm

    def test_merge_boundary_resolves_global_minimum(self):
        # Two shard-local components joined by one crossing edge.
        labels = np.array([0, 0, 2, 2], dtype=np.int64)
        merged = merge_boundary(labels, np.array([1]), np.array([2]))
        assert merged.tolist() == [0, 0, 0, 0]

    def test_merge_boundary_chain_across_many_shards(self):
        # K singleton "shards" chained 0-1-2-...-9: merge must converge
        # to the global minimum even though each hook only sees roots.
        n = 10
        labels = np.arange(n, dtype=np.int64)
        bu = np.arange(n - 1)
        bv = np.arange(1, n)
        assert merge_boundary(labels, bu, bv).tolist() == [0] * n


# ----------------------------------------------------------------------
# The boundary merge on its own
# ----------------------------------------------------------------------
@st.composite
def graph_and_plan(draw):
    """A random graph plus a plan: a K-shard range split (K in 1, 2, 4,
    7), arbitrary cuts with empty shards, or singleton shards, under
    which every edge crosses."""
    n = draw(st.integers(1, 40))
    edges = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n)
    )
    g = from_edges(np.asarray(edges, dtype=np.int64).reshape(-1, 2), num_vertices=n)
    kind = draw(st.sampled_from(["range", "cuts", "singletons"]))
    if kind == "range":
        plan = make_plan(g, draw(st.sampled_from([1, 2, 4, 7])), "range")
    elif kind == "cuts":
        cuts = draw(st.lists(st.integers(0, n), min_size=1, max_size=8))
        plan = ShardPlan(np.asarray([0, *sorted(cuts), n]))
    else:
        plan = ShardPlan(np.arange(n + 1))
    return g, plan


def _local_solve(g, plan):
    """Shard-local min-member labels and the boundary arcs, as the
    sharded backend's workers produce them."""
    labels, bu, bv = [], [], []
    for s, e in plan.ranges():
        rp = g.row_ptr[s : e + 1]
        lab, u, v = solve_csr_slice(rp, g.col_idx[int(rp[0]) : int(rp[-1])], s, e)
        labels.append(lab)
        bu.append(u)
        bv.append(v)
    return tuple(np.concatenate(a).astype(np.int64) for a in (labels, bu, bv))


class TestMergeBoundary:
    @given(graph_and_plan())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_labels(self, case):
        g, plan = case
        labels, bu, bv = _local_solve(g, plan)
        pairs = set(zip(labels[bu].tolist(), labels[bv].tolist()))
        stats = ShardedRunStats()
        assert np.array_equal(merge_boundary(labels, bu, bv, stats), reference_labels(g))
        assert stats.merge_pairs == len(pairs) <= bu.size

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_any_flat_labels_and_arc_orientation(self, data):
        # Flat labels that need not come from a local solve (any
        # vertex-to-smaller-root map), and arcs drawn in either
        # orientation: the result is the components of the union.
        n = data.draw(st.integers(1, 40))
        roots = np.empty(n, dtype=np.int64)
        for x in range(n):
            r = data.draw(st.integers(0, x))
            roots[x] = roots[r] if r < x else x
        arcs = data.draw(
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n)
        )
        u = np.asarray([a for a, _ in arcs], dtype=np.int64)
        v = np.asarray([b for _, b in arcs], dtype=np.int64)
        edges = np.concatenate(
            [np.stack([np.arange(n), roots], axis=1), np.stack([u, v], axis=1)]
        )
        want = reference_labels(from_edges(edges, num_vertices=n))
        assert np.array_equal(merge_boundary(roots.copy(), u, v), want)

    def test_seven_shard_chain_needs_the_endpoint_flatten(self):
        # The path 1-6-2-4-3-5-0 over seven singleton shards.  Its hooks
        # leave endpoint 3 two hops from the root, so resolving labels
        # with one gather and no flatten of the endpoints gives vertex 4
        # label 1.
        path = [1, 6, 2, 4, 3, 5, 0]
        g = from_edges(np.array(list(zip(path, path[1:]))), num_vertices=7)
        labels, bu, bv = _local_solve(g, make_plan(g, 7, "range"))
        assert labels.tolist() == list(range(7))
        assert merge_boundary(labels, bu, bv).tolist() == [0] * 7
        res = connected_components(g, backend="sharded", workers=7)
        assert res.labels.tolist() == [0] * 7

    def test_merge_pairs_counts_distinct_label_pairs(self):
        # Two 4-cliques joined by five edges, all between local labels
        # 0 and 4, plus a third shard {8, 9} reached from both: eight
        # boundary edges, three distinct label pairs.
        edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
        edges += [(a + 4, b + 4) for a, b in edges]
        edges += [(0, 4), (1, 5), (2, 6), (3, 7), (0, 5), (8, 9), (3, 8), (2, 9), (7, 9)]
        g = from_edges(np.array(edges))
        plan = ShardPlan(np.array([0, 4, 8, 10]))
        with Tracer() as t:
            res = connected_components(g, backend="sharded", partitioner=plan)
        assert res.labels.tolist() == [0] * 10
        assert (res.stats.boundary_edges, res.stats.merge_pairs) == (8, 3)
        (merge,) = t.find_spans(name="shard:merge")
        assert merge.attrs["label_pairs"] == 3
        assert ("shard.merge_pairs", 3.0) in {(g_[1], g_[2]) for g_ in t.gauges}


# ----------------------------------------------------------------------
# Bit-identity: differential + metamorphic
# ----------------------------------------------------------------------
class TestBitIdentity:
    @pytest.mark.parametrize("name", GRAPHS)
    @pytest.mark.parametrize("partitioner", ["range", "degree"])
    def test_matches_serial_on_suite(self, name, partitioner):
        g = load(name, "tiny")
        expected = reference_labels(g)
        for k in (1, 2, 4, 7):
            res = connected_components(
                g, backend="sharded", workers=k, partitioner=partitioner
            )
            assert np.array_equal(res.labels, expected), (name, partitioner, k)

    def test_shard_count_invariance_random(self):
        # Metamorphic: the labeling is invariant under K — all K produce
        # the identical (canonical min-member) array.
        rng = np.random.default_rng(7)
        for _ in range(10):
            g = random_graph(rng)
            runs = [
                connected_components(
                    g, backend="sharded", workers=k, full_result=False
                )
                for k in (1, 2, 4, 7)
            ]
            for other in runs[1:]:
                assert np.array_equal(runs[0], other)
            assert np.array_equal(runs[0], reference_labels(g))

    def test_vertex_permutation_invariance(self):
        # Metamorphic: relabeling vertices by a permutation and solving
        # sharded yields a partition equivalent to the original's — u, v
        # share a component iff perm[u], perm[v] do.  Since every
        # labeling here is canonical min-member, it is enough to check
        # the permuted graph's sharded labels against the oracle and
        # that component sizes are preserved.
        rng = np.random.default_rng(11)
        for _ in range(5):
            g = random_graph(rng)
            perm = rng.permutation(g.num_vertices)
            pg = permute_vertices(g, perm)
            base = connected_components(
                g, backend="sharded", workers=3, full_result=False
            )
            permuted = connected_components(
                pg, backend="sharded", workers=3, full_result=False
            )
            assert np.array_equal(permuted, reference_labels(pg))
            assert np.array_equal(
                np.sort(np.unique(base, return_counts=True)[1]),
                np.sort(np.unique(permuted, return_counts=True)[1]),
            )

    def test_empty_and_single_vertex(self):
        assert sharded_cc(empty_graph(0), workers=2).labels.size == 0
        assert sharded_cc(empty_graph(1), workers=2).labels.tolist() == [0]


# ----------------------------------------------------------------------
# Adversarial partitions
# ----------------------------------------------------------------------
class TestAdversarialPartitions:
    def test_all_edges_crossing(self):
        # Complete bipartite graph between even and odd halves, split so
        # every single edge crosses the shard boundary: local solves see
        # only singletons and the merge does all the work.
        lo = np.arange(0, 8)
        hi = np.arange(8, 16)
        edges = np.array([(a, b) for a in lo for b in hi])
        g = from_edges(edges)
        plan = ShardPlan(np.array([0, 8, 16]))
        res = connected_components(g, backend="sharded", partitioner=plan)
        assert res.stats.boundary_edges == 64
        assert np.array_equal(res.labels, reference_labels(g))

    def test_empty_shards(self):
        # More shards than vertices: the trailing shards are empty.
        g = from_edges(np.array([(0, 1), (1, 2)]))
        res = connected_components(g, backend="sharded", workers=7)
        assert res.stats.num_shards == 7
        assert np.array_equal(res.labels, reference_labels(g))
        # And an explicitly degenerate plan with interior empty shards.
        plan = ShardPlan(np.array([0, 1, 1, 1, 3, 3, 3]))
        res = connected_components(g, backend="sharded", partitioner=plan)
        assert np.array_equal(res.labels, reference_labels(g))

    def test_isolated_vertex_shards(self):
        # Isolated vertices sharded alone must stay their own
        # components and not be absorbed by the merge.
        edges = np.array([(0, 1), (4, 5)])
        g = from_edges(edges, num_vertices=8)  # 2, 3, 6, 7 isolated
        plan = ShardPlan(np.array([0, 2, 3, 4, 6, 7, 8]))
        res = connected_components(g, backend="sharded", partitioner=plan)
        assert np.array_equal(res.labels, reference_labels(g))
        assert res.labels[2] == 2 and res.labels[7] == 7


# ----------------------------------------------------------------------
# Real process pools
# ----------------------------------------------------------------------
class TestProcessPool:
    def test_bit_identity_with_processes(self):
        g = load("2d-2e20.sym", "tiny")
        res = connected_components(
            g, backend="sharded", workers=3, force_processes=True
        )
        assert res.stats.mode == "processes"
        assert np.array_equal(res.labels, reference_labels(g))
        # A one-shot call keeps the export; its segment is the only one.
        assert leaked_shared_segments() == export_segments() != []
        release_exports()
        assert leaked_shared_segments() == []

    def test_executor_reuse_is_stable(self):
        g = load("rmat16.sym", "tiny")
        expected = reference_labels(g)
        with ShardedExecutor(g, workers=2, force_processes=True) as ex:
            for _ in range(3):
                assert np.array_equal(ex.run().labels, expected)
        assert leaked_shared_segments() == []

    def test_inline_below_min_parallel(self):
        g = load("rmat16.sym", "tiny")
        res = connected_components(g, backend="sharded", workers=4)
        assert res.stats.mode == "inline"  # tiny graphs never fork

    def test_spans_and_gauges(self):
        g = load("rmat16.sym", "tiny")
        traces = []
        for _ in range(2):
            with Tracer() as t:
                res = connected_components(
                    g, backend="sharded", workers=2, force_processes=True
                )
            traces.append((t, res.stats.export_reused))
        (cold, cold_reused), (t, reused) = traces
        assert (cold_reused, reused) == (False, True)
        # The first call builds the export in the parent: one slice and
        # one boundary pass per shard, under shard:export.
        export = [s for s in cold.spans if s.name == "shard:export"]
        assert [s.attrs["reused"] for s in export] == [False]
        cold_names = [s.name for s in cold.spans if s.parent == export[0].index]
        assert sorted(cold_names) == ["shard:boundary"] * 2 + ["shard:slice"] * 2

        # The second call only hooks: no slice, boundary or export work.
        names = [s.name for s in t.spans]
        assert "shard:partition" in names
        assert names.count("shard:worker") == 2
        assert "shard:merge" in names
        assert "shard:slice" not in names and "shard:boundary" not in names
        export = [s for s in t.spans if s.name == "shard:export"]
        assert [s.attrs["reused"] for s in export] == [True]
        assert not [s for s in t.spans if s.parent == export[0].index]
        # Child-process spans are folded under the worker spans: the
        # local solve and nothing around it.
        workers = [s for s in t.spans if s.name == "shard:worker"]
        for w in workers:
            folded = [s for s in t.spans if s.parent == w.index]
            assert [s.name for s in folded] == ["shard:solve"]
            inner = [s.name for s in t.spans if s.parent == folded[0].index]
            assert inner[0].startswith("cc:")
        assert sorted(w.attrs["boundary"] for w in workers) == sorted(
            res.stats.shard_boundary
        )
        # The parent's shared-memory transport: the label copy-out only.
        root = t.spans[0]
        transport = [s for s in t.spans if s.name == "shard:transport"]
        assert [s.attrs["stage"] for s in transport] == ["collect"]
        assert all(s.parent == root.index for s in transport)
        gauge_names = {g_[1] for g_ in t.gauges}
        assert {"shard.vertices.0", "shard.arcs.1", "shard.boundary.0",
                "shard.boundary_edges"} <= gauge_names

    def test_inline_runs_record_slice_and_boundary(self, two_cliques):
        with Tracer() as t:
            connected_components(two_cliques, backend="sharded", workers=2)
        names = [s.name for s in t.spans]
        assert names.count("shard:slice") == names.count("shard:boundary") == 2
        assert "shard:transport" not in names  # no segments inline

    def test_export_shared_across_with_name_copies(self):
        g = load("2d-2e20.sym", "tiny")
        first = sharded_cc(g, workers=2, force_processes=True)
        again = sharded_cc(g.with_name("copy"), workers=2, force_processes=True)
        other_plan = sharded_cc(g, workers=3, force_processes=True)
        assert (first.stats.export_reused, again.stats.export_reused) == (False, True)
        assert other_plan.stats.export_reused is False
        assert len(export_segments()) == 2
        expected = reference_labels(g)
        for res in (first, again, other_plan):
            assert np.array_equal(res.labels, expected)

    def test_dropping_the_graph_frees_its_segment(self):
        rng = np.random.default_rng(3)
        g = from_edges(rng.integers(0, 500, size=(2_000, 2)), num_vertices=500)
        sharded_cc(g, workers=2, force_processes=True)
        assert len(export_segments()) == 1
        del g
        assert export_segments() == leaked_shared_segments() == []

    def test_graph_pickles_without_its_export(self):
        import pickle

        g = load("rmat16.sym", "tiny")
        sharded_cc(g, workers=2, force_processes=True)
        back = pickle.loads(pickle.dumps(g))
        assert back._derived == {} and back.name == g.name
        assert np.array_equal(back.col_idx, g.col_idx)
        assert not back.col_idx.flags.writeable

    def test_release_then_rerun_exports_again(self):
        g = load("rmat16.sym", "tiny")
        sharded_cc(g, workers=2, force_processes=True)
        (name,) = export_segments()
        shutdown_pool()  # a release point too
        assert leaked_shared_segments() == []
        res = sharded_cc(g, workers=2, force_processes=True)
        assert res.stats.export_reused is False
        assert export_segments() != [name]
        assert np.array_equal(res.labels, reference_labels(g))

    def test_concurrent_runs_on_one_graph(self):
        # Three threads (more than this suite's CPUs) share one cached
        # export, and one of them releases it between its runs: each run
        # must hold the export (its label region and its segment) for
        # its whole length.
        import threading

        g = load("rmat16.sym", "tiny")
        expected = reference_labels(g)
        sharded_cc(g, workers=2, force_processes=True)  # build the export
        results, errors = [], []

        def solve(release: bool):
            try:
                for _ in range(6):
                    res = sharded_cc(g, workers=2, force_processes=True)
                    results.append((res.labels, res.recovery))
                    if release:
                        release_exports()
            except Exception as exc:  # reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=solve, args=(r,)) for r in (False, False, True)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
                assert not th.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert len(results) == 18
        for labels, recovery in results:
            assert np.array_equal(labels, expected)
            assert recovery is None  # no worker ever found its segment gone

    def test_invalid_options(self, two_cliques):
        with pytest.raises(ValueError, match="workers"):
            sharded_cc(two_cliques, workers=0)


# ----------------------------------------------------------------------
# Worker crashes: resilience semantics + shm cleanup regression
# ----------------------------------------------------------------------
class TestWorkerCrashRecovery:
    def plan(self, attempt, shard=0):
        return FaultPlan(
            faults=[
                FaultSpec(
                    kind="worker_crash",
                    backend="sharded",
                    attempt=attempt,
                    at=shard,
                )
            ]
        )

    def test_transient_crash_retries(self):
        g = load("rmat16.sym", "tiny")
        res = connected_components(
            g,
            backend="sharded",
            workers=3,
            force_processes=True,
            fault_plan=self.plan(attempt=0, shard=1),
        )
        assert np.array_equal(res.labels, reference_labels(g))
        assert res.recovery is not None
        assert res.recovery.retries == 1 and res.recovery.fallbacks == 0
        kinds = [a.error_kind for a in res.recovery.attempts if a.status == "fault"]
        assert kinds == ["worker_crash"]

    def test_persistent_crash_falls_back_inline(self):
        g = load("rmat16.sym", "tiny")
        res = connected_components(
            g,
            backend="sharded",
            workers=2,
            force_processes=True,
            fault_plan=self.plan(attempt=-1),  # crashes every attempt
        )
        assert np.array_equal(res.labels, reference_labels(g))
        assert res.recovery.retries == 1 and res.recovery.fallbacks == 1
        final = res.recovery.attempts[-1]
        assert final.status == "ok" and final.resumed  # inline recompute

    def test_clean_run_has_no_recovery(self):
        g = load("rmat16.sym", "tiny")
        res = connected_components(
            g, backend="sharded", workers=2, force_processes=True
        )
        assert res.recovery is None

    def test_no_leaked_segments_after_crashes(self):
        # Regression: a crashed worker must not leave /dev/shm segments
        # behind — the runs share the graph's one export, freed at its
        # release point.
        g = load("rmat16.sym", "tiny")
        for _ in range(3):
            connected_components(
                g,
                backend="sharded",
                workers=2,
                force_processes=True,
                fault_plan=self.plan(attempt=-1),
            )
        assert len(export_segments()) == 1
        release_exports()
        assert leaked_shared_segments() == []

    def test_crash_counter_visible_in_trace(self):
        from repro.observe import Tracer

        g = load("rmat16.sym", "tiny")
        with Tracer() as t:
            connected_components(
                g,
                backend="sharded",
                workers=2,
                force_processes=True,
                fault_plan=self.plan(attempt=0),
            )
        assert t.counters.get("shard.worker_faults") == 1


# ----------------------------------------------------------------------
# The process-wide worker pool
# ----------------------------------------------------------------------
def _cached_attachments() -> int:
    """Pool probe: shared-memory mappings the worker still holds."""
    from repro.shard import worker

    return len(worker._ATTACHMENTS)


def _worker_pids(workers=2, **options) -> tuple[object, list[int]]:
    g = load("rmat16.sym", "tiny")
    with Tracer() as t:
        res = connected_components(
            g, backend="sharded", workers=workers, force_processes=True,
            **options,
        )
    assert np.array_equal(res.labels, reference_labels(g))
    return res, [s.attrs["pid"] for s in t.spans if s.name == "shard:worker"]


class TestWarmPool:
    def test_consecutive_calls_reuse_workers(self):
        _, first = _worker_pids(workers=1)
        pool = runner._POOL
        _, second = _worker_pids(workers=1)
        assert runner._POOL is pool
        assert first == second
        # With two workers the pool may still grow, but no worker of the
        # first call has exited.
        _, first = _worker_pids()
        _, second = _worker_pids()
        assert all(_alive(p) for p in first + second)

    def test_killed_worker_gets_a_fresh_pool(self):
        _, pids = _worker_pids()
        pool = runner._POOL
        os.kill(pids[0], signal.SIGKILL)
        deadline = time.monotonic() + 30
        while not pool._broken:  # the pool's manager thread notices
            assert time.monotonic() < deadline, "pool never saw the kill"
            time.sleep(0.01)
        res, fresh = _worker_pids()
        assert res.recovery is None
        assert runner._POOL is not pool
        assert pids[0] not in fresh

    def test_new_key_replaces_pool(self):
        _worker_pids()
        res, _ = _worker_pids(start_method="spawn")
        assert res.stats.start_method == "spawn"
        assert runner._POOL_KEY == (2, "spawn")
        res, _ = _worker_pids()
        assert res.stats.start_method == runner.DEFAULT_START_METHOD

    def test_run_borrows_again_when_its_pool_was_replaced(self, monkeypatch):
        # Another run may replace the shared pool between this run's
        # borrow and its submits.
        from concurrent.futures import ProcessPoolExecutor

        stale = ProcessPoolExecutor(1)
        stale.shutdown()
        borrow, handed = runner._borrow_pool, []

        def borrow_stale_first(*key):
            if handed:
                return borrow(*key)
            handed.append(stale)
            return stale

        monkeypatch.setattr(runner, "_borrow_pool", borrow_stale_first)
        res, _ = _worker_pids()
        assert res.recovery is None and handed == [stale]

    def test_worker_holds_only_the_current_runs_segments(self):
        # One worker, so every task and the probe land on the same one.
        for name in ("rmat16.sym", "2d-2e20.sym", "internet"):
            g = load(name, "tiny")
            sharded_cc(g, workers=1, force_processes=True)
        pool = runner._borrow_pool(1, runner.DEFAULT_START_METHOD)
        assert pool.submit(_cached_attachments).result() <= 2

    def test_shutdown_is_idempotent_and_pool_restarts(self):
        _worker_pids()
        shutdown_pool()
        shutdown_pool()
        assert runner._POOL is None
        _worker_pids()
        assert runner._POOL is not None

    def test_forked_child_drops_the_pool_handle(self):
        _worker_pids()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - child
            os._exit(0 if runner._POOL is None else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert runner._POOL is not None

    def test_process_exit_is_clean(self, tmp_path):
        # The child runs its exit handlers early so it can report on
        # them: the workers and the forkserver must be gone as soon as
        # the handlers return, not merely some time after the exit.
        code, out, err, pids = _run_child(
            tmp_path,
            "atexit._run_exitfuncs()\n"
            "print(json.dumps([p for p in pids if os.path.exists(f'/proc/{p}')]))\n",
        )
        assert code == 0, err
        assert err == ""
        assert json.loads(out.splitlines()[-1]) == []
        assert _survivors(pids, wait_s=0) == []

    def test_killed_parent_takes_its_workers_along(self, tmp_path):
        code, _, _, pids = _run_child(
            tmp_path, "os.kill(os.getpid(), signal.SIGKILL)\n"
        )
        assert code == -signal.SIGKILL
        assert _survivors(pids, wait_s=30) == []


def _run_child(tmp_path, tail: str):
    """Run one process-mode call in a fresh interpreter, then ``tail``.

    Returns ``(exit code, stdout, stderr, pids)``, the pids being those
    of the pool workers and the forkserver, printed before ``tail``
    runs.  Output goes through files, not pipes, so a worker that
    outlives the child cannot hold the call open.
    """
    import repro

    script = (
        "import atexit, json, os, signal\n"
        "from multiprocessing import forkserver\n"
        "from repro import connected_components\n"
        "from repro.generators import load\n"
        "from repro.observe import Tracer\n"
        "g = load('rmat16.sym', 'tiny')\n"
        "with Tracer() as t:\n"
        "    connected_components(g, backend='sharded', workers=2,\n"
        "                         force_processes=True)\n"
        "pids = [s.attrs['pid'] for s in t.spans if s.name == 'shard:worker']\n"
        "pids.append(forkserver._forkserver._forkserver_pid)\n"
        "print(json.dumps(pids), flush=True)\n"
    ) + tail
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out, err = tmp_path / "out", tmp_path / "err"
    with open(out, "w") as fo, open(err, "w") as fe:
        code = subprocess.run(
            [sys.executable, "-c", script], env=env, stdout=fo, stderr=fe,
            timeout=120,
        ).returncode
    out, err = out.read_text(), err.read_text()
    pids = json.loads(out.splitlines()[0])
    assert len(pids) == 3 and all(pids)
    return code, out, err, pids


def _survivors(pids, wait_s: float) -> list[int]:
    """Pids still running after up to ``wait_s`` seconds; any found are
    killed so a failing test leaves nothing behind."""
    deadline = time.monotonic() + wait_s
    while (alive := [p for p in pids if _alive(p)]) and time.monotonic() < deadline:
        time.sleep(0.05)
    for p in alive:
        os.kill(p, signal.SIGKILL)
    return alive


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state not in ("Z", "X")
