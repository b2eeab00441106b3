"""Unit and property tests for the frontier-shrinking primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import frontier
from repro.core.ecl_cc_numpy import NumpyRunStats
from repro.core.ecl_cc_serial import ecl_cc_serial
from repro.core.frontier import (
    flatten_active,
    flatten_subset,
    hook_until_fixpoint,
    segment_min_hook,
    unique_pairs,
)
from repro.graph.build import from_edges


def _flatten_reference(parent):
    """Naive fixpoint flatten to compare the optimized paths against."""
    parent = parent.copy()
    while True:
        grandparent = parent[parent]
        if np.array_equal(grandparent, parent):
            return parent
        parent = grandparent


@st.composite
def parent_forests(draw, max_n=64):
    """Random parent arrays with parent[v] <= v: always a valid forest."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    vals = [draw(st.integers(min_value=0, max_value=v)) for v in range(n)]
    return np.asarray(vals, dtype=np.int64)


class TestUniquePairs:
    def test_empty(self):
        e = np.empty(0, dtype=np.int64)
        hi, lo = unique_pairs(e, e, 10)
        assert hi.size == 0 and lo.size == 0

    def test_dedup_and_order(self):
        hi = np.array([5, 3, 5, 3, 5], dtype=np.int64)
        lo = np.array([1, 2, 0, 2, 1], dtype=np.int64)
        out_hi, out_lo = unique_pairs(hi, lo, 6)
        assert out_hi.tolist() == [3, 5, 5]
        assert out_lo.tolist() == [2, 0, 1]

    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=80
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_set_semantics(self, pairs):
        hi = np.asarray([p[0] for p in pairs], dtype=np.int64)
        lo = np.asarray([p[1] for p in pairs], dtype=np.int64)
        out_hi, out_lo = unique_pairs(hi, lo, 31)
        got = list(zip(out_hi.tolist(), out_lo.tolist()))
        assert got == sorted(set(pairs))

    def test_lexsort_fallback_for_huge_n(self):
        # n past 2**31 exceeds the packed-key bit budget.
        hi = np.array([7, 2, 7, 2], dtype=np.int64)
        lo = np.array([1, 0, 1, 3], dtype=np.int64)
        out_hi, out_lo = unique_pairs(hi, lo, 2**40)
        assert list(zip(out_hi.tolist(), out_lo.tolist())) == [
            (2, 0),
            (2, 3),
            (7, 1),
        ]


class TestSegmentMinHook:
    def test_matches_minimum_at(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            m = int(rng.integers(0, 60))
            hi = rng.integers(0, n, size=m).astype(np.int64)
            lo = rng.integers(0, n, size=m).astype(np.int64)
            hi, lo = unique_pairs(hi, lo, n)
            expected = np.arange(n, dtype=np.int64)
            np.minimum.at(expected, hi, lo)
            parent = np.arange(n, dtype=np.int64)
            segment_min_hook(parent, hi, lo)
            assert np.array_equal(parent, expected)

    def test_returns_changed_targets_only(self):
        parent = np.arange(6, dtype=np.int64)
        parent[4] = 0  # already below any contender
        hi = np.array([4, 4, 5], dtype=np.int64)
        lo = np.array([1, 2, 3], dtype=np.int64)
        changed = segment_min_hook(parent, hi, lo)
        assert changed.tolist() == [5]
        assert parent[4] == 0 and parent[5] == 3

    def test_empty(self):
        parent = np.arange(3, dtype=np.int64)
        e = np.empty(0, dtype=np.int64)
        assert segment_min_hook(parent, e, e).size == 0
        assert parent.tolist() == [0, 1, 2]


class TestFlatten:
    @given(parent_forests())
    @settings(max_examples=100, deadline=None)
    def test_flatten_active_matches_reference(self, parent):
        expected = _flatten_reference(parent)
        got = parent.copy()
        flatten_active(got)
        assert np.array_equal(got, expected)

    @given(parent_forests())
    @settings(max_examples=100, deadline=None)
    def test_flatten_subset_full_index_matches_reference(self, parent):
        expected = _flatten_reference(parent)
        got = parent.copy()
        flatten_subset(got, np.arange(parent.size, dtype=np.int64))
        assert np.array_equal(got, expected)

    def test_already_flat_counts_zero_passes(self):
        class Stats:
            doubling_passes = 0

        parent = np.zeros(8, dtype=np.int64)
        stats = Stats()
        flatten_active(parent, stats)
        assert stats.doubling_passes == 0

    def test_long_chain_counts_log_passes(self):
        class Stats:
            doubling_passes = 0

        n = 1024
        parent = np.maximum(np.arange(n, dtype=np.int64) - 1, 0)
        stats = Stats()
        flatten_active(parent, stats)
        assert np.array_equal(parent, np.zeros(n, dtype=np.int64))
        # Pointer doubling: ~log2(n) passes, and only changing ones count.
        assert 1 <= stats.doubling_passes <= 12

    def test_empty(self):
        parent = np.empty(0, dtype=np.int64)
        assert flatten_active(parent).size == 0


class TestDegenerateInputs:
    """Edge cases that the numba ports must survive unchanged.

    Each helper is exercised both through normal dispatch and with the
    compiled tier explicitly suppressed, so whichever tier this test
    session runs under, the degenerate input hits both code paths.
    """

    def test_unique_pairs_empty_frontier(self):
        from repro.core import kernels

        for n in (0, 1, 2**35):  # packed-key and lexsort regimes
            e = np.empty(0, dtype=np.int64)
            with kernels.force_numpy():
                hi, lo = unique_pairs(e, e, n)
            assert hi.size == 0 and lo.size == 0
            hi, lo = unique_pairs(e, e, n)
            assert hi.size == 0 and lo.size == 0

    def test_flatten_subset_empty_idx(self):
        from repro.core import kernels

        parent = np.array([0, 0, 1], dtype=np.int64)
        idx = np.empty(0, dtype=np.int64)

        class Stats:
            doubling_passes = 0

        stats = Stats()
        with kernels.force_numpy():
            flatten_subset(parent, idx, stats)
        flatten_subset(parent, idx, stats)
        assert parent.tolist() == [0, 0, 1]  # untouched
        assert stats.doubling_passes == 0

    def test_flatten_active_already_flat(self):
        from repro.core import kernels

        parent = np.array([0, 0, 0, 3, 3], dtype=np.int64)

        class Stats:
            doubling_passes = 0

        stats = Stats()
        with kernels.force_numpy():
            out = flatten_active(parent.copy(), stats)
            assert out.tolist() == parent.tolist()
        out = flatten_active(parent.copy(), stats)
        assert out.tolist() == parent.tolist()
        assert stats.doubling_passes == 0


@st.composite
def forest_and_batch(draw, max_n=48):
    """A random non-flat decreasing forest plus a batch whose first-round
    live-pair count sits below, exactly at, or just past the dense
    cutoff (or anywhere, for ``"free"``).  The batch mixes live pairs
    (repeated to reach the target count), self-loops and pairs inside
    one tree, in a random order."""
    parent = draw(parent_forests(max_n).filter(lambda p: p.size >= 2))
    n = parent.size
    roots = _flatten_reference(parent)
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=1,
            max_size=3 * n,
        )
    )
    live = [(a, b) for a, b in pairs if roots[a] != roots[b]]
    dead = [(a, b) for a, b in pairs if roots[a] == roots[b]]
    mode = draw(st.sampled_from(["free", "below", "at", "above"]))
    if mode != "free" and live:
        cut = math.ceil(frontier.DENSE_PAIRS_PER_VERTEX * n)
        target = max(1, cut + {"below": -1, "at": 0, "above": 1}[mode])
        live = [live[i % len(live)] for i in range(target)]
    batch = live + dead + [(a, a) for a, _ in pairs[:3]]
    order = draw(st.permutations(range(len(batch))))
    batch = [batch[i] for i in order]
    u = np.asarray([a for a, _ in batch], dtype=np.int64)
    v = np.asarray([b for _, b in batch], dtype=np.int64)
    return parent, u, v


def _union_oracle(parent, u, v):
    """Serial-oracle labels of the forest's edges plus the batch."""
    n = parent.size
    edges = [(x, int(parent[x])) for x in range(n)]
    edges += list(zip(u.tolist(), v.tolist()))
    labels, _ = ecl_cc_serial(from_edges(edges, num_vertices=n))
    return labels


class TestHookUntilFixpoint:
    @given(forest_and_batch())
    @settings(max_examples=200, deadline=None)
    def test_matches_serial_oracle_of_the_union(self, case):
        parent, u, v = case
        expected = _union_oracle(parent, u, v)
        roots = _flatten_reference(parent)
        live = roots[u] != roots[v]
        distinct = {
            (max(a, b), min(a, b))
            for a, b in zip(roots[u][live].tolist(), roots[v][live].tolist())
        }
        got = parent.copy()
        stats = NumpyRunStats()
        hook_until_fixpoint(got, u, v, stats=stats)
        flatten_active(got)
        assert np.array_equal(got, expected)
        assert stats.frontier_sizes == sorted(stats.frontier_sizes, reverse=True)
        if not distinct:
            assert stats.hook_rounds == 0
        elif np.count_nonzero(live) >= frontier.DENSE_PAIRS_PER_VERTEX * parent.size:
            # Dense first round: no dedup, every live pair counted.
            assert stats.frontier_sizes[0] == np.count_nonzero(live)
        else:
            assert stats.frontier_sizes[0] == len(distinct)

    @given(forest_and_batch())
    @settings(max_examples=100, deadline=None)
    def test_flat_forest_may_skip_the_opening_flatten(self, case):
        parent, u, v = case
        flat = _flatten_reference(parent)
        expected = flat.copy()
        hook_until_fixpoint(expected, u, v)
        got = flat.copy()
        stats = NumpyRunStats()
        hooks = hook_until_fixpoint(got, u, v, flat=True, stats=stats)
        assert hooks == np.count_nonzero(flat == np.arange(flat.size)) - np.count_nonzero(
            got == np.arange(got.size)
        )
        assert np.array_equal(_flatten_reference(got), _flatten_reference(expected))
        assert stats.edges_scanned == u.size + sum(stats.frontier_sizes)

    @given(forest_and_batch())
    @settings(max_examples=200, deadline=None)
    def test_post_condition_no_pair_spans_two_trees(self, case):
        """What holds on return: every pair is inside one tree, and a
        flatten over the endpoints alone resolves them.  From a flat
        forest every hooked root is an endpoint, so one gather then
        yields the labels of the union."""
        parent, u, v = case
        flat = _flatten_reference(parent)
        got = flat.copy()
        hook_until_fixpoint(got, u, v, flat=True)
        roots = _flatten_reference(got)
        assert np.array_equal(roots[u], roots[v])
        ends = np.concatenate((u, v))
        flatten_subset(got, ends)
        assert np.array_equal(got[ends], roots[ends])
        assert np.array_equal(got[got], _union_oracle(parent, u, v))

    def test_endpoints_of_dead_pairs_may_point_at_interior_vertices(self):
        # Round 1 hooks 2 -> 0 and 3 -> 1, which kills (1, 3); round 2
        # hooks 1 -> 0, so endpoint 3 is left pointing at interior 1.
        parent = np.arange(4, dtype=np.int64)
        u, v = np.array([0, 1, 1]), np.array([2, 3, 2])
        assert hook_until_fixpoint(parent, u, v, flat=True) == 3
        assert parent.tolist() == [0, 0, 0, 1]
        flatten_subset(parent, np.concatenate((u, v)))
        assert parent.tolist() == [0, 0, 0, 0]

    def test_empty_batch_is_a_noop(self):
        parent = np.array([0, 0, 1, 3, 3, 4], dtype=np.int64)
        before = parent.copy()
        stats = NumpyRunStats()
        e = np.empty(0, dtype=np.int64)
        assert hook_until_fixpoint(parent, e, e, stats=stats) == 0
        assert np.array_equal(parent, before)
        assert stats == NumpyRunStats()

    @given(forest_and_batch())
    @settings(max_examples=100, deadline=None)
    def test_hook_count_is_the_drop_in_roots(self, case):
        parent, u, v = case
        ids = np.arange(parent.size)
        roots_before = np.count_nonzero(parent == ids)
        hooks = hook_until_fixpoint(parent, u, v)
        assert hooks == roots_before - np.count_nonzero(parent == ids)

    @given(forest_and_batch(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_hooked_batches_stay_hooked(self, case, data):
        """Trees only merge: once batch A and then batch B are each
        hooked to their fixpoint, no pair of A ∪ B spans two trees.  A
        further call on the union hooks nothing and leaves every root
        in place; it may only shorten paths.  This is why the
        out-of-core merge makes one pass over its boundary chunks."""
        parent, ua, va = case
        n = parent.size
        b = data.draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=3 * n,
            )
        )
        ub = np.asarray([x for x, _ in b], dtype=np.int64)
        vb = np.asarray([y for _, y in b], dtype=np.int64)
        hook_until_fixpoint(parent, ua, va)
        hook_until_fixpoint(parent, ub, vb)
        roots = _flatten_reference(parent)
        u, v = np.concatenate([ua, ub]), np.concatenate([va, vb])
        assert hook_until_fixpoint(parent, u, v) == 0
        assert np.array_equal(_flatten_reference(parent), roots)

    def test_both_regimes_in_one_call(self):
        # A shuffled path from the identity forest, its edges repeated
        # past the cutoff: the first round runs dense, and the small
        # frontiers left after it run sparse.
        n = 4096
        parent = np.arange(n, dtype=np.int64)
        perm = np.random.default_rng(3).permutation(n).astype(np.int64)
        reps = math.ceil(frontier.DENSE_PAIRS_PER_VERTEX * n / (n - 1))
        u, v = np.tile(perm[:-1], reps), np.tile(perm[1:], reps)
        stats = NumpyRunStats()
        assert hook_until_fixpoint(parent, u, v, stats=stats) == n - 1
        flatten_active(parent)
        assert not parent.any()
        assert stats.frontier_sizes[0] == reps * (n - 1)
        assert 0 < stats.frontier_sizes[1] < n - 1
