"""Unit tests for the graph builders (the paper's §4 preprocessing)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import GraphFormatError
from repro.graph.build import (
    empty_graph,
    from_adjacency,
    from_arc_arrays,
    from_edges,
    relabel_compact,
)
from repro.graph.validate import validate_undirected
from repro.service import EdgeStore


def _reference_csr(src, dst, n):
    """``(row_ptr, col_idx)`` of the sorted set ``{(u, v), (v, u)}`` over
    the non-loop arcs, built with plain Python."""
    arcs = sorted(
        {pair for u, v in zip(src, dst) if u != v for pair in ((u, v), (v, u))}
    )
    row_ptr = [0] * (n + 1)
    for u, _ in arcs:
        row_ptr[u + 1] += 1
    for i in range(n):
        row_ptr[i + 1] += row_ptr[i]
    return row_ptr, [v for _, v in arcs]


def _assert_matches_reference(g, src, dst, n):
    row_ptr, col_idx = _reference_csr(src, dst, n)
    assert g.row_ptr.dtype == np.int64 and g.col_idx.dtype == np.int64
    assert g.row_ptr.tolist() == row_ptr
    assert g.col_idx.tolist() == col_idx
    assert g.has_sorted_adjacency()


@st.composite
def _arc_lists(draw):
    """Arc lists with duplicates in both directions, all-loop lists,
    ``n`` in {0, 1}, and optional ``num_vertices`` slack."""
    n_ids = draw(st.integers(0, 12))
    ids = st.integers(0, max(n_ids - 1, 0))
    pairs = draw(st.lists(st.tuples(ids, ids), max_size=40)) if n_ids else []
    if pairs:
        # Re-emit drawn arcs, some reversed, so duplicates arrive both ways.
        again = draw(st.lists(st.tuples(st.sampled_from(pairs), st.booleans())))
        pairs += [(b, a) if flip else (a, b) for (a, b), flip in again]
        pairs = draw(st.permutations(pairs))
        if draw(st.booleans()):
            pairs = [(a, a) for a, _ in pairs]
    slack = draw(st.one_of(st.none(), st.integers(0, 5)))
    return pairs, slack


class TestFromEdges:
    def test_drops_self_loops(self):
        g = from_edges([(0, 0), (0, 1), (1, 1)])
        assert g.num_edges == 1

    def test_merges_duplicates(self):
        g = from_edges([(0, 1), (0, 1), (1, 0)])
        assert g.num_edges == 1
        assert g.num_arcs == 2

    def test_adds_back_edges(self):
        g = from_edges([(0, 1)])
        assert 0 in g.neighbors(1)
        assert 1 in g.neighbors(0)

    def test_result_is_valid_undirected(self):
        g = from_edges([(0, 1), (1, 2), (2, 0), (2, 2), (0, 1)])
        validate_undirected(g)

    def test_num_vertices_includes_isolated(self):
        g = from_edges([(0, 1)], num_vertices=5)
        assert g.num_vertices == 5
        assert g.degree(4) == 0

    def test_num_vertices_too_small_rejected(self):
        with pytest.raises(GraphFormatError):
            from_edges([(0, 9)], num_vertices=5)

    def test_empty_edge_list(self):
        g = from_edges([], num_vertices=3)
        assert g.num_vertices == 3
        assert g.num_edges == 0

    def test_negative_ids_rejected(self):
        with pytest.raises(GraphFormatError):
            from_edges([(-1, 0)])

    def test_malformed_shape_rejected(self):
        with pytest.raises(GraphFormatError):
            from_edges(np.array([1, 2, 3]))

    def test_accepts_ndarray(self):
        g = from_edges(np.array([[0, 1], [1, 2]]))
        assert g.num_edges == 2


class TestFromArcArrays:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(GraphFormatError):
            from_arc_arrays(np.array([0, 1]), np.array([1]))

    def test_directed_input_symmetrized(self):
        g = from_arc_arrays(np.array([0, 1, 2]), np.array([1, 2, 0]))
        validate_undirected(g)
        assert g.num_edges == 3

    def test_dedup_across_directions(self):
        # (0,1) given in both directions must produce exactly one edge.
        g = from_arc_arrays(np.array([0, 1]), np.array([1, 0]))
        assert g.num_edges == 1

    @pytest.mark.parametrize(
        "src, dst, num_vertices",
        [([-1], [0], None), ([2], [-1], None), ([0], [-1], 4), ([0], [-3], None)],
    )
    def test_negative_ids_rejected(self, src, dst, num_vertices):
        with pytest.raises(GraphFormatError, match="non-negative"):
            from_arc_arrays(np.array(src), np.array(dst), num_vertices)

    @settings(max_examples=200, deadline=None)
    @given(_arc_lists())
    @example(([], None))
    @example(([], 1))
    @example(([(0, 0)], None))
    @example(([(0, 0), (0, 0)], 3))
    def test_matches_reference(self, case):
        pairs, slack = case
        src = [a for a, _ in pairs]
        dst = [b for _, b in pairs]
        n_seen = max(src + dst, default=-1) + 1
        num_vertices = None if slack is None else n_seen + slack
        g = from_arc_arrays(
            np.array(src, dtype=np.int64),
            np.array(dst, dtype=np.int64),
            num_vertices,
        )
        n = n_seen if num_vertices is None else num_vertices
        assert g.num_vertices == n
        _assert_matches_reference(g, src, dst, n)

    def test_edge_store_to_graph_matches_live_set(self):
        # Shuffled inserts (both orientations, duplicates), tombstones,
        # compaction and re-inserts: to_graph() must equal from_edges of
        # the live edge set and the plain-Python reference.
        rng = np.random.default_rng(5)
        n = 40
        u = rng.integers(0, n, 300)
        v = rng.integers(0, n, 300)
        store = EdgeStore(n)
        live: set[tuple[int, int]] = set()

        def canon(idx):
            return {(min(a, b), max(a, b)) for a, b in zip(u[idx], v[idx]) if a != b}

        def check():
            edges = sorted(live)
            g = store.to_graph()
            ref = from_edges(edges, num_vertices=n)
            assert np.array_equal(g.row_ptr, ref.row_ptr)
            assert np.array_equal(g.col_idx, ref.col_idx)
            _assert_matches_reference(
                g, [a for a, _ in edges], [b for _, b in edges], n
            )

        for chunk in np.array_split(rng.permutation(u.size), 6):
            store.insert(u[chunk], v[chunk])
            live |= canon(chunk)
        check()
        dead = rng.choice(u.size, 120, replace=False)
        store.delete(v[dead], u[dead])
        live -= canon(dead)
        assert store.tombstone_fraction > 0
        check()
        assert store.compact() > 0
        check()
        back = dead[:60]
        store.insert(v[back], u[back])
        live |= canon(back)
        check()


class TestFromAdjacency:
    def test_round_trip(self):
        g = from_adjacency([[1, 2], [0], [0], []])
        assert g.num_vertices == 4
        assert sorted(g.neighbors(0).tolist()) == [1, 2]

    def test_asymmetric_adjacency_fixed(self):
        g = from_adjacency([[1], [], []])
        assert 0 in g.neighbors(1)


class TestEmptyGraph:
    def test_counts(self):
        g = empty_graph(7)
        assert g.num_vertices == 7
        assert g.num_edges == 0

    def test_zero_vertices(self):
        g = empty_graph(0)
        assert g.num_vertices == 0


class TestRelabelCompact:
    def test_drops_isolated(self):
        g = from_edges([(0, 5)], num_vertices=6)
        compacted, mapping = relabel_compact(g)
        assert compacted.num_vertices == 2
        assert mapping.tolist() == [0, 5]

    def test_keep_isolated(self):
        g = from_edges([(0, 2)], num_vertices=3)
        compacted, mapping = relabel_compact(g, drop_isolated=False)
        assert compacted.num_vertices == 3
        assert mapping.tolist() == [0, 1, 2]

    def test_edges_preserved(self):
        g = from_edges([(1, 3), (3, 7)], num_vertices=8)
        compacted, mapping = relabel_compact(g)
        assert compacted.num_edges == 2
        # The edge structure maps back onto the original ids.
        back = {tuple(sorted((mapping[u], mapping[v]))) for u, v in compacted.edges()}
        assert back == {(1, 3), (3, 7)}
