"""Tests for the public connected_components entry point."""

import numpy as np
import pytest

from repro import CSRGraph, connected_components, count_components
from repro.verify import reference_labels
from repro.generators import load


class TestBackends:
    @pytest.mark.parametrize("backend", ["serial", "numpy", "gpu", "omp", "afforest"])
    def test_all_backends_agree(self, backend, triangle_plus_edge):
        labels = connected_components(triangle_plus_edge, backend=backend)
        assert np.array_equal(labels, reference_labels(triangle_plus_edge))

    def test_default_backend(self, two_cliques):
        labels = connected_components(two_cliques)
        assert np.array_equal(labels, reference_labels(two_cliques))

    def test_unknown_backend(self, path_graph):
        with pytest.raises(ValueError, match="unknown backend"):
            connected_components(path_graph, backend="quantum")

    def test_full_result_serial(self, path_graph):
        res = connected_components(
            path_graph, backend="serial", full_result=True, collect_stats=True
        )
        assert res.stats is not None

    def test_full_result_gpu(self, path_graph):
        res = connected_components(path_graph, backend="gpu", full_result=True)
        assert res.total_time_ms > 0
        assert np.array_equal(res.labels, reference_labels(path_graph))

    def test_full_result_omp(self, path_graph):
        res = connected_components(path_graph, backend="omp", full_result=True)
        assert res.modeled_time_s > 0

    def test_afforest_full_result(self, path_graph):
        res = connected_components(path_graph, backend="afforest", full_result=True)
        assert res.total_time_ms > 0

    def test_backend_options_forwarded(self, two_cliques):
        labels = connected_components(two_cliques, backend="serial", init="Init1")
        assert np.array_equal(labels, reference_labels(two_cliques))


class TestCountComponents:
    def test_counts(self, triangle_plus_edge):
        assert count_components(triangle_plus_edge) == 3

    def test_empty(self):
        from repro.graph.build import empty_graph

        assert count_components(empty_graph(0)) == 0

    def test_gpu_backend(self):
        g = load("as-skitter", "tiny")
        assert count_components(g, backend="gpu") == count_components(g, backend="numpy")


class TestPackageSurface:
    def test_version(self):
        import repro

        assert repro.__version__

    def test_reexports(self):
        import repro

        assert repro.CSRGraph is CSRGraph
