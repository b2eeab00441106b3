"""Medium-scale integration tests: the native backends on 10^5-arc-class
inputs, end-to-end through the public API.

The simulated GPU is exercised at tiny/small scale elsewhere (it is a
per-op interpreter); these tests cover the code paths a library user
runs on real-sized data: vectorized backend, serial backend,
incremental updates, subgraph extraction and round-trip I/O.
"""

import numpy as np
import pytest

from repro import connected_components, count_components
from repro.verify import reference_labels, verify_labels_structural
from repro.extensions import IncrementalConnectivity, kruskal_msf
from repro.generators import load
from repro.graph import (
    extract_component,
    load_csr_npz,
    save_csr_npz,
    split_components,
)

MEDIUM_NAMES = ("rmat16.sym", "europe_osm", "delaunay_n24", "uk-2002")


@pytest.fixture(scope="module", params=MEDIUM_NAMES)
def medium_graph(request):
    return load(request.param, "medium")


class TestNumpyBackendMedium:
    def test_matches_oracle(self, medium_graph):
        labels = connected_components(medium_graph)
        assert np.array_equal(labels, reference_labels(medium_graph))

    def test_structural_verifier_scales(self, medium_graph):
        labels = connected_components(medium_graph)
        assert verify_labels_structural(medium_graph, labels)


class TestSerialBackendMedium:
    def test_serial_on_medium_rmat(self):
        g = load("rmat16.sym", "medium")
        labels = connected_components(g, backend="serial")
        assert np.array_equal(labels, reference_labels(g))


class TestPipelinesMedium:
    def test_split_components_covers_graph(self):
        g = load("uk-2002", "medium")
        labels = connected_components(g)
        parts = split_components(g, labels)
        assert sum(sub.num_vertices for sub, _ in parts) == g.num_vertices
        # Largest part is internally connected.
        sub, _ = parts[0]
        assert count_components(sub) == 1

    def test_extract_then_recount(self):
        g = load("rmat16.sym", "medium")
        labels = connected_components(g, full_result=False)
        giant = int(np.bincount(labels).argmax())
        sub, old = extract_component(g, labels, giant)
        assert count_components(sub) == 1
        assert np.array_equal(np.sort(old), np.flatnonzero(labels == giant))

    def test_incremental_replay(self):
        g = load("europe_osm", "medium")
        labels = connected_components(g)
        inc = IncrementalConnectivity.from_graph(g)
        assert inc.num_components == np.unique(labels).size
        assert np.array_equal(inc.labels(), labels)

    def test_msf_spans_each_component(self):
        g = load("delaunay_n24", "medium")
        u, v = g.edge_array()
        w = np.random.default_rng(0).random(u.size)
        forest = kruskal_msf(u, v, w, g.num_vertices)
        labels = connected_components(g)
        comps = np.unique(labels).size
        assert forest.num_edges == g.num_vertices - comps
        assert forest.num_trees == comps

    def test_npz_round_trip(self, tmp_path):
        g = load("rmat16.sym", "medium")
        p = tmp_path / "m.npz"
        save_csr_npz(g, p)
        back = load_csr_npz(p)
        assert np.array_equal(
            connected_components(back), connected_components(g)
        )
