"""Metamorphic regression pins: frontier, dense, FastSV, Afforest, the
out-of-core streamer, and the distributed merge must satisfy the
solver-independent invariants."""

import numpy as np
import pytest

from repro.core.api import connected_components
from repro.core.ecl_cc_numpy import ecl_cc_numpy_dense
from repro.generators.suite import load
from repro.graph.build import from_edges
from repro.verify import METAMORPHIC_CHECKS
from repro.verify.metamorphic import (
    disjoint_union,
    permute_vertices,
    shuffle_adjacency,
)

FAST_BACKENDS = ("numpy", "numpy-dense", "fastsv")
SIM_BACKENDS = ("afforest",)


def _graphs():
    return [
        from_edges([(0, 1), (1, 2), (0, 2), (3, 4)], num_vertices=6, name="tri+edge"),
        from_edges([(i, i + 1) for i in range(9)], num_vertices=10, name="path10"),
        from_edges([(0, i) for i in range(1, 8)], num_vertices=8, name="star8"),
        from_edges([], num_vertices=5, name="isolates"),
    ]


def _runner(backend):
    if backend == "numpy-dense":  # the dense ablation is not registered
        return lambda g: ecl_cc_numpy_dense(g)[0]
    return lambda g: connected_components(g, backend=backend, full_result=False)


@pytest.mark.parametrize("backend", FAST_BACKENDS)
@pytest.mark.parametrize("check", sorted(METAMORPHIC_CHECKS))
def test_fast_backends_invariants(backend, check):
    run = _runner(backend)
    fn = METAMORPHIC_CHECKS[check]
    for i, g in enumerate(_graphs()):
        assert fn(run, g, np.random.default_rng(i)) is None


@pytest.mark.parametrize("backend", FAST_BACKENDS)
@pytest.mark.parametrize("name", ["rmat16.sym", "internet"])
def test_fast_backends_suite_tiny(backend, name):
    run = _runner(backend)
    g = load(name, "tiny")
    for check in sorted(METAMORPHIC_CHECKS):
        assert METAMORPHIC_CHECKS[check](run, g, np.random.default_rng(7)) is None


@pytest.mark.parametrize("backend", SIM_BACKENDS)
@pytest.mark.parametrize("check", sorted(METAMORPHIC_CHECKS))
def test_simulated_backends_invariants(backend, check):
    run = _runner(backend)
    fn = METAMORPHIC_CHECKS[check]
    for i, g in enumerate(_graphs()[:2]):
        assert fn(run, g, np.random.default_rng(i)) is None


@pytest.mark.parametrize("check", sorted(METAMORPHIC_CHECKS))
def test_oocore_invariants(check):
    """The external-memory path satisfies every metamorphic invariant
    with a shard count that forces cross-shard boundary merging."""

    def run(g):
        return connected_components(
            g, backend="oocore", shards=3, full_result=False
        )

    fn = METAMORPHIC_CHECKS[check]
    for i, g in enumerate(_graphs()):
        assert fn(run, g, np.random.default_rng(i)) is None


@pytest.mark.parametrize("check", sorted(METAMORPHIC_CHECKS))
def test_dist_invariants(check):
    """The distributed merge satisfies every metamorphic invariant with
    a host count that forces cross-host boundary exchange."""

    def run(g):
        return connected_components(
            g, backend="distributed", hosts=3, full_result=False
        )

    fn = METAMORPHIC_CHECKS[check]
    for i, g in enumerate(_graphs()):
        assert fn(run, g, np.random.default_rng(i)) is None


class TestTransforms:
    def test_permute_vertices_preserves_structure(self):
        g = from_edges([(0, 1), (2, 3)], num_vertices=4, name="g")
        perm = np.array([3, 2, 1, 0])
        pg = permute_vertices(g, perm)
        assert pg.num_vertices == 4
        assert pg.num_edges == 2
        assert set(map(tuple, zip(*pg.arc_array()))) == {
            (3, 2), (2, 3), (1, 0), (0, 1),
        }

    def test_shuffle_adjacency_same_sets(self):
        g = load("rmat16.sym", "tiny")
        sg = shuffle_adjacency(g, np.random.default_rng(0))
        assert sg.num_vertices == g.num_vertices
        assert sg.num_arcs == g.num_arcs
        for v in range(g.num_vertices):
            assert set(sg.neighbors(v)) == set(g.neighbors(v))
        # The shuffle must genuinely unsort at least one adjacency list,
        # or the edge_order invariant never exercises the unsorted paths.
        assert not sg.has_sorted_adjacency()

    def test_disjoint_union_shapes(self):
        a = from_edges([(0, 1)], num_vertices=2, name="a")
        b = from_edges([(0, 1), (1, 2)], num_vertices=3, name="b")
        u = disjoint_union(a, b)
        assert u.num_vertices == 5
        assert u.num_edges == 3
        labels = connected_components(u, backend="numpy")
        assert np.array_equal(labels, np.array([0, 0, 2, 2, 2]))


def test_invariants_catch_a_wrong_solver():
    """Falsifiability: a solver keyed to vertex IDs trips `permutation`."""

    def biased(graph):
        labels = connected_components(graph, backend="numpy", full_result=False)
        out = labels.copy()
        # Wrong for any vertex >= 5: pretends high IDs are singletons.
        out[5:] = np.arange(5, graph.num_vertices)
        return out

    g = from_edges([(i, i + 1) for i in range(9)], num_vertices=10, name="p")
    results = [
        METAMORPHIC_CHECKS[c](biased, g, np.random.default_rng(1))
        for c in sorted(METAMORPHIC_CHECKS)
    ]
    assert any(r is not None for r in results)
