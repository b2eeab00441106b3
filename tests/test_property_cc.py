"""Property-based tests (hypothesis): all backends agree with networkx on
arbitrary graphs, and core invariants hold."""

import networkx as nx
import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ecl_cc_gpu import ecl_cc_gpu
from repro.core.ecl_cc_numpy import ecl_cc_numpy
from repro.core.ecl_cc_serial import ecl_cc_serial
from repro.core.labels import canonicalize, equivalent_labelings
from repro.verify import bfs_labels, reference_labels
from repro.graph.build import from_edges
from repro.graph.validate import validate_undirected

SLOW = settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
FAST = settings(max_examples=100, deadline=None)


@st.composite
def graphs(draw, max_n=40, max_m=120):
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=max_m))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            min_size=m,
            max_size=m,
        )
    )
    return from_edges(edges, num_vertices=n)


@given(graphs())
@SLOW
def test_builder_always_produces_valid_undirected(g):
    validate_undirected(g)


@given(graphs())
@SLOW
def test_serial_matches_networkx(g):
    labels, _ = ecl_cc_serial(g)
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.num_vertices))
    nxg.add_edges_from(g.edges())
    expected = np.empty(g.num_vertices, dtype=np.int64)
    for comp in nx.connected_components(nxg):
        rep = min(comp)
        for v in comp:
            expected[v] = rep
    assert np.array_equal(labels, expected)


@given(graphs())
@SLOW
def test_numpy_matches_serial(g):
    a, _ = ecl_cc_numpy(g)
    b, _ = ecl_cc_serial(g)
    assert np.array_equal(a, b)


@st.composite
def dense_graphs(draw, max_n=40):
    """Random graphs with 3-6 edges per vertex: about two thirds of them
    leave Init3 with enough live pairs to take ``ecl_cc_numpy``'s sample
    branch."""
    n = draw(st.integers(min_value=8, max_value=max_n))
    vertex = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), min_size=3 * n, max_size=6 * n))
    return from_edges(edges, num_vertices=n)


@given(dense_graphs())
@SLOW
def test_numpy_sample_step_matches_serial(g):
    a, stats = ecl_cc_numpy(g)
    b, _ = ecl_cc_serial(g)
    assert np.array_equal(a, b)
    assert stats.sampled == (stats.estimated_live_pairs >= g.num_vertices)


@given(graphs(max_n=24, max_m=60), st.integers(min_value=0, max_value=3))
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_gpu_matches_reference_under_random_schedules(g, seed):
    res = ecl_cc_gpu(g, seed=seed)
    assert np.array_equal(res.labels, reference_labels(g))


@given(graphs(max_n=24, max_m=60), st.sampled_from(["Jump1", "Jump2", "Jump3", "Jump4"]))
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_gpu_jump_variants_agree(g, jump):
    res = ecl_cc_gpu(g, jump=jump, seed=1)
    assert np.array_equal(res.labels, reference_labels(g))


@given(graphs())
@SLOW
def test_reference_matches_bfs_oracle(g):
    assert np.array_equal(reference_labels(g), bfs_labels(g))


@given(graphs())
@SLOW
def test_labels_are_min_member_and_self_consistent(g):
    labels, _ = ecl_cc_serial(g)
    # Every label is a member of its own component and is the minimum.
    for v in range(g.num_vertices):
        rep = labels[v]
        assert labels[rep] == rep
        assert rep <= v
    # Edge endpoints always share a label.
    for u, v in g.edges():
        assert labels[u] == labels[v]


@given(
    st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=30)
)
@FAST
def test_canonicalize_properties(raw):
    labels = np.asarray(raw, dtype=np.int64)
    canon = canonicalize(labels)
    # Same partition.
    assert equivalent_labelings(labels, canon)
    # Canonical labels are minimum member indices.
    for i, lab in enumerate(canon):
        assert lab <= i
        assert canon[lab] == lab
    # Idempotent.
    assert np.array_equal(canonicalize(canon), canon)


@given(graphs(max_n=30, max_m=80))
@SLOW
def test_union_find_variants_all_agree(g):
    from repro.unionfind import DisjointSet

    results = []
    for comp in ("none", "single", "full", "halving"):
        ds = DisjointSet(g.num_vertices, compression=comp)
        for u, v in g.edges():
            ds.union(u, v)
        results.append(ds.flatten().copy())
    for r in results[1:]:
        assert np.array_equal(r, results[0])


# ----------------------------------------------------------------------
# Frontier-shrinking backends: labels must be *bit-identical* to the
# serial reference — same min-member convention, same dtype, everywhere.
# ----------------------------------------------------------------------

def _adversarial_graphs():
    """Deterministic worst cases: empty, isolated, stars, multi-component."""
    from repro.graph.build import empty_graph

    yield empty_graph(0)
    yield empty_graph(7)
    yield from_edges([(0, i) for i in range(1, 12)], num_vertices=12)  # star
    yield from_edges([(11, i) for i in range(11)], num_vertices=12)  # inverted
    # Three components: a triangle, a path, an isolated vertex.
    yield from_edges([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)], num_vertices=7)


def test_frontier_backends_match_serial_on_adversarial_graphs():
    from repro.core.contract import contract_cc
    from repro.extensions.afforest import afforest_cc

    for g in _adversarial_graphs():
        expected, _ = ecl_cc_serial(g)
        for name, got in (
            ("numpy", ecl_cc_numpy(g)[0]),
            ("contract", contract_cc(g, base_cutoff=0)[0]),
            ("afforest", afforest_cc(g).labels),
        ):
            assert np.array_equal(got, expected), (g.name, name)
            assert got.dtype == expected.dtype


@given(graphs(max_n=20, max_m=40), st.integers(min_value=0, max_value=2))
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_afforest_matches_serial(g, seed):
    from repro.extensions.afforest import afforest_cc

    res = afforest_cc(g, seed=seed)
    expected, _ = ecl_cc_serial(g)
    assert np.array_equal(res.labels, expected)


@given(graphs())
@SLOW
def test_frontier_sizes_are_monotone_non_increasing(g):
    _, numpy_stats = ecl_cc_numpy(g)
    sizes = numpy_stats.frontier_sizes
    # Each round's frontier is a deduplicated subset of the survivors of
    # the previous one, so the curve can only shrink.
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))
    assert all(s > 0 for s in sizes)


@given(st.lists(st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=60))
@FAST
def test_disjoint_set_parent_chains_decrease(pairs):
    """The strictly-decreasing-chain invariant Fig. 5's loop relies on."""
    from repro.unionfind import DisjointSet

    ds = DisjointSet(20)
    for u, v in pairs:
        if u != v:
            ds.union(u, v)
    parent = ds.parent
    for x in range(20):
        assert parent[x] <= x
