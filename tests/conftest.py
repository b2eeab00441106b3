"""Shared fixtures: small reference graphs with known components, plus
an autouse guard that fails any test leaking a shared-memory segment or
an out-of-core spill directory, and frees the cached shard exports."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dist import active_host_scratch_dirs, live_network_threads
from repro.graph.build import empty_graph, from_edges
from repro.outofcore import active_spill_dirs
from repro.shard import export_segments, leaked_shared_segments, release_exports


@pytest.fixture(autouse=True)
def _resource_leak_guard():
    """Every test must leave no /dev/shm segments, no spill temp
    directories, no simulated-host scratch directories, and no live
    SimNetwork host threads behind — leaks from one test poison later
    ones (and, in CI, the machine), so they fail loudly at the leaking
    test.  A segment held by a live cached shard export is not a leak:
    the exports are released after the check, so the next test starts
    with none."""
    yield
    owned = set(export_segments())
    leaked = [name for name in leaked_shared_segments() if name not in owned]
    release_exports()
    assert leaked == [], f"test leaked shared-memory segments: {leaked}"
    spills = active_spill_dirs()
    assert spills == [], f"test leaked spill directories: {spills}"
    scratch = active_host_scratch_dirs()
    assert scratch == [], f"test leaked simulated-host scratch dirs: {scratch}"
    threads = live_network_threads()
    assert threads == [], (
        f"test leaked live simulated-host threads: {[t.name for t in threads]}"
    )


@pytest.fixture
def triangle_plus_edge():
    """Two components: {0,1,2} (a triangle) and {3,4}; vertex 5 isolated."""
    return from_edges([(0, 1), (1, 2), (2, 0), (3, 4)], num_vertices=6, name="tri+e")


@pytest.fixture
def path_graph():
    """A 10-vertex path: one component, maximum diameter."""
    return from_edges([(i, i + 1) for i in range(9)], name="path10")


@pytest.fixture
def star_graph():
    """A star with center 0 and 8 leaves."""
    return from_edges([(0, i) for i in range(1, 9)], name="star9")


@pytest.fixture
def isolated_graph():
    """Five isolated vertices: five components, no edges."""
    return empty_graph(5)


@pytest.fixture
def two_cliques():
    """Two K4 cliques: components {0..3} and {4..7}."""
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    edges += [(i, j) for i in range(4, 8) for j in range(i + 1, 8)]
    return from_edges(edges, name="2xK4")


def expected_labels_triangle_plus_edge():
    return np.array([0, 0, 0, 3, 3, 5], dtype=np.int64)
