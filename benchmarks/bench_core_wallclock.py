"""Native wall-clock benchmarks of the library itself (multi-round).

Unlike the experiment benches (which regenerate paper artifacts once),
these are ordinary pytest-benchmark microbenchmarks of the public API:
the vectorized backend on medium graphs, the serial backend, the
disjoint-set primitives, and graph construction — the numbers a user of
this library as a *library* cares about.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ecl_cc_numpy import ecl_cc_numpy
from repro.core.ecl_cc_serial import ecl_cc_serial
from repro.generators import load, rmat
from repro.graph.build import from_arc_arrays
from repro.unionfind import DisjointSet


@pytest.fixture(scope="module")
def medium_rmat():
    return load("rmat16.sym", "medium")


@pytest.fixture(scope="module")
def medium_road():
    return load("USA-road-d.NY", "medium")


@pytest.fixture(scope="module")
def medium_grid():
    return load("2d-2e20.sym", "medium")


def test_numpy_backend_rmat(benchmark, medium_rmat):
    labels = benchmark(lambda: ecl_cc_numpy(medium_rmat)[0])
    assert labels.size == medium_rmat.num_vertices


def test_numpy_backend_road(benchmark, medium_road):
    labels = benchmark(lambda: ecl_cc_numpy(medium_road)[0])
    assert np.all(labels == labels[0])  # single component


def test_numpy_frontier_grid(benchmark, medium_grid):
    labels = benchmark(lambda: ecl_cc_numpy(medium_grid)[0])
    assert np.all(labels == labels[0])


def test_serial_backend_small_rmat(benchmark):
    g = load("rmat16.sym", "small")
    labels = benchmark(lambda: ecl_cc_serial(g)[0])
    assert labels.size == g.num_vertices


def test_graph_construction(benchmark):
    rng = np.random.default_rng(0)
    src = rng.integers(0, 50_000, size=400_000)
    dst = rng.integers(0, 50_000, size=400_000)
    g = benchmark(lambda: from_arc_arrays(src, dst, 50_000))
    assert g.num_vertices == 50_000


def test_rmat_generation(benchmark):
    g = benchmark(lambda: rmat(15, 8.0, seed=1))
    assert g.num_vertices == 1 << 15


def test_disjoint_set_unions(benchmark):
    rng = np.random.default_rng(1)
    pairs = rng.integers(0, 20_000, size=(50_000, 2))

    def run():
        ds = DisjointSet(20_000)
        for u, v in pairs:
            ds.union(int(u), int(v))
        return ds.num_sets()

    count = benchmark(run)
    assert count >= 1
