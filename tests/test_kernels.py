"""Tests for the optional compiled kernel tier (repro.core.kernels).

The compiled tier must be a pure accelerator: same results bit-for-bit
as the numpy fallbacks, probe-gated so the library works identically
with numba absent, disabled by ``REPRO_NO_NUMBA``, and locally
suppressible via ``force_numpy()``.  When real numba is not installed
(the common CI leg), the dispatch path is exercised through a stub
module whose ``njit`` runs the kernels as plain Python — slower, but
the exact control flow the compiled tier would take.
"""

from __future__ import annotations

import importlib
import sys
import types

import numpy as np
import pytest

from repro.core import kernels


def _random_forest(rng, n):
    """A random decreasing forest (parent[v] <= v)."""
    par = np.arange(n, dtype=np.int64)
    for v in range(1, n):
        if rng.random() < 0.7:
            par[v] = rng.integers(0, v)
    return par


def _flatten_reference(par):
    par = par.copy()
    while True:
        nxt = par[par]
        if np.array_equal(nxt, par):
            return par
        par = nxt


class TestProbe:
    def test_flag_matches_importability(self):
        try:
            import numba  # noqa: F401

            importable = True
        except ImportError:
            importable = False
        import os

        disabled = os.environ.get("REPRO_NO_NUMBA", "") not in ("", "0")
        assert kernels.NUMBA_AVAILABLE == (importable and not disabled)

    def test_env_escape_hatch(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_NUMBA", "1")
        try:
            importlib.reload(kernels)
            assert not kernels.NUMBA_AVAILABLE
            assert not kernels.numba_active()
        finally:
            monkeypatch.delenv("REPRO_NO_NUMBA")
            importlib.reload(kernels)

    def test_env_zero_does_not_disable(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_NUMBA", "0")
        try:
            importlib.reload(kernels)
            assert kernels.NUMBA_AVAILABLE == kernels._probe()
        finally:
            monkeypatch.delenv("REPRO_NO_NUMBA")
            importlib.reload(kernels)


class TestForceNumpy:
    def test_disables_dispatch_and_nests(self):
        with kernels.force_numpy():
            assert not kernels.numba_active()
            with kernels.force_numpy():
                assert not kernels.numba_active()
            assert not kernels.numba_active()
        assert kernels.numba_active() == kernels.NUMBA_AVAILABLE


class TestNumpyTier:
    """The fallback implementations, checked against naive references."""

    def test_selftest_passes(self):
        assert kernels.selftest() == 0

    def test_flatten_decreasing(self):
        rng = np.random.default_rng(0)
        with kernels.force_numpy():
            for n in (0, 1, 2, 63, 1024):
                par = _random_forest(rng, n)
                ref = _flatten_reference(par)
                assert np.array_equal(kernels.flatten_decreasing(par), ref)

    def test_flatten_forest_handles_upward_parents(self):
        # Forests may point upward; still acyclic.
        par = np.array([3, 0, 1, 3, 2], dtype=np.int64)
        changed = kernels.flatten_forest(par)
        assert changed > 0
        assert np.array_equal(par, np.full(5, 3, dtype=np.int64))
        assert kernels.flatten_forest(par) == 0

    def test_flatten_indices_subset_only(self):
        par = np.array([0, 0, 1, 2, 3], dtype=np.int64)
        idx = np.array([4], dtype=np.int64)
        kernels.flatten_indices(par, idx)
        assert par[4] == 0  # the listed vertex is fully resolved
        assert kernels.flatten_indices(par, np.empty(0, dtype=np.int64)) == 0

    def test_renumber_roots_dense_ascending(self):
        par = np.array([0, 0, 2, 2, 4], dtype=np.int64)
        comp, k = kernels.renumber_roots(par)
        assert k == 3
        assert comp.tolist() == [0, 0, 1, 1, 2]
        comp, k = kernels.renumber_roots(np.empty(0, dtype=np.int64))
        assert k == 0 and comp.size == 0

    def test_segment_min_starts(self):
        hi = np.array([1, 1, 4, 4, 4, 9], dtype=np.int64)
        assert kernels.segment_min_starts(hi).tolist() == [
            True, False, True, False, False, True,
        ]
        assert kernels.segment_min_starts(hi[:0]).size == 0


@pytest.fixture
def stub_numba(monkeypatch):
    """Install a fake numba whose ``njit`` runs kernels as plain Python.

    Slower than the real thing but takes the identical dispatch path, so
    the compiled-tier control flow is testable without numba installed.
    Reloads ``kernels`` with the stub active and restores the genuine
    probe state afterwards.
    """
    fake = types.ModuleType("numba")

    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def deco(fn):
            return fn

        return deco

    fake.njit = njit
    monkeypatch.delenv("REPRO_NO_NUMBA", raising=False)
    monkeypatch.setitem(sys.modules, "numba", fake)
    importlib.reload(kernels)
    assert kernels.NUMBA_AVAILABLE and kernels.numba_active()
    yield kernels
    monkeypatch.undo()
    importlib.reload(kernels)


class TestCompiledDispatch:
    def test_kernels_bit_identical_across_tiers(self, stub_numba):
        rng = np.random.default_rng(1)
        for n in (0, 1, 2, 257, 1024):
            par = _random_forest(rng, n)
            compiled = stub_numba.flatten_decreasing(par.copy())
            with stub_numba.force_numpy():
                fallback = stub_numba.flatten_decreasing(par.copy())
            assert np.array_equal(compiled, fallback)

            forest_c = par.copy()
            forest_f = par.copy()
            stub_numba.flatten_forest(forest_c)
            with stub_numba.force_numpy():
                stub_numba.flatten_forest(forest_f)
            assert np.array_equal(forest_c, forest_f)

            comp_c, k_c = stub_numba.renumber_roots(compiled.copy())
            with stub_numba.force_numpy():
                comp_f, k_f = stub_numba.renumber_roots(fallback.copy())
            assert k_c == k_f
            assert np.array_equal(comp_c, comp_f)

        hi = np.sort(rng.integers(0, 40, size=100)).astype(np.int64)
        mask_c = stub_numba.segment_min_starts(hi)
        with stub_numba.force_numpy():
            mask_f = stub_numba.segment_min_starts(hi)
        assert np.array_equal(mask_c, mask_f)

    def test_backend_labels_identical_across_tiers(self, stub_numba):
        # End to end: the frontier and contraction backends must produce
        # bit-identical labels whichever tier their flattens dispatch to.
        from repro.core.contract import contract_cc
        from repro.core.ecl_cc_numpy import ecl_cc_numpy
        from repro.generators import load
        from repro.verify import reference_labels

        graph = load("2d-2e20.sym", "tiny")
        ref = reference_labels(graph)
        assert stub_numba.numba_active()
        frontier_compiled, _ = ecl_cc_numpy(graph)
        contract_compiled, _ = contract_cc(graph, base_cutoff=0)
        with stub_numba.force_numpy():
            frontier_fallback, _ = ecl_cc_numpy(graph)
            contract_fallback, _ = contract_cc(graph, base_cutoff=0)
        for labels in (
            frontier_compiled,
            frontier_fallback,
            contract_compiled,
            contract_fallback,
        ):
            assert np.array_equal(labels, ref)

    def test_selftest_covers_stub_tier(self, stub_numba):
        assert stub_numba.selftest() == 0


class TestRealNumba:
    """Run only when numba is actually installed (the compiled CI leg)."""

    pytestmark = pytest.mark.skipif(
        not kernels.NUMBA_AVAILABLE, reason="numba not installed"
    )

    def test_selftest_exercises_compiled_tier(self):
        assert kernels.selftest() == 0

    def test_gate_identity_on_real_graph(self):
        from repro.core.contract import contract_cc
        from repro.generators import load

        graph = load("USA-road-d.NY", "tiny")
        compiled, _ = contract_cc(graph, base_cutoff=0)
        with kernels.force_numpy():
            fallback, _ = contract_cc(graph, base_cutoff=0)
        assert np.array_equal(compiled, fallback)
