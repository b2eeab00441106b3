"""Tests for the backend registry, CCResult, and option validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro import CCResult, connected_components, count_components, register_backend
from repro.core.api import BACKENDS, BackendSpec, OptionSpec, unregister_backend
from repro.verify import reference_labels
from repro.errors import ReproError, UnknownBackendError, UnknownOptionError
from repro.generators import load

ALL_BACKENDS = (
    "serial", "numpy", "gpu", "omp", "afforest", "contract", "sharded"
)


class TestRegistryCompleteness:
    def test_all_builtins_registered(self):
        assert set(ALL_BACKENDS) <= set(BACKENDS)

    def test_entries_are_specs(self):
        for name, spec in BACKENDS.items():
            assert isinstance(spec, BackendSpec)
            assert spec.name == name
            assert callable(spec.run)
            assert spec.description

    def test_variant_options_declare_choices(self):
        for backend in ("serial", "numpy", "gpu", "omp"):
            init = BACKENDS[backend].options["init"]
            assert init.choices == ("Init1", "Init2", "Init3")

    def test_unknown_backend_raises(self, path_graph):
        # A deleted built-in stays unknown.
        for name in ("quantum", "fastsv"):
            with pytest.raises(ValueError, match="unknown backend"):
                connected_components(path_graph, backend=name)
            with pytest.raises(UnknownBackendError):
                connected_components(path_graph, backend=name)

    def test_unknown_backend_message_lists_registered(self, path_graph):
        with pytest.raises(UnknownBackendError) as exc_info:
            connected_components(path_graph, backend="quantum")
        msg = str(exc_info.value)
        for name in ALL_BACKENDS:
            assert name in msg

    def test_unknown_backend_fails_before_graph_work(self):
        from repro.core.api import get_backend

        # Dispatch misuse must not depend on the input: even with no
        # graph at hand the registry lookup itself carries the listing.
        with pytest.raises(UnknownBackendError, match="registered backends"):
            get_backend("quantum")


class TestCCResultParity:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_full_result_is_ccresult(self, backend):
        g = load("rmat16.sym", "tiny")
        res = connected_components(g, backend=backend, full_result=True)
        assert isinstance(res, CCResult)
        assert res.backend == backend
        assert np.array_equal(res.labels, reference_labels(g))
        assert res.total_time_ms > 0
        assert res.timings["wall_ms"] > 0
        assert res.num_components == int(np.unique(res.labels).size)

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_default_return_is_ccresult(self, backend, triangle_plus_edge):
        res = connected_components(triangle_plus_edge, backend=backend)
        assert isinstance(res, CCResult)
        assert np.array_equal(res.labels, reference_labels(triangle_plus_edge))

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_bare_labels_with_full_result_false(self, backend, triangle_plus_edge):
        labels = connected_components(
            triangle_plus_edge, backend=backend, full_result=False
        )
        assert isinstance(labels, np.ndarray)
        assert np.array_equal(labels, reference_labels(triangle_plus_edge))

    def test_ccresult_coerces_to_labels_under_numpy(self, two_cliques):
        res = connected_components(two_cliques)
        assert np.array_equal(res, reference_labels(two_cliques))
        assert np.asarray(res) is res.labels

    def test_gpu_timings_have_per_kernel_entries(self, two_cliques):
        res = connected_components(two_cliques, backend="gpu", full_result=True)
        for name in ("init", "compute1", "compute2", "compute3", "finalize"):
            assert f"kernel:{name}" in res.timings
        assert res.total_time_ms == pytest.approx(res.stats.total_time_ms)

    def test_omp_timings_have_region_entries(self, two_cliques):
        res = connected_components(two_cliques, backend="omp", full_result=True)
        for name in ("init", "compute", "finalize"):
            assert f"region:{name}" in res.timings

    def test_stats_attribute_delegation(self, two_cliques):
        gpu = connected_components(two_cliques, backend="gpu", full_result=True)
        assert gpu.kernels is gpu.stats.kernels  # GpuRunResult passthrough
        omp = connected_components(two_cliques, backend="omp", full_result=True)
        assert omp.modeled_time_s == omp.stats.modeled_time_s
        with pytest.raises(AttributeError, match="no attribute"):
            gpu.definitely_not_an_attribute

    def test_tuple_unpacking_raises_without_opt_in(self, path_graph):
        res = connected_components(path_graph, backend="serial")
        with pytest.raises(TypeError, match="tuple unpacking"):
            labels, stats = res


class TestOptionValidation:
    def test_typo_raises_unknown_option(self, path_graph):
        with pytest.raises(UnknownOptionError, match="jmp"):
            connected_components(path_graph, backend="gpu", jmp="halving")
        # Every scale-out backend solves its pieces with numpy; there is
        # no per-shard backend to choose.
        for backend in ("sharded", "oocore", "distributed"):
            with pytest.raises(UnknownOptionError, match="shard_backend"):
                connected_components(
                    path_graph, backend=backend, shard_backend="numpy"
                )

    def test_message_lists_valid_keys(self, path_graph):
        with pytest.raises(UnknownOptionError, match="valid options.*jump"):
            connected_components(path_graph, backend="serial", jmp="halving")

    def test_unknown_option_is_typeerror_and_reproerror(self, path_graph):
        with pytest.raises(TypeError):
            connected_components(path_graph, backend="numpy", bogus=1)
        with pytest.raises(ReproError):
            connected_components(path_graph, backend="numpy", bogus=1)

    def test_declared_choices_enforced(self, path_graph):
        with pytest.raises(ValueError, match="invalid value"):
            connected_components(path_graph, backend="serial", jump="Halving")

    def test_valid_options_pass_through(self, two_cliques):
        labels = connected_components(
            two_cliques, backend="serial", init="Init1", jump="single"
        )
        assert np.array_equal(labels, reference_labels(two_cliques))

    def test_optionless_backend_rejects_any_option(self, path_graph):
        register_backend("no-opt-test", lambda g: reference_labels(g))
        try:
            with pytest.raises(UnknownOptionError, match=r"valid options: \(none\)"):
                connected_components(path_graph, backend="no-opt-test", init="Init3")
        finally:
            unregister_backend("no-opt-test")


class TestRegisterBackend:
    def _scipy_runner(self, graph, **options):
        return reference_labels(graph)

    def test_register_and_dispatch(self, triangle_plus_edge):
        register_backend("scipy-test", self._scipy_runner, description="oracle")
        try:
            res = connected_components(
                triangle_plus_edge, backend="scipy-test", full_result=True
            )
            assert isinstance(res, CCResult)
            assert res.backend == "scipy-test"
            assert np.array_equal(res.labels, reference_labels(triangle_plus_edge))
            assert res.timings["total_ms"] >= 0
        finally:
            unregister_backend("scipy-test")
        assert "scipy-test" not in BACKENDS

    def test_tuple_returning_runner_normalized(self, path_graph):
        register_backend(
            "tuple-test", lambda g: (reference_labels(g), {"note": "hi"})
        )
        try:
            res = connected_components(path_graph, backend="tuple-test", full_result=True)
            assert isinstance(res, CCResult)
            assert res.stats == {"note": "hi"}
        finally:
            unregister_backend("tuple-test")

    def test_option_schema_enforced_for_third_party(self, path_graph):
        register_backend(
            "opt-test",
            lambda g, flavor="a": reference_labels(g),
            options={"flavor": OptionSpec("which flavor", ("a", "b"))},
        )
        try:
            connected_components(path_graph, backend="opt-test", flavor="b")
            with pytest.raises(UnknownOptionError, match="flavor"):
                connected_components(path_graph, backend="opt-test", flavour="b")
            with pytest.raises(ValueError, match="invalid value"):
                connected_components(path_graph, backend="opt-test", flavor="c")
        finally:
            unregister_backend("opt-test")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend("numpy", self._scipy_runner)

    def test_overwrite_allowed_explicitly(self, path_graph):
        register_backend(
            "overwrite-test", lambda g: np.zeros(g.num_vertices, np.int64)
        )
        try:
            register_backend("overwrite-test", self._scipy_runner, overwrite=True)
            labels = connected_components(path_graph, backend="overwrite-test")
            assert np.array_equal(labels, reference_labels(path_graph))
        finally:
            unregister_backend("overwrite-test")


class TestCountComponents:
    def test_empty_graph_no_unique_call(self):
        from repro.graph.build import empty_graph

        assert count_components(empty_graph(0)) == 0

    def test_empty_graph_still_validates_backend_and_options(self):
        from repro.graph.build import empty_graph

        with pytest.raises(UnknownBackendError):
            count_components(empty_graph(0), backend="quantum")
        with pytest.raises(UnknownOptionError):
            count_components(empty_graph(0), bogus=True)

    def test_isolated_vertices_counted(self, isolated_graph):
        assert count_components(isolated_graph) == 5

    def test_mixed_isolated_and_edges(self, triangle_plus_edge):
        # {0,1,2}, {3,4}, and isolated 5.
        assert count_components(triangle_plus_edge) == 3

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_counts_agree_across_backends(self, backend):
        g = load("as-skitter", "tiny")
        assert count_components(g, backend=backend) == count_components(g)

    def test_no_deprecation_warning_from_count(self, triangle_plus_edge, recwarn):
        count_components(triangle_plus_edge)
        assert not [
            w for w in recwarn.list if issubclass(w.category, DeprecationWarning)
        ]
