"""The out-of-core streamer: correctness, budget enforcement, spill
lifecycle, observability, and crash resume."""

import os

import numpy as np
import pytest

import repro
from repro.core.api import connected_components
from repro.errors import (
    MemoryBudgetError,
    SpillChecksumError,
    WorkerCrashError,
)
from repro.graph.build import empty_graph, from_edges
from repro.graph.spill import SpilledGraph
from repro.observe import Tracer
from repro.outofcore import (
    MERGE_WORK_FACTOR,
    MIN_CHUNK_PAIRS,
    PAIR_BYTES,
    RESUME_NAME,
    OocoreRunStats,
    ResidentMeter,
    active_spill_dirs,
    auto_shard_count,
    min_feasible_budget,
    oocore_cc,
    shard_charge_bytes,
)
from repro.resilience import FaultPlan, FaultSpec


def _graph(n=120, m=360, seed=5, name="g"):
    rng = np.random.default_rng(seed)
    return from_edges(rng.integers(0, n, size=(m, 2)), num_vertices=n, name=name)


def _serial(g):
    return connected_components(g, backend="serial", full_result=False)


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", [1, 2, 4, 7])
def test_oocore_matches_serial(shards):
    g = _graph()
    labels, stats, _ = oocore_cc(g, shards=shards)
    assert np.array_equal(labels, _serial(g))
    assert stats.num_shards == shards


def test_oocore_fixture_graphs(
    triangle_plus_edge, path_graph, star_graph, isolated_graph, two_cliques
):
    for g in (triangle_plus_edge, path_graph, star_graph, isolated_graph,
              two_cliques):
        labels, _, _ = oocore_cc(g, shards=2)
        assert np.array_equal(labels, _serial(g)), g.name


def test_oocore_degenerate_graphs():
    labels, stats, _ = oocore_cc(empty_graph(0))
    assert labels.size == 0 and stats.num_shards == 0
    labels, _, _ = oocore_cc(empty_graph(1))
    assert np.array_equal(labels, [0])


def test_oocore_via_backend_registry():
    g = _graph()
    res = connected_components(g, backend="oocore", shards=3)
    assert res.backend == "oocore"
    assert np.array_equal(res.labels, _serial(g))
    assert isinstance(res.stats, OocoreRunStats)
    assert res.stats.merge_passes == 1
    assert res.recovery is None  # no faults, no retries


def test_oocore_registry_rejects_unknown_option():
    from repro.errors import UnknownOptionError

    with pytest.raises(UnknownOptionError):
        connected_components(_graph(), backend="oocore", bogus=1)


def test_oocore_from_spilled_graph(tmp_path):
    g = _graph()
    sp = g.spill(tmp_path, 4)
    labels, stats, _ = oocore_cc(sp)
    assert np.array_equal(labels, _serial(g))
    # The caller's spill survives; the run's droppings do not.
    assert (tmp_path / "MANIFEST.json").is_file()
    assert not (tmp_path / RESUME_NAME).exists()
    assert not any(p.name.startswith("boundary_") for p in tmp_path.iterdir())
    assert SpilledGraph.open(tmp_path).num_arcs == g.num_arcs


# ----------------------------------------------------------------------
# Budget accounting
# ----------------------------------------------------------------------
def test_resident_meter_charges_and_peak():
    meter = ResidentMeter(budget=1000)
    meter.charge("a", 400)
    with meter.charged("b", 500):
        assert meter.resident == 900
    assert meter.resident == 400
    assert meter.peak == 900
    assert meter.headroom() == 600
    with pytest.raises(MemoryBudgetError) as exc:
        meter.charge("c", 700)
    assert exc.value.required == 1100 and exc.value.budget == 1000
    assert meter.resident == 400  # failed charge not recorded


def test_resident_meter_unbudgeted_tracks_peak():
    meter = ResidentMeter()
    meter.charge("a", 10**9)
    assert meter.peak == 10**9
    assert meter.headroom() is None


def test_budget_too_small_raises_before_work():
    g = _graph()
    with pytest.raises(MemoryBudgetError, match="cannot stream"):
        oocore_cc(g, memory_budget=g.num_vertices * 8)  # labels alone fill it
    assert active_spill_dirs() == []


def test_min_feasible_budget_is_tight():
    """The advertised floor runs; meaningfully below it cannot."""
    g = _graph()
    floor = min_feasible_budget(g)
    labels, stats, _ = oocore_cc(g, memory_budget=floor)
    assert np.array_equal(labels, _serial(g))
    assert stats.peak_resident_bytes <= floor
    chunk = MIN_CHUNK_PAIRS * PAIR_BYTES * MERGE_WORK_FACTOR
    with pytest.raises(MemoryBudgetError):
        oocore_cc(g, memory_budget=g.num_vertices * 8 + chunk)


def test_auto_shard_count_scales_with_budget():
    g = _graph(400, 1600)
    generous = auto_shard_count(g, (g.num_vertices + 1 + g.num_arcs) * 8 * 8)
    tight = auto_shard_count(g, min_feasible_budget(g))
    assert tight > generous
    assert auto_shard_count(g, None) == 4


def test_peak_stays_under_budget_with_csr_over_budget():
    """The headline property: solve a graph whose CSR footprint exceeds
    the budget, with the *charged* peak under the budget throughout."""
    g = _graph(500, 4000, seed=11)
    csr_bytes = (g.num_vertices + 1 + g.num_arcs) * 8
    budget = csr_bytes // 3
    assert budget > min_feasible_budget(g)
    labels, stats, _ = oocore_cc(g, memory_budget=budget)
    assert np.array_equal(labels, _serial(g))
    assert stats.csr_bytes == csr_bytes
    assert stats.peak_resident_bytes <= budget
    assert stats.ceiling > 1.0


def test_shard_charge_formula():
    assert shard_charge_bytes(11, 100) == (11 + 600) * 8


def test_explicit_shards_with_infeasible_budget_fail_loudly():
    """An explicit shard count that cannot fit the budget raises from
    the meter instead of silently over-allocating."""
    g = _graph(300, 2400, seed=2)
    with pytest.raises(MemoryBudgetError):
        oocore_cc(g, shards=1, memory_budget=min_feasible_budget(g))
    assert active_spill_dirs() == []


# ----------------------------------------------------------------------
# Spill lifecycle
# ----------------------------------------------------------------------
def test_temp_spill_dir_removed_after_run():
    g = _graph()
    _, stats, _ = oocore_cc(g, shards=2)
    assert stats.spill_dir == ""  # removed, nothing to point at
    assert active_spill_dirs() == []


def test_keep_spill_preserves_directory(tmp_path):
    g = _graph()
    d = tmp_path / "spill"
    labels, stats, _ = oocore_cc(g, spill_dir=d, keep_spill=True, shards=3)
    assert stats.kept_spill and stats.spill_dir == str(d)
    assert active_spill_dirs() == []  # handed to the caller, not leaked
    sp = SpilledGraph.open(d)
    assert sp.num_shards == 3
    # Only the spill proper remains: no merge droppings.
    assert not (d / RESUME_NAME).exists()
    assert not any(p.name.startswith("boundary_") for p in d.iterdir())
    # And it is a complete, reusable spill.
    labels2, _, _ = oocore_cc(sp)
    assert np.array_equal(labels2, labels)


def test_explicit_spill_dir_cleaned_without_keep(tmp_path):
    g = _graph()
    d = tmp_path / "nested" / "spill"
    oocore_cc(g, spill_dir=d, shards=2)
    assert not d.exists()
    assert active_spill_dirs() == []


def test_explicit_spill_dir_preserves_foreign_files(tmp_path):
    """Cleanup of a caller-named directory only removes spill artifacts."""
    d = tmp_path / "spill"
    d.mkdir()
    (d / "notes.txt").write_text("mine")
    oocore_cc(_graph(), spill_dir=d, shards=2)
    assert (d / "notes.txt").read_text() == "mine"
    assert not (d / "MANIFEST.json").exists()


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------
def test_oocore_spans_and_gauge():
    g = _graph()
    with Tracer() as t:
        _, stats, _ = oocore_cc(g, shards=3)
    assert len(t.find_spans(name="oocore:spill")) == 1
    shard_spans = t.find_spans(name="oocore:shard")
    assert len(shard_spans) == 3
    assert [s.attrs["shard"] for s in shard_spans] == [0, 1, 2]
    assert all(s.attrs["boundary"] >= 0 for s in shard_spans)
    merge_spans = t.find_spans(name="oocore:merge-pass")
    assert len(merge_spans) == 1
    assert merge_spans[0].attrs["hooks"] == stats.merge_hooks
    assert stats.merge_passes == 1 and stats.boundary_pairs > 0
    peaks = [v for _, name, v in t.gauges if name == "oocore.peak_resident_bytes"]
    assert len(peaks) == 1 and peaks[0] > 0
    assert t.counters["oocore.shards"] == 3


def test_oocore_checkpoint_spans_and_bytes():
    """One checkpoint span per shard and none for the merge; the stream
    writes each label slice once, so the run writes one parent array."""
    g = _graph(200, 500, seed=7)
    n = g.num_vertices
    with Tracer() as t:
        oocore_cc(g, shards=6)
    spans = t.find_spans(name="oocore:checkpoint")
    assert [s.attrs["shard"] for s in spans] == list(range(6))
    assert sum(s.attrs["bytes"] for s in spans) == 8 * n
    assert t.counters["oocore.checkpoint_bytes"] == 8 * n


def test_stats_to_dict_round():
    g = _graph()
    _, stats, _ = oocore_cc(g, shards=2, memory_budget=min_feasible_budget(g) * 4)
    d = stats.to_dict()
    assert d["num_shards"] == stats.num_shards
    assert d["peak_resident_bytes"] == stats.peak_resident_bytes
    assert d["ceiling"] == stats.ceiling
    assert len(stats.shard_ms) == stats.num_shards


# ----------------------------------------------------------------------
# Crash + resume (the happy-path halves; adversarial cases live in
# test_outofcore_faults.py)
# ----------------------------------------------------------------------
def test_resume_after_worker_crash(tmp_path):
    g = _graph()
    d = tmp_path / "spill"
    plan = FaultPlan([FaultSpec(kind="worker_crash", backend="oocore", at=2)])
    with pytest.raises(WorkerCrashError):
        oocore_cc(g, shards=4, spill_dir=d, fault_plan=plan)
    # The crash leaves resumable state behind...
    assert (d / RESUME_NAME).is_file()
    labels, stats, _ = oocore_cc(g, shards=4, spill_dir=d, resume=True)
    assert np.array_equal(labels, _serial(g))
    assert stats.resumed and stats.skipped_shards == 2
    assert not d.exists()  # ...and the resumed run cleans up
    assert active_spill_dirs() == []


def test_auto_resume_recovers_in_process():
    g = _graph()
    plan = FaultPlan([FaultSpec(kind="worker_crash", backend="oocore", at=1)])
    labels, stats, recovery = oocore_cc(
        g, shards=4, fault_plan=plan, auto_resume=1
    )
    assert np.array_equal(labels, _serial(g))
    assert stats.resumed and stats.skipped_shards == 1
    assert recovery.retries == 1
    assert [a.status for a in recovery.attempts] == ["fault", "ok"]
    assert recovery.attempts[0].faults[0].kind == "worker_crash"
    assert active_spill_dirs() == []


def test_resume_is_bit_identical_to_fresh_run(tmp_path):
    g = _graph(200, 800, seed=9)
    fresh, _, _ = oocore_cc(g, shards=4)
    d = tmp_path / "spill"
    plan = FaultPlan([FaultSpec(kind="worker_crash", backend="oocore", at=3)])
    with pytest.raises(WorkerCrashError):
        oocore_cc(g, shards=4, spill_dir=d, fault_plan=plan)
    resumed, _, _ = oocore_cc(g, shards=4, spill_dir=d, resume=True)
    assert np.array_equal(resumed, fresh)


def test_resume_without_state_runs_fresh(tmp_path):
    g = _graph()
    labels, stats, _ = oocore_cc(g, shards=2, spill_dir=tmp_path / "d",
                                 resume=True)
    assert np.array_equal(labels, _serial(g))
    assert not stats.resumed


def test_top_level_exports():
    assert repro.oocore_cc is oocore_cc
    assert repro.SpilledGraph is SpilledGraph
    assert "oocore" in repro.BACKENDS
