"""Adversarial fault wall for the external-memory path.

The invariant under every injected fault: the run either recovers to
labels bit-identical to the serial oracle, or fails loudly with a
checksum/format error — a damaged spill can never produce silently
wrong labels.
"""

import json

import numpy as np
import pytest

from repro.core.api import connected_components
from repro.errors import (
    MergeCrashError,
    SpillChecksumError,
    SpillFormatError,
    SpillTruncatedError,
    WorkerCrashError,
)
from repro.graph.build import from_edges
from repro.graph.spill import SpilledGraph
from repro.observe import Tracer
from repro.outofcore import PARENT_CKPT_NAME, RESUME_NAME, active_spill_dirs, oocore_cc
from repro.resilience import FAULT_KINDS, OOCORE_FAULT_KINDS, FaultPlan, FaultSpec


def _graph(n=120, m=360, seed=5):
    rng = np.random.default_rng(seed)
    return from_edges(rng.integers(0, n, size=(m, 2)), num_vertices=n)


def _serial(g):
    return connected_components(g, backend="serial", full_result=False)


def _spec(kind, at=1, **kw):
    return FaultPlan([FaultSpec(kind=kind, backend="oocore", at=at, **kw)])


# ----------------------------------------------------------------------
# Spill damage with the source graph available: deterministic repair
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["spill_corrupt", "spill_truncate"])
@pytest.mark.parametrize("where", ["colidx", "rowptr"])
def test_spill_damage_repaired_by_respill(kind, where):
    g = _graph()
    labels, stats, recovery = oocore_cc(
        g, shards=4, fault_plan=_spec(kind, at=1, where=where)
    )
    assert np.array_equal(labels, _serial(g))
    assert stats.respilled_shards == 1
    assert recovery.faults[0].kind == kind
    assert active_spill_dirs() == []


def test_respill_restores_manifest_checksums(tmp_path):
    """Repair is deterministic: the re-spilled bytes match the original
    manifest checksums exactly, so the kept spill verifies clean."""
    g = _graph()
    d = tmp_path / "spill"
    _, stats, _ = oocore_cc(
        g, shards=4, spill_dir=d, keep_spill=True,
        fault_plan=_spec("spill_corrupt", at=2),
    )
    assert stats.respilled_shards == 1
    sp = SpilledGraph.open(d)
    for i in range(sp.num_shards):
        sp.verify_shard(i)  # would raise on any mismatch


def test_multiple_damaged_shards_all_repaired():
    g = _graph()
    plan = FaultPlan([
        FaultSpec(kind="spill_corrupt", backend="oocore", at=0),
        FaultSpec(kind="spill_truncate", backend="oocore", at=3),
    ])
    labels, stats, recovery = oocore_cc(g, shards=4, fault_plan=plan)
    assert np.array_equal(labels, _serial(g))
    assert stats.respilled_shards == 2
    assert {ev.kind for ev in recovery.faults} == {
        "spill_corrupt", "spill_truncate",
    }


# ----------------------------------------------------------------------
# Spill damage without a source graph: loud failure, never wrong labels
# ----------------------------------------------------------------------
def test_corrupt_spilled_source_fails_loudly(tmp_path):
    g = _graph()
    sp = g.spill(tmp_path, 4)
    victim = tmp_path / sp.shard_entry(2).colidx_file
    size = victim.stat().st_size
    with open(victim, "r+b") as f:
        f.seek(size // 2)
        byte = f.read(1)
        f.seek(size // 2)
        f.write(bytes([byte[0] ^ 0xFF]))
    with pytest.raises(SpillChecksumError, match="checksum mismatch"):
        oocore_cc(SpilledGraph(tmp_path, sp.manifest))


def test_truncated_spilled_source_fails_loudly(tmp_path):
    g = _graph()
    sp = g.spill(tmp_path, 4)
    victim = tmp_path / sp.shard_entry(1).colidx_file
    with open(victim, "r+b") as f:
        f.truncate(victim.stat().st_size - 8)
    # Either layer may catch it — reopening fails the size check;
    # streaming a stale handle fails the per-shard verification.
    with pytest.raises(SpillTruncatedError):
        oocore_cc(SpilledGraph.open(tmp_path))


# ----------------------------------------------------------------------
# Crashes: worker_crash mid-stream, merge_crash mid-merge
# ----------------------------------------------------------------------
def test_merge_crash_then_manual_resume(tmp_path):
    g = _graph()
    d = tmp_path / "spill"
    with pytest.raises(MergeCrashError):
        oocore_cc(g, shards=4, spill_dir=d, fault_plan=_spec("merge_crash", at=0))
    # All shards completed before the merge crashed.
    assert (d / RESUME_NAME).is_file()
    labels, stats, _ = oocore_cc(g, shards=4, spill_dir=d, resume=True)
    assert np.array_equal(labels, _serial(g))
    assert stats.skipped_shards == 4


def test_merge_crash_auto_resume():
    g = _graph()
    labels, stats, recovery = oocore_cc(
        g, shards=4, fault_plan=_spec("merge_crash", at=0), auto_resume=1
    )
    assert np.array_equal(labels, _serial(g))
    assert recovery.retries == 1
    assert recovery.attempts[0].error_kind == "merge_crash"
    assert active_spill_dirs() == []


def test_merge_crash_resume_solves_no_shard(tmp_path):
    """A crash in the merge resumes from the end of the stream: every
    shard is restored from its checkpointed slice, none is solved again,
    and the one merge pass runs again."""
    g = _graph(200, 800, seed=13)
    d = tmp_path / "spill"
    with pytest.raises(MergeCrashError):
        oocore_cc(g, shards=6, spill_dir=d, fault_plan=_spec("merge_crash", at=0))
    with Tracer() as t:
        labels, stats, _ = oocore_cc(g, shards=6, spill_dir=d, resume=True)
    assert np.array_equal(labels, _serial(g))
    assert t.find_spans(name="oocore:shard") == []
    assert stats.skipped_shards == 6
    assert stats.merge_passes == 1


def test_merge_crash_past_entry_never_fires():
    """The merge has one trigger point, ``at=0``; a later ordinal arms
    nothing."""
    g = _graph()
    labels, _, recovery = oocore_cc(
        g, shards=4, fault_plan=_spec("merge_crash", at=1)
    )
    assert np.array_equal(labels, _serial(g))
    assert recovery.faults == []


def test_persistent_crash_exhausts_auto_resume():
    g = _graph()
    plan = FaultPlan([
        FaultSpec(kind="worker_crash", backend="oocore", at=0, attempt=-1)
    ])
    with pytest.raises(WorkerCrashError):
        oocore_cc(g, shards=4, fault_plan=plan, auto_resume=2)
    assert active_spill_dirs() == []  # exhausted temp dir not leaked


def test_crash_faults_do_not_arm_for_other_backends():
    g = _graph()
    plan = FaultPlan([FaultSpec(kind="worker_crash", backend="sharded", at=0)])
    labels, _, recovery = oocore_cc(g, shards=2, fault_plan=plan)
    assert np.array_equal(labels, _serial(g))
    assert recovery.faults == []


# ----------------------------------------------------------------------
# Resume-state integrity
# ----------------------------------------------------------------------
def test_corrupt_parent_checkpoint_rejected(tmp_path):
    g = _graph()
    d = tmp_path / "spill"
    with pytest.raises(WorkerCrashError):
        oocore_cc(g, shards=4, spill_dir=d, fault_plan=_spec("worker_crash", at=2))
    ckpt = d / PARENT_CKPT_NAME
    data = bytearray(ckpt.read_bytes())
    data[8] ^= 0xFF
    ckpt.write_bytes(bytes(data))
    with pytest.raises(SpillChecksumError, match="refusing to resume"):
        oocore_cc(g, shards=4, spill_dir=d, resume=True)


def _crash_mid_stream(tmp_path, g, at=3, shards=6):
    """Crash before shard ``at``; returns the spill dir and its ranges."""
    d = tmp_path / "spill"
    with pytest.raises(WorkerCrashError):
        oocore_cc(
            g, shards=shards, spill_dir=d, fault_plan=_spec("worker_crash", at=at)
        )
    return d, SpilledGraph.open(d).plan().ranges()


def test_corrupt_completed_slice_rejected(tmp_path):
    g = _graph(200, 500, seed=11)
    d, ranges = _crash_mid_stream(tmp_path, g)
    s, e = ranges[1]
    assert e > s
    ckpt = d / PARENT_CKPT_NAME
    data = bytearray(ckpt.read_bytes())
    data[8 * s + 3] ^= 0xFF
    ckpt.write_bytes(bytes(data))
    with pytest.raises(SpillChecksumError, match="refusing to resume"):
        oocore_cc(g, shards=6, spill_dir=d, resume=True)


def test_garbage_in_uncompleted_slice_ignored(tmp_path):
    """Only completed shards' slices are read back on resume, so bytes
    under a never-completed shard cannot reach the labels."""
    g = _graph(200, 500, seed=11)
    d, ranges = _crash_mid_stream(tmp_path, g)
    s, e = ranges[4]
    assert e > s
    ckpt = d / PARENT_CKPT_NAME
    data = bytearray(ckpt.read_bytes())
    data[8 * s : 8 * e] = np.random.default_rng(0).bytes(8 * (e - s))
    ckpt.write_bytes(bytes(data))
    labels, stats, _ = oocore_cc(g, shards=6, spill_dir=d, resume=True)
    assert np.array_equal(labels, _serial(g))
    assert stats.skipped_shards == 3


@pytest.mark.parametrize("version", ["v1", "v2"])
def test_v1_resume_state_rejected(tmp_path, version):
    g = _graph()
    d, _ = _crash_mid_stream(tmp_path, g, at=2, shards=4)
    path = d / RESUME_NAME
    state = json.loads(path.read_text())
    state["schema"] = f"repro.outofcore/resume/{version}"
    path.write_text(json.dumps(state))
    with pytest.raises(SpillFormatError, match="schema"):
        oocore_cc(g, shards=4, spill_dir=d, resume=True)


def test_corrupt_boundary_file_rejected(tmp_path):
    g = _graph(200, 800, seed=3)
    d = tmp_path / "spill"
    with pytest.raises(MergeCrashError):
        oocore_cc(g, shards=4, spill_dir=d, fault_plan=_spec("merge_crash", at=0))
    victim = next(p for p in sorted(d.iterdir())
                  if p.name.startswith("boundary_") and p.stat().st_size)
    data = bytearray(victim.read_bytes())
    data[0] ^= 0xFF
    victim.write_bytes(bytes(data))
    with pytest.raises(SpillChecksumError, match="refusing to resume"):
        oocore_cc(g, shards=4, spill_dir=d, resume=True)


# ----------------------------------------------------------------------
# FaultPlan plumbing for the new kinds
# ----------------------------------------------------------------------
def test_new_kinds_registered():
    for kind in ("spill_corrupt", "spill_truncate", "merge_crash"):
        assert kind in FAULT_KINDS
        assert kind in OOCORE_FAULT_KINDS
    assert "worker_crash" in OOCORE_FAULT_KINDS


def test_fault_plan_json_roundtrip_with_new_kinds():
    plan = FaultPlan([
        FaultSpec(kind="spill_corrupt", backend="oocore", at=1, where="rowptr"),
        FaultSpec(kind="spill_truncate", backend="oocore", at=0),
        FaultSpec(kind="merge_crash", backend="oocore", at=2, attempt=-1),
    ], seed=7, name="oocore-chaos")
    back = FaultPlan.from_json(plan.to_json())
    assert back.faults == plan.faults
    assert back.seed == 7 and back.name == "oocore-chaos"


def test_random_plan_for_oocore_backend_samples_oocore_kinds():
    plan = FaultPlan.random(123, backends=("oocore",), num_faults=8)
    assert plan.faults
    for spec in plan.faults:
        assert spec.backend == "oocore"
        assert spec.kind in OOCORE_FAULT_KINDS
        assert spec.at < 8  # shard ordinals, not warp counts
        if spec.kind == "merge_crash":
            assert spec.at == 0  # the merge's one trigger point


def test_random_plans_are_deterministic():
    a = FaultPlan.random(55, backends=("oocore", "gpu"))
    b = FaultPlan.random(55, backends=("oocore", "gpu"))
    assert a.faults == b.faults
