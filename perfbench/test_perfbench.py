"""Tests of the benchmark's own judge and failure accounting.

Run from the root of a checkout::

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import workloads
from perfbench.inputs import (
    COMPONENT,
    DELETE,
    INSERT,
    SAME,
    ServicePlan,
    make_graph_inputs,
    reference_labels,
    unique_edges,
)
from perfbench.measure import covered_ms
from perfbench.workloads import ScaleoutPhase, ServicePhase, StaticPhase, build_service
from repro.graph import from_arc_arrays

ROOT = Path(__file__).resolve().parent.parent


def _small_graphs():
    rng = np.random.default_rng(0)
    out = []
    for k, n in enumerate((300, 500)):
        src = rng.integers(0, n, size=n)
        dst = rng.integers(0, n, size=n)
        out.append((f"small{k}", src, dst, n))
    return out


def test_reference_labels_are_minimum_members():
    src = np.array([4, 1, 5])
    dst = np.array([2, 3, 5])
    assert reference_labels(src, dst, 6).tolist() == [0, 1, 2, 1, 2, 5]


def test_graph_inputs_repeat_for_a_seed():
    a = make_graph_inputs("skewed", 3)[3]
    b = make_graph_inputs("skewed", 3)[3]
    c = make_graph_inputs("skewed", 4)[3]
    assert np.array_equal(a[1], b[1]) and np.array_equal(a[2], b[2])
    assert not np.array_equal(a[2], c[2])


def _static(graphs, refs, rounds):
    phase = StaticPhase(graphs, refs)
    phase.warm()
    for _ in range(rounds):
        phase.round()
    return phase


def test_static_counts_a_wrong_label_as_failed(monkeypatch):
    raw = _small_graphs()
    graphs = [from_arc_arrays(s, d, n, name=name) for name, s, d, n in raw]
    refs = [reference_labels(s, d, n) for _, s, d, n in raw]
    tally = _static(graphs, refs, 2).tally
    assert (tally.attempted, tally.failed, tally.wrong) == (4, 0, 0)

    real = workloads.connected_components

    def corrupt(graph, **kw):
        result = real(graph, **kw)
        labels = result.labels.copy()
        labels[-1] = labels[-1] + 1 if labels[-1] == 0 else 0
        result.labels = labels
        return result

    monkeypatch.setattr(workloads, "connected_components", corrupt)
    phase = _static(graphs, refs, 2)
    assert (phase.tally.attempted, phase.tally.failed, phase.tally.wrong) == (4, 4, 4)
    assert phase.times == [[], []]


def test_static_counts_an_exception_as_failed(monkeypatch):
    raw = _small_graphs()
    graphs = [from_arc_arrays(s, d, n, name=name) for name, s, d, n in raw]
    refs = [reference_labels(s, d, n) for _, s, d, n in raw]
    real = workloads.connected_components
    calls = []

    def flaky(graph, **kw):
        calls.append(graph.name)
        if len(calls) > len(graphs):  # the warm-up passes, timed calls raise
            raise RuntimeError("boom")
        return real(graph, **kw)

    monkeypatch.setattr(workloads, "connected_components", flaky)
    tally = _static(graphs, refs, 1).tally
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 2, 0)


def _plan(ops=400):
    rng = np.random.default_rng(5)
    n = 400
    src = np.arange(n - 1)
    dst = src + 1
    extra = rng.integers(0, n, size=(2, 300))
    src, dst = np.concatenate([src, extra[0]]), np.concatenate([dst, extra[1]])
    plan = ServicePlan(src, dst, n, 7, ops=ops, write_every=4, delete_every=5,
                       wait_every=3, checkpoints=3)
    return plan, src, dst, n


def test_service_plan_touches_each_edge_once():
    plan, src, dst, n = _plan()
    writes = np.isin(plan.kinds, (INSERT, DELETE))
    keys = np.minimum(plan.a, plan.b)[writes] * n + np.maximum(plan.a, plan.b)[writes]
    assert np.unique(keys).size == keys.size
    lo, hi = unique_edges(src, dst, n)
    base = set((plan.base_src * n + plan.base_dst).tolist())
    inserted = keys[plan.kinds[writes] == INSERT]
    deleted = keys[plan.kinds[writes] == DELETE]
    assert not base & set(inserted.tolist())
    assert set(deleted.tolist()) <= base
    assert base | set(inserted.tolist()) == set((lo * n + hi).tolist())


def _answer_after_writes_before(plan, op):
    """The reference answer of read ``op`` with every earlier write
    applied, recomputed from scratch."""
    n = plan.n
    before = np.arange(op)
    ins = before[plan.kinds[:op] == INSERT]
    dels = before[plan.kinds[:op] == DELETE]
    keep = ~np.isin(plan.base_src * n + plan.base_dst, plan.a[dels] * n + plan.b[dels])
    labels = reference_labels(np.concatenate([plan.base_src[keep], plan.a[ins]]),
                              np.concatenate([plan.base_dst[keep], plan.b[ins]]), n)
    a, b = plan.a[op], plan.b[op]
    return int(labels[a] == labels[b]) if plan.kinds[op] == SAME else int(labels[a])


def test_service_plan_accepts_the_state_after_the_submitted_writes():
    plan, *_ = _plan()
    reads = np.flatnonzero(np.isin(plan.kinds, (SAME, COMPONENT)))
    width = (plan.accept[reads] >= 0).sum(axis=1)
    assert width.min() == 1 and width.max() > 1
    for op in reads[::5].tolist():
        assert _answer_after_writes_before(plan, op) in plan.accept[op]
    # Right after a waited write only one state is possible.
    waited = np.flatnonzero(plan.wait)
    for op in (waited[:-1] + 1).tolist():
        assert plan.accept[op].tolist().count(-1) == plan.accept.shape[1] - 1


def _service(svc, plan):
    phase = ServicePhase(svc, plan, timeout_s=10)
    for _ in plan.checkpoints:
        phase.chunk()
    phase.close()
    return phase


def test_service_run_passes_and_catches_a_wrong_snapshot(monkeypatch):
    plan, *_ = _plan()
    inputs = workloads.Inputs(
        workload="test", seed=7, names=["small"], arrays=[], references=[],
        service_index=0, service_plan=plan, scaleout_index=0,
    )
    phase = _service(build_service(inputs), plan)
    assert phase.tally.failed == 0 and phase.tally.attempted == plan.ops + 3
    assert len(phase.visible_ms) == int(plan.wait.sum())
    assert phase.ops == plan.ops

    svc = build_service(inputs)
    real = svc.labels_snapshot

    def wrong():
        labels = real().copy()
        labels[0] = 1
        return labels

    monkeypatch.setattr(svc, "labels_snapshot", wrong)
    tally = _service(svc, plan).tally
    assert (tally.failed, tally.wrong) == (3, 3)


def test_service_counts_a_wrong_read_as_failed(monkeypatch):
    plan, *_ = _plan()
    inputs = workloads.Inputs(
        workload="test", seed=7, names=["small"], arrays=[], references=[],
        service_index=0, service_plan=plan, scaleout_index=0,
    )
    phase = _service(build_service(inputs), plan)
    reads = int(np.isin(plan.kinds, (SAME, COMPONENT)).sum())
    assert phase.tally.failed == 0 and phase.reads_checked == reads

    svc = build_service(inputs)
    real = svc.component_of
    monkeypatch.setattr(svc, "component_of", lambda v: real(v) + plan.n)  # no vertex has it
    tally = _service(svc, plan).tally
    wrong = int((plan.kinds == COMPONENT).sum())
    assert (tally.failed, tally.wrong) == (wrong, wrong)


def test_scaleout_counts_protocol_errors(monkeypatch, tmp_path):
    from repro.errors import DistProtocolError

    name, src, dst, n = _small_graphs()[0]
    graph = from_arc_arrays(src, dst, n, name=name)
    ref = reference_labels(src, dst, n)
    phase = ScaleoutPhase(graph, ref, tmp_path)
    phase.round()
    assert phase.tally.failed == 0 and phase.tally.attempted == 3 and len(phase.runs) == 3

    real = workloads.connected_components

    def lossy(graph, *, backend="numpy", **kw):
        if backend == "distributed":
            raise DistProtocolError("exhausted")
        return real(graph, backend=backend, **kw)

    monkeypatch.setattr(workloads, "connected_components", lossy)
    phase = ScaleoutPhase(graph, ref, tmp_path)
    phase.round()
    assert (phase.tally.attempted, phase.tally.failed) == (3, 1)
    assert phase.times["distributed"] == []
    assert list(tmp_path.iterdir()) == []


def test_scaleout_counts_an_oocore_run_over_budget(monkeypatch, tmp_path):
    name, src, dst, n = _small_graphs()[0]
    graph = from_arc_arrays(src, dst, n, name=name)
    ref = reference_labels(src, dst, n)
    real = workloads.connected_components

    def overspent(graph, *, backend="numpy", **kw):
        result = real(graph, backend=backend, **kw)
        if backend == "oocore":
            result.stats.peak_resident_bytes = kw["memory_budget"] + 1
        return result

    monkeypatch.setattr(workloads, "connected_components", overspent)
    phase = ScaleoutPhase(graph, ref, tmp_path)
    phase.round()
    assert (phase.tally.failed, phase.tally.wrong) == (1, 1)
    assert phase.times["oocore"] == []


def test_covered_ms_unions_overlaps():
    class S:
        def __init__(self, start, dur):
            self.start_ms, self.duration_ms = start, dur

    parent = S(0, 10)
    assert covered_ms(parent, [S(1, 2), S(2, 3), S(8, 5)]) == pytest.approx(6.0)


def test_run_refuses_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mesh", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
