"""Fault-free distributed merge: correctness against the serial oracle,
round/byte accounting, registry dispatch, and the SimNetwork / Backoff
unit surfaces."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import connected_components
from repro.dist import (
    MESSAGE_KINDS,
    Backoff,
    DistConfig,
    Message,
    ShardState,
    SimNetwork,
    dist_cc,
)
from repro.errors import UnknownOptionError
from repro.generators.suite import load
from repro.graph.build import empty_graph, from_edges

# Fast-failure knobs for tests: chaos-free runs never hit a deadline,
# so short timeouts only make real bugs fail fast.
FAST = dict(rpc_timeout=0.05)


def _serial(g):
    return connected_components(g, backend="numpy", full_result=False)


def _graphs():
    return [
        from_edges([(0, 1), (1, 2), (0, 2), (3, 4)], num_vertices=6, name="tri+edge"),
        from_edges([(i, i + 1) for i in range(19)], num_vertices=20, name="path20"),
        from_edges([(0, i) for i in range(1, 12)], num_vertices=12, name="star12"),
        from_edges([], num_vertices=7, name="isolates"),
    ]


class TestCorrectness:
    @pytest.mark.parametrize("hosts", [1, 2, 3, 5])
    def test_bit_identical_to_serial(self, hosts):
        for g in _graphs():
            res = dist_cc(g, hosts=hosts, **FAST)
            np.testing.assert_array_equal(res.labels, _serial(g))
            assert res.backend == "distributed"

    @pytest.mark.parametrize("name", ["rmat16.sym", "internet"])
    def test_suite_tiny(self, name):
        g = load(name, "tiny")
        res = dist_cc(g, hosts=4, **FAST)
        np.testing.assert_array_equal(res.labels, _serial(g))

    @pytest.mark.parametrize("partitioner", ["range", "degree"])
    def test_partitioners(self, partitioner):
        g = load("rmat16.sym", "tiny")
        res = dist_cc(g, hosts=3, partitioner=partitioner, **FAST)
        np.testing.assert_array_equal(res.labels, _serial(g))

    def test_empty_graph(self):
        g = empty_graph(5)
        res = dist_cc(g, hosts=3, **FAST)
        np.testing.assert_array_equal(res.labels, np.arange(5))

    def test_more_hosts_than_vertices(self):
        g = from_edges([(0, 1)], num_vertices=2)
        res = dist_cc(g, hosts=16, **FAST)
        np.testing.assert_array_equal(res.labels, [0, 0])

    def test_deterministic_across_runs(self):
        g = load("rmat16.sym", "tiny")
        a = dist_cc(g, hosts=4, seed=3, **FAST)
        b = dist_cc(g, hosts=4, seed=3, **FAST)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert a.stats.rounds == b.stats.rounds


class TestStats:
    def test_round_and_byte_accounting(self):
        g = load("rmat16.sym", "tiny")
        res = dist_cc(g, hosts=4, **FAST)
        s = res.stats
        assert s.hosts == 4
        assert s.rounds >= 1
        assert s.bytes_on_wire > 0
        assert s.updates_applied <= s.updates_sent
        assert s.reassignments == 0 and s.dead_hosts == []
        # CCResult.__getattr__ falls through to stats.
        assert res.rounds == s.rounds
        assert res.recovery is None  # clean run: nothing to report

    def test_single_host_no_exchange(self):
        g = load("rmat16.sym", "tiny")
        res = dist_cc(g, hosts=1, **FAST)
        assert res.stats.updates_sent == 0
        np.testing.assert_array_equal(res.labels, _serial(g))

    def test_stats_to_dict_round_trips_json(self):
        import json

        res = dist_cc(from_edges([(0, 1)], num_vertices=3), hosts=2, **FAST)
        d = json.loads(json.dumps(res.stats.to_dict()))
        assert d["hosts"] == 2 and d["rounds"] >= 1


class TestRegistry:
    def test_dispatch(self, triangle_plus_edge):
        res = connected_components(
            triangle_plus_edge, backend="distributed", hosts=3, rpc_timeout=0.05
        )
        np.testing.assert_array_equal(res.labels, _serial(triangle_plus_edge))

    def test_full_result_false(self, triangle_plus_edge):
        labels = connected_components(
            triangle_plus_edge, backend="distributed", hosts=2,
            rpc_timeout=0.05, full_result=False,
        )
        np.testing.assert_array_equal(labels, _serial(triangle_plus_edge))

    def test_unknown_option_rejected(self, triangle_plus_edge):
        with pytest.raises(UnknownOptionError):
            connected_components(
                triangle_plus_edge, backend="distributed", bogus_knob=1
            )


class TestShardSolve:
    def test_full_slice_keeps_all_incident_arcs(self):
        # u < v filtering would lose the (2,1) arc seen from shard [2,4).
        from repro.shard.worker import solve_slice_all_arcs

        g = from_edges([(1, 2), (2, 3)], num_vertices=4)
        rp = g.row_ptr[2:5]
        labels, bu, bv = solve_slice_all_arcs(rp, g.col_idx[rp[0] : rp[-1]], 2, 4)
        assert labels.size == 2
        assert set(zip(bu.tolist(), bv.tolist())) == {(2, 1)}


def _reference_index(graph, plan, shard):
    """The boundary index built the way it was before the one-sort
    build: a stable argsort by remote vertex plus ``np.unique``."""
    from repro.shard.worker import solve_slice_all_arcs

    start, end = plan.range_of(shard)
    rp = graph.row_ptr[start : end + 1]
    _, bu, bv = solve_slice_all_arcs(rp, graph.col_idx[rp[0] : rp[-1]], start, end)
    order = np.argsort(bv, kind="stable")
    bv_sorted = bv[order]
    ext = np.unique(bv_sorted)
    off = np.append(np.searchsorted(bv_sorted, ext), bv_sorted.size)
    tgt = plan.shard_of(bv)
    out = {t: np.unique(bu[tgt == t]) for t in np.unique(tgt).tolist()}
    return bu[order], ext, off, out


class TestBoundaryIndex:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_one_sort_index_matches_argsort_reference(self, seed):
        from repro.shard.partition import make_plan

        rng = np.random.default_rng(seed)
        n = 400
        g = from_edges(rng.integers(0, n, size=(900, 2)), num_vertices=n)
        plan = make_plan(g, 3, "range")
        for shard in range(plan.num_shards):
            st_ = ShardState(g, plan, shard)
            in_u, ext, off, out = _reference_index(g, plan, shard)
            assert st_._in_u.tolist() == in_u.tolist()
            assert st_.ext_verts.tolist() == ext.tolist()
            assert st_._in_off.tolist() == off.tolist()
            assert st_.targets() == sorted(out)
            for t, verts in out.items():
                assert st_.out_verts[t].tolist() == verts.tolist()

    def test_index_build_is_a_round_span(self):
        from repro.observe import Tracer

        g = load("rmat16.sym", "tiny")
        with Tracer() as t:
            dist_cc(g, hosts=3, **FAST)
        index = t.find_spans(name="dist:index")
        assert sorted(s.attrs["shard"] for s in index) == [0, 1, 2]
        round0 = [s for s in t.find_spans(name="dist:round") if s.attrs["round"] == 0]
        assert all(s.parent == round0[0].index for s in index)
        assert all(0 <= s.duration_ms <= round0[0].duration_ms for s in index)


def _loop_apply_remote(state, verts, labels):
    """``ShardState.apply_remote`` as a per-vertex loop (the formulation
    the vectorized one replaced), on the same state."""
    if verts.size == 0 or state.ext_verts.size == 0:
        return False
    idx = np.minimum(np.searchsorted(state.ext_verts, verts), state.ext_verts.size - 1)
    keep = (state.ext_verts[idx] == verts) & (labels < state.ext_best[idx])
    pos, labs = idx[keep], labels[keep]
    state.ext_best[pos] = labs
    changed = False
    for p, c in zip(pos.tolist(), labs.tolist()):
        slots = state._slots(state._in_u[state._in_off[p] : state._in_off[p + 1]])
        lower = c < state.cur[slots]
        if lower.any():
            state.cur[slots[lower]] = c
            changed = True
    return changed


class TestApplyRemote:
    @staticmethod
    def _state(rng, start, size, n_ext, n):
        state = ShardState.__new__(ShardState)
        state.start, state.end, state._inf = start, start + size, n
        state.init = start + rng.integers(0, size, size=size)
        state.cur = rng.integers(0, n, size=size)
        state.ext_verts = np.unique(rng.integers(start + size, n, size=n_ext))
        counts = rng.integers(0, 4, size=state.ext_verts.size)
        state._in_off = np.concatenate(([0], np.cumsum(counts)))
        state._in_u = rng.integers(start, start + size, size=int(counts.sum()))
        state.ext_best = np.where(
            rng.random(state.ext_verts.size) < 0.5,
            n,
            rng.integers(0, n, size=state.ext_verts.size),
        )
        return state

    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(1, 30),
        n_ext=st.integers(0, 20),
        batches=st.integers(1, 4),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_per_vertex_loop(self, seed, size, n_ext, batches):
        rng = np.random.default_rng(seed)
        start, n = 10, 10 + size + 25
        vec = self._state(rng, start, size, n_ext, n)
        loop = copy.deepcopy(vec)
        for _ in range(batches):
            # Candidates at known remote vertices (duplicates included)
            # and at vertices this shard never touches.
            k = int(rng.integers(0, 12))
            verts = rng.integers(start + size, n, size=k)
            labels = rng.integers(0, n, size=k)
            assert vec.apply_remote(verts, labels) == _loop_apply_remote(
                loop, verts, labels
            )
            assert np.array_equal(vec.cur, loop.cur)
            assert np.array_equal(vec.ext_best, loop.ext_best)


class TestSimNetwork:
    def test_send_recv_in_order(self):
        net = SimNetwork(2)
        try:
            net.begin_round(1)
            for seq in range(3):
                net.send(Message("update", 0, 1, 1, seq, {"x": seq}))
            got = [net.recv(1, timeout=1.0).payload["x"] for _ in range(3)]
            assert got == [0, 1, 2]
            assert net.recv(1, timeout=0.01) is None
        finally:
            net.close()

    def test_recv_after_close_returns_none(self):
        net = SimNetwork(2)
        net.close()
        assert net.recv(0, timeout=5.0) is None

    def test_stats_and_trace(self):
        net = SimNetwork(2, trace_messages=True)
        try:
            net.begin_round(1)
            net.send(Message("report", 0, 2, 1, 0, {}))
            assert net.stats.sent == 1 and net.stats.delivered == 1
            assert net.stats.bytes_on_wire > 0
            (entry,) = net.trace
            assert entry["kind"] == "report" and entry["fate"] == "delivered"
        finally:
            net.close()

    def test_message_kinds_frozen(self):
        assert MESSAGE_KINDS == ("proceed", "update", "ack", "report", "halt")

    def test_nbytes_counts_arrays(self):
        small = Message("update", 0, 1, 1, 0, {"v": np.arange(2)})
        big = Message("update", 0, 1, 1, 0, {"v": np.arange(200)})
        assert big.nbytes() > small.nbytes() >= 32


class TestBackoff:
    def test_monotone_until_cap(self):
        b = Backoff(base=0.1, factor=2.0, cap=0.5, jitter=0.0, seed=0)
        delays = [b.delay(a) for a in range(5)]
        assert delays == sorted(delays)
        assert delays[0] == pytest.approx(0.1)
        assert max(delays) == pytest.approx(0.5)

    def test_jitter_bounded_and_seeded(self):
        a = Backoff(base=0.1, factor=2.0, cap=2.0, jitter=0.5, seed=7)
        b = Backoff(base=0.1, factor=2.0, cap=2.0, jitter=0.5, seed=7)
        for attempt in range(4):
            d1, d2 = a.delay(attempt), b.delay(attempt)
            assert d1 == d2  # same seed, same schedule
            lo = min(2.0, 0.1 * 2.0**attempt)
            assert lo <= d1 <= lo * 1.5

    def test_for_config_varies_by_host(self):
        cfg = DistConfig(jitter=0.5, seed=11)
        d0 = Backoff.for_config(cfg, who=0).delay(1)
        d1 = Backoff.for_config(cfg, who=1).delay(1)
        assert d0 != d1


class TestConfig:
    def test_effective_round_timeout_default(self):
        cfg = DistConfig(rpc_timeout=0.2)
        assert cfg.effective_round_timeout() == pytest.approx(0.8)
        assert DistConfig(round_timeout=1.5).effective_round_timeout() == 1.5
