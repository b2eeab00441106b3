"""Tests for the virtual-thread CPU executor and specs."""

import pytest

from repro.cpusim import E5_2687W, X5690, CpuSpec, VirtualThreadPool


class TestSpec:
    def test_presets(self):
        assert E5_2687W.num_threads == 40
        assert X5690.num_threads == 12
        assert E5_2687W.fork_join_overhead_s > X5690.fork_join_overhead_s

    def test_invalid(self):
        with pytest.raises(ValueError):
            CpuSpec("x", 0)
        with pytest.raises(ValueError):
            CpuSpec("x", 4, relative_core_speed=0)


class TestChunking:
    def test_static_chunks_cover_range(self):
        pool = VirtualThreadPool(CpuSpec("t", 4))
        chunks = pool._chunks(100, "static", None)
        assert chunks[0][0] == 0
        assert chunks[-1][1] == 100
        covered = sum(b - a for a, b in chunks)
        assert covered == 100

    def test_guided_chunks_decrease(self):
        pool = VirtualThreadPool(CpuSpec("t", 4))
        chunks = pool._chunks(1000, "guided", None)
        sizes = [b - a for a, b in chunks]
        assert sizes[0] > sizes[-1]
        assert sum(sizes) == 1000

    def test_dynamic_chunks(self):
        pool = VirtualThreadPool(CpuSpec("t", 4))
        chunks = pool._chunks(64, "dynamic", 8)
        assert all(b - a <= 8 for a, b in chunks)

    def test_empty_range(self):
        pool = VirtualThreadPool(CpuSpec("t", 4))
        assert pool._chunks(0, "guided", None) == []

    def test_unknown_schedule(self):
        pool = VirtualThreadPool(CpuSpec("t", 4))
        with pytest.raises(ValueError):
            pool._chunks(10, "fractal", None)


class TestParallelFor:
    def test_body_sees_every_index(self):
        pool = VirtualThreadPool(CpuSpec("t", 4))
        seen = []

        def body(start, stop):
            seen.extend(range(start, stop))

        pool.parallel_for(57, body)
        assert sorted(seen) == list(range(57))

    def test_region_recorded(self):
        pool = VirtualThreadPool(CpuSpec("t", 2))
        pool.parallel_for(10, lambda a, b: None, name="r1")
        assert len(pool.regions) == 1
        r = pool.regions[0]
        assert r.name == "r1"
        assert r.span_s <= r.work_s + 1e-12
        assert r.modeled_s >= 0

    def test_more_threads_lower_span(self, monkeypatch):
        # The pool reads a fake clock that each body call advances by
        # 0.2 ms, so the spans are exact: all 32 chunks on one thread,
        # two chunks on each of 16.
        from types import SimpleNamespace

        from repro.cpusim import pool as pool_module

        now = [0.0]
        monkeypatch.setattr(pool_module, "time", SimpleNamespace(perf_counter=lambda: now[0]))

        def body(start, stop):
            now[0] += 0.0002

        small = VirtualThreadPool(CpuSpec("s", 1))
        big = VirtualThreadPool(CpuSpec("b", 16))
        small.parallel_for(32, body, schedule="static", chunk=1)
        big.parallel_for(32, body, schedule="static", chunk=1)
        assert small.regions[0].span_s == pytest.approx(32 * 0.0002)
        assert big.regions[0].span_s == pytest.approx(2 * 0.0002)

    def test_modeled_time_accumulates(self):
        pool = VirtualThreadPool(CpuSpec("t", 2))
        pool.parallel_for(4, lambda a, b: None)
        pool.parallel_for(4, lambda a, b: None)
        assert pool.modeled_time_s >= 2 * pool.spec.fork_join_overhead_s
        assert pool.modeled_time_ms == pytest.approx(pool.modeled_time_s * 1e3)

    def test_reset(self):
        pool = VirtualThreadPool(CpuSpec("t", 2))
        pool.parallel_for(4, lambda a, b: None)
        pool.reset()
        assert pool.modeled_time_s == 0
        assert pool.regions == []


class TestSerialAndBulk:
    def test_serial_charges_full_time(self):
        pool = VirtualThreadPool(CpuSpec("t", 8, relative_core_speed=2.0))
        result = pool.serial(lambda: 42, name="s")
        assert result == 42
        r = pool.regions[0]
        assert r.serial
        assert r.modeled_s == pytest.approx(r.work_s / 2.0)

    def test_bulk_divides_by_threads(self):
        pool = VirtualThreadPool(CpuSpec("t", 10))
        pool.parallel_bulk(lambda: sum(range(10000)), name="b")
        r = pool.regions[0]
        assert r.span_s == pytest.approx(r.work_s / 10)

    def test_core_speed_scales_modeled_time(self):
        fast = VirtualThreadPool(CpuSpec("f", 1, relative_core_speed=2.0))
        slow = VirtualThreadPool(CpuSpec("s", 1, relative_core_speed=1.0))

        def body(a, b):
            sum(range(2000))

        fast.parallel_for(16, body, schedule="static", chunk=16)
        slow.parallel_for(16, body, schedule="static", chunk=16)
        # Same measured work, halved modeled time on the faster core
        # (allow slack for timing noise).
        ratio = slow.regions[0].modeled_s / max(fast.regions[0].modeled_s, 1e-12)
        assert ratio > 1.2
