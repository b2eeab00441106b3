"""Aggregation helpers shared by the untraced and traced runs."""

from __future__ import annotations

import gc
import math
import resource

import numpy as np


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


def geomean(values) -> float:
    arr = np.asarray(values, dtype=float)
    return float(np.exp(np.log(arr).mean()))


def percentile(values, p: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), p))


def freeze_heap() -> None:
    """Everything alive now lives for the whole run; keep it out of the
    collector's scans so ``gc.collect()`` between timed calls stays cheap."""
    gc.collect()
    gc.freeze()


def reset_peak_rss() -> None:
    """Reset this process's VmHWM so later reads see only what follows."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def vm_hwm_kb() -> int:
    """This process's peak RSS (VmHWM) in KiB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def peak_rss_mb() -> float:
    """Peak RSS since the last :func:`reset_peak_rss`, plus the largest
    peak of any child process reaped so far (the sharded workers)."""
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (vm_hwm_kb() + child_kb) / 1024.0


class PeakLog:
    """Names the phase after which this process's VmHWM first reached
    each new high; ``phase`` ends as the one that set the peak."""

    def __init__(self) -> None:
        self.kb = 0
        self.phase = None

    def note(self, phase: str) -> None:
        kb = vm_hwm_kb()
        if kb > self.kb:
            self.kb, self.phase = kb, phase


def metric(value: float, unit: str) -> dict:
    if not math.isfinite(value):
        raise ValueError(f"non-finite metric value {value!r}")
    return {"value": float(value), "unit": unit}


def covered_ms(span, others) -> float:
    """How much of ``span``'s interval the union of ``others`` covers."""
    start, end = span.start_ms, span.start_ms + span.duration_ms
    intervals = sorted(
        (max(o.start_ms, start), min(o.start_ms + o.duration_ms, end)) for o in others
    )
    total, reach = 0.0, start
    for lo, hi in intervals:
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def children_index(spans) -> dict:
    """Parent index -> direct children, for spans recorded on one thread."""
    out: dict = {}
    for s in spans:
        out.setdefault(s.parent, []).append(s)
    return out


def within(span, candidates):
    """Candidates whose interval lies inside ``span``'s (attribution by
    time, for spans recorded on another thread)."""
    start, end = span.start_ms, span.start_ms + span.duration_ms
    return [c for c in candidates if c.start_ms >= start and c.start_ms + c.duration_ms <= end]
