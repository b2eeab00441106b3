"""Resident-memory accounting for the out-of-core solver.

The out-of-core path's whole claim is a *memory ceiling*: the graph's
CSR arrays never exist in one address space, only the global parent
array plus one streamed shard plus one bounded merge chunk.  That claim
is worthless if it is assumed rather than tracked, so every resident
allocation the runner holds is **charged** against a
:class:`ResidentMeter` — exceeding the budget raises
:class:`~repro.errors.MemoryBudgetError` *before* the allocation is
made, and the high-water mark is reported as
``peak_resident_bytes`` on the run stats (and enforced by the
wall-clock gate's schema-v6 columns).

Charges are sized from the array lengths being loaded, scaled by
documented work factors that cover the transient arrays the solve makes
alongside the payload:

:data:`SHARD_WORK_FACTOR`
    A streamed shard charges ``rowptr_bytes + colidx_bytes * factor``.
    The factor (6) covers the mmap'd column view itself, the kept-arc
    mask, the local prefix sum, the rebased local column array, the
    boundary-arc extraction, and the shard backend's edge/frontier
    working set — each linear in the shard's arc count with small
    constants.

:data:`MERGE_WORK_FACTOR`
    A merge chunk of P boundary pairs charges ``P * 16 * factor``.  The
    factor (4) covers the loaded pair block, the gathered roots, the
    hi/lo split, and the dedup sort key.  A chunk only switches the hook
    loop to whole-array flattens and scatters once it holds at least
    n/2 pairs, so those O(n) temporaries (under 32 bytes per vertex)
    fit inside the same charge.

The factors are deliberately conservative; the gate records the
*charged* peak, so a future change that grows a transient array without
updating its factor shows up as a budget violation in tests that pin
tight budgets, not as a silent lie.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from ..errors import MemoryBudgetError
from ..graph.csr import CSRGraph

__all__ = [
    "MERGE_WORK_FACTOR",
    "MIN_CHUNK_PAIRS",
    "PAIR_BYTES",
    "SHARD_WORK_FACTOR",
    "ResidentMeter",
    "auto_shard_count",
    "min_feasible_budget",
    "shard_charge_bytes",
]

#: Multiplier on a shard's col_idx bytes covering the solve's transient
#: working set (mask, prefix sum, local columns, backend frontier).
SHARD_WORK_FACTOR = 6

#: Multiplier on a merge chunk's pair bytes (roots, hi/lo, dedup key).
MERGE_WORK_FACTOR = 4

#: Bytes per boundary pair on disk and in a loaded chunk (two int64).
PAIR_BYTES = 16

#: Floor on the merge chunk size: below this the pass loop would make
#: no progress per unit of I/O worth speaking of.
MIN_CHUNK_PAIRS = 64


class ResidentMeter:
    """Named byte charges with a budget check and a high-water mark.

    ``budget=None`` disables enforcement but still tracks the peak, so
    an unbudgeted run reports what ceiling it *would* have needed.
    """

    def __init__(self, budget: int | None = None) -> None:
        if budget is not None and budget <= 0:
            raise ValueError("memory budget must be positive (or None)")
        self.budget = budget
        self.resident = 0
        self.peak = 0
        self._charges: dict[str, int] = {}

    def charge(self, name: str, nbytes: int) -> None:
        """Account ``nbytes`` under ``name``; raises before going over."""
        nbytes = int(nbytes)
        if name in self._charges:
            raise ValueError(f"charge {name!r} already held")
        if self.budget is not None and self.resident + nbytes > self.budget:
            raise MemoryBudgetError(
                f"charging {name!r} ({nbytes} B) would raise resident memory "
                f"to {self.resident + nbytes} B, over the {self.budget} B "
                f"budget; raise memory_budget or increase the shard count",
                required=self.resident + nbytes,
                budget=self.budget,
            )
        self._charges[name] = nbytes
        self.resident += nbytes
        self.peak = max(self.peak, self.resident)

    def release(self, name: str) -> None:
        self.resident -= self._charges.pop(name)

    @contextmanager
    def charged(self, name: str, nbytes: int):
        self.charge(name, nbytes)
        try:
            yield
        finally:
            self.release(name)

    def headroom(self) -> int | None:
        """Bytes left under the budget (``None`` when unbudgeted)."""
        if self.budget is None:
            return None
        return self.budget - self.resident


def shard_charge_bytes(rowptr_len: int, colidx_len: int) -> int:
    """Charged resident footprint of streaming one shard."""
    return (rowptr_len + colidx_len * SHARD_WORK_FACTOR) * 8


def _max_shard_charge(graph: CSRGraph, starts: np.ndarray) -> int:
    """Largest per-shard charge of a contiguous plan, vectorized."""
    s, e = starts[:-1], starts[1:]
    counts = e - s
    arcs = graph.row_ptr[e] - graph.row_ptr[s]
    charges = (counts + 1 + arcs * SHARD_WORK_FACTOR) * 8
    return int(charges.max()) if charges.size else 0


def min_feasible_budget(graph: CSRGraph, plan=None) -> int:
    """Smallest ``memory_budget`` that can stream ``graph``.

    With ``plan`` given, the binding shard is the plan's largest; with
    ``plan=None`` the bound uses the *finest* degree-balanced plan (one
    shard per vertex), whose binding shard is essentially the
    maximum-degree vertex — no budget below this can stream the graph no
    matter how many shards :func:`auto_shard_count` cuts.  Adds the
    resident parent array and the minimum merge chunk.
    """
    labels_bytes = graph.num_vertices * 8
    chunk_bytes = MIN_CHUNK_PAIRS * PAIR_BYTES * MERGE_WORK_FACTOR
    if plan is not None:
        shard_bytes = _max_shard_charge(graph, np.asarray(plan.starts))
    elif graph.num_vertices == 0:
        shard_bytes = 0
    else:
        from ..shard.partition import partition_degree

        finest = partition_degree(graph, graph.num_vertices)
        shard_bytes = _max_shard_charge(graph, finest.starts)
    return labels_bytes + shard_bytes + chunk_bytes


def auto_shard_count(graph: CSRGraph, budget: int | None) -> int:
    """Smallest power-of-two shard count whose largest shard fits.

    Uses the degree-balanced partitioner (the same one the runner cuts
    with), doubling K until the largest shard's charge fits in what the
    budget leaves after the parent array and the minimum merge chunk.
    ``budget=None`` returns a small default.  Raises
    :class:`~repro.errors.MemoryBudgetError` when even per-vertex
    shards cannot fit — the budget is below
    :func:`min_feasible_budget`.
    """
    from ..shard.partition import partition_degree

    n = graph.num_vertices
    if n == 0:
        return 1
    if budget is None:
        return min(4, n)
    available = (
        budget - n * 8 - MIN_CHUNK_PAIRS * PAIR_BYTES * MERGE_WORK_FACTOR
    )
    floor = min_feasible_budget(graph)
    if available <= 0 or budget < floor:
        raise MemoryBudgetError(
            f"memory_budget={budget} B cannot stream {graph.name!r}: the "
            f"resident parent array plus the largest single-vertex shard "
            f"need at least {floor} B",
            required=floor,
            budget=budget,
        )
    k = 1
    while True:
        k = min(k, n)
        plan = partition_degree(graph, k)
        if _max_shard_charge(graph, plan.starts) <= available:
            return k
        if k >= n:
            raise MemoryBudgetError(
                f"memory_budget={budget} B cannot stream {graph.name!r} even "
                f"with per-vertex shards (largest shard charge "
                f"{_max_shard_charge(graph, plan.starts)} B, "
                f"available {available} B)",
                required=budget + _max_shard_charge(graph, plan.starts) - available,
                budget=budget,
            )
        k *= 2
