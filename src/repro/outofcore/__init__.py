"""Out-of-core execution: solve graphs bigger than memory off a spill.

The ``backend="oocore"`` mode partitions a CSR graph into on-disk shard
files (the versioned, checksummed spill format of
:mod:`repro.graph.spill`) and solves it under an explicit
``memory_budget`` by streaming one shard at a time through the
shard-local solver, keeping only the global parent array plus one
bounded merge chunk resident.  Cross-shard boundary arcs spill to disk
too and merge in bounded chunks through a multi-pass loop.

* :func:`oocore_cc` — the streamer (spill → stream → merge).
* :class:`~repro.outofcore.budget.ResidentMeter` — charged-byte
  accounting with budget enforcement and a peak high-water mark.
* :func:`~repro.outofcore.budget.min_feasible_budget` /
  :func:`~repro.outofcore.budget.auto_shard_count` — budget feasibility
  and budget-driven shard sizing.
* :func:`active_spill_dirs` — leak probe for tests (mirrors
  :func:`repro.shard.leaked_shared_segments`).

See ``docs/out-of-core.md`` for the on-disk format, the budget
semantics, and the crash-resume protocol.
"""

from .budget import (
    MERGE_WORK_FACTOR,
    MIN_CHUNK_PAIRS,
    PAIR_BYTES,
    SHARD_WORK_FACTOR,
    ResidentMeter,
    auto_shard_count,
    min_feasible_budget,
    shard_charge_bytes,
)
from .runner import (
    OocoreRunStats,
    PARENT_CKPT_NAME,
    RESUME_NAME,
    active_spill_dirs,
    oocore_cc,
)

__all__ = [
    "MERGE_WORK_FACTOR",
    "MIN_CHUNK_PAIRS",
    "PAIR_BYTES",
    "PARENT_CKPT_NAME",
    "RESUME_NAME",
    "SHARD_WORK_FACTOR",
    "OocoreRunStats",
    "ResidentMeter",
    "active_spill_dirs",
    "auto_shard_count",
    "min_feasible_budget",
    "oocore_cc",
    "shard_charge_bytes",
]
