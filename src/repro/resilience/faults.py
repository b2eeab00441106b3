"""Fault taxonomy and the seedable, serializable :class:`FaultPlan`.

Six fault families, all injected through the pluggable scheduler seams
of :class:`repro.gpusim.kernel.GPU` and
:class:`repro.cpusim.pool.VirtualThreadPool` (plus the device-memory
allocation hook), so every fault is *deterministic*: a
:class:`FaultSpec` names a concrete trigger point ("the 40th warp pick
inside kernels matching ``compute``"), not a probability, and re-running
the same plan reproduces the identical failure — and therefore the
identical recovery sequence — on any machine.

==================  ===================================================
``kernel_abort``    the launch dies mid-flight (transient device fault);
                    raised from the warp-pick seam
``oom``             allocation failure from the device-memory hook;
                    non-transient, degrades to the next backend
``lost_warp``       one warp stops being scheduled; the kernel starves
                    and the attempt watchdog fires
``worker_crash``    a virtual-thread worker raises mid-chunk (cpusim),
                    or the out-of-core streamer crashes before solving
                    shard ``at``
``corrupt_store``   a parent-array store lands with a wrong value; only
                    detectable post-run by the structural verifier
``hang``            execution stops making progress at the trigger
                    point until the attempt watchdog fires
``spill_corrupt``   a byte of spilled shard ``at``'s file flips on disk
                    (oocore); detected by checksum on the read path
``spill_truncate``  spilled shard ``at``'s file loses its tail (oocore);
                    detected by size check on the read path
``merge_crash``     the out-of-core boundary merge crashes on entry,
                    after every shard is checkpointed; its one trigger
                    point is ``at=0``
``msg_drop``        the ``at``-th matching message on each matching
                    link of the simulated network vanishes (dist);
                    recovered by ack-driven retransmission
``msg_dup``         the ``at``-th matching message is delivered twice
                    (dist); absorbed by ``(host, round, seq)`` dedup
                    and the idempotent min-label merge
``msg_reorder``     the ``at``-th matching message is held back and
                    delivered *after* the link's next transmission
                    (dist); doubles as an unbounded delay — if the link
                    goes quiet the sender's retransmit flushes it
``host_crash``      simulated host ``at`` dies entering round ``value``
                    (dist); detected by the heartbeat failure detector,
                    its shard reassigned from the last checkpoint
``net_partition``   hosts listed in ``where`` are cut off from everyone
                    else from round ``at`` until round ``value`` heals
                    it (``None`` = permanent)
==================  ===================================================

A :class:`FaultPlan` is a list of specs plus the seed that generated it;
it serializes to JSON exactly like
:class:`~repro.verify.schedulers.ScheduleTrace` so a failing chaos run
can be uploaded, replayed, and bisected.  :class:`FaultEvent` records
what actually fired (the injector appends one per fault), which is what
selfcheck compares across a replay to prove determinism.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, asdict
from pathlib import Path

__all__ = [
    "FAULT_KINDS",
    "DIST_FAULT_KINDS",
    "GPU_FAULT_KINDS",
    "OOCORE_FAULT_KINDS",
    "POOL_FAULT_KINDS",
    "FaultSpec",
    "FaultEvent",
    "FaultPlan",
]

#: Every fault family, across all execution substrates.
FAULT_KINDS = (
    "kernel_abort",
    "oom",
    "lost_warp",
    "worker_crash",
    "corrupt_store",
    "hang",
    "spill_corrupt",
    "spill_truncate",
    "merge_crash",
    "msg_drop",
    "msg_dup",
    "msg_reorder",
    "host_crash",
    "net_partition",
)

#: Families meaningful on the simulated GPU (warp-pick / store / alloc seams).
GPU_FAULT_KINDS = ("kernel_abort", "oom", "lost_warp", "corrupt_store", "hang")

#: Families meaningful on the virtual-thread pool (chunk-dispatch seam).
POOL_FAULT_KINDS = ("worker_crash", "hang")

#: Families meaningful on the out-of-core streamer (spill/stream/merge).
OOCORE_FAULT_KINDS = (
    "spill_corrupt",
    "spill_truncate",
    "worker_crash",
    "merge_crash",
)

#: Families meaningful on the simulated-host network (dist backend).
#: These specs use ``backend="dist"``; ``where`` selects messages as
#: ``"[kind][:src->dst]"`` for the ``msg_*`` families (host ids, ``coord``,
#: or ``*``), names the isolated host set for ``net_partition``
#: (comma-separated), and is ignored for ``host_crash`` (``at`` is the
#: host index, ``value`` the round it dies in).
DIST_FAULT_KINDS = (
    "msg_drop",
    "msg_dup",
    "msg_reorder",
    "host_crash",
    "net_partition",
)


@dataclass
class FaultSpec:
    """One deterministic fault: what to inject, where, and when.

    ``backend``
        Backend the fault targets (``"*"`` matches any).
    ``attempt``
        Per-backend attempt index it arms on (``-1`` = every attempt,
        which makes the fault *persistent* and forces degradation).
    ``where``
        Kernel/region name prefix the trigger counts inside (``"compute"``
        matches ``compute1``..``compute3`` and the omp compute region);
        for ``oom`` it prefixes the *allocation name* instead
        (``"parent"``, ``"worklist"``, ...; empty = any allocation).
    ``at``
        Fire on the ``at``-th matching trigger event (0-based): warp
        picks for ``kernel_abort``/``lost_warp``/``hang``, chunk
        dispatches for ``worker_crash`` (and ``hang`` on the pool),
        matching stores for ``corrupt_store``, allocations for ``oom``.
    ``array``
        Target array of ``corrupt_store`` (default ``"parent"``).
    ``value``
        Corrupted value for ``corrupt_store``; ``None`` derives a
        deliberately wrong in-range value from the store index.
    """

    kind: str
    backend: str = "gpu"
    attempt: int = 0
    where: str = "compute"
    at: int = 0
    array: str = "parent"
    value: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}"
            )
        if self.at < 0:
            raise ValueError("trigger index 'at' must be >= 0")

    def matches(self, backend: str, attempt: int) -> bool:
        """Whether this fault arms for the given backend attempt."""
        if self.backend not in ("*", backend):
            return False
        return self.attempt in (-1, attempt)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "FaultSpec":
        return cls(
            kind=d["kind"],
            backend=d.get("backend", "gpu"),
            attempt=int(d.get("attempt", 0)),
            where=d.get("where", "compute"),
            at=int(d.get("at", 0)),
            array=d.get("array", "parent"),
            value=None if d.get("value") is None else int(d["value"]),
        )


@dataclass
class FaultEvent:
    """One fault that actually fired during an attempt."""

    kind: str
    backend: str
    attempt: int
    where: str  # launch/region/allocation the trigger fired inside
    trigger: int  # the matching-event count at fire time
    detail: str = ""

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "FaultEvent":
        return cls(
            kind=d["kind"],
            backend=d.get("backend", ""),
            attempt=int(d.get("attempt", 0)),
            where=d.get("where", ""),
            trigger=int(d.get("trigger", 0)),
            detail=d.get("detail", ""),
        )


@dataclass
class FaultPlan:
    """A seedable, replayable chaos schedule.

    ``faults`` is the list of deterministic injections; ``seed`` records
    the generator seed when the plan came from :meth:`random` (purely
    provenance — execution never consults an RNG).  Serializes to JSON
    like ``ScheduleTrace`` so plans travel as CI artifacts.
    """

    faults: list[FaultSpec] = field(default_factory=list)
    seed: int | None = None
    name: str = ""

    def __bool__(self) -> bool:
        return bool(self.faults)

    def for_backend(self, backend: str, attempt: int) -> list[FaultSpec]:
        """The subset of faults armed for one backend attempt."""
        return [f for f in self.faults if f.matches(backend, attempt)]

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "schema": "repro.resilience/fault-plan/v1",
            "name": self.name,
            "seed": self.seed,
            "faults": [f.to_dict() for f in self.faults],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FaultPlan":
        return cls(
            faults=[FaultSpec.from_dict(f) for f in d.get("faults", [])],
            seed=d.get("seed"),
            name=d.get("name", ""),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, s: str) -> "FaultPlan":
        return cls.from_dict(json.loads(s))

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "FaultPlan":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    # -- generation ------------------------------------------------------
    @classmethod
    def random(
        cls,
        seed: int,
        *,
        backends: tuple[str, ...] = ("gpu", "omp"),
        num_faults: int = 3,
        max_trigger: int = 200,
        kinds: tuple[str, ...] | None = None,
    ) -> "FaultPlan":
        """Sample a deterministic plan from a seed.

        Trigger points are sampled once here; the resulting plan contains
        only concrete countdowns, so running it twice injects identical
        faults (the seed is provenance, not runtime randomness).
        """
        rng = random.Random(seed)
        faults = []
        for _ in range(num_faults):
            backend = rng.choice(backends)
            pool_like = backend in ("omp",)
            if backend == "dist":
                allowed = DIST_FAULT_KINDS
            elif backend == "oocore":
                allowed = OOCORE_FAULT_KINDS
            elif pool_like:
                allowed = POOL_FAULT_KINDS
            else:
                allowed = GPU_FAULT_KINDS
            if kinds is not None:
                allowed = tuple(k for k in allowed if k in kinds) or allowed
            kind = rng.choice(allowed)
            where = "compute"
            at = rng.randrange(max_trigger)
            if kind == "oom":
                where = rng.choice(["parent", "col_idx", ""])
                at = 0
            elif kind == "worker_crash":
                at = rng.randrange(8)
            elif kind == "hang" and pool_like:
                at = rng.randrange(8)
            elif kind in ("spill_corrupt", "spill_truncate"):
                # Trigger indices are shard ordinals: small.
                where = rng.choice(["colidx", "rowptr"])
                at = rng.randrange(4)
            elif kind == "merge_crash":
                where, at = "", 0  # the merge's one trigger point
            value = None
            if kind in ("msg_drop", "msg_dup", "msg_reorder"):
                where = rng.choice(["update", "report", "proceed", ""])
                at = rng.randrange(4)
            elif kind == "host_crash":
                where = ""
                at = rng.randrange(4)  # host index; ignored if >= K
                value = rng.randrange(3)  # round it dies in
            elif kind == "net_partition":
                where = str(rng.randrange(4))  # isolated host id
                at = rng.randrange(1, 3)  # round the cut opens
                value = at + rng.randrange(1, 3)  # round it heals
            faults.append(
                FaultSpec(
                    kind=kind,
                    backend=backend,
                    attempt=rng.choice([0, 0, 0, -1]) if backend != "dist" else 0,
                    where=where,
                    at=at,
                    value=value,
                )
            )
        return cls(faults=faults, seed=seed, name=f"random-{seed}")
