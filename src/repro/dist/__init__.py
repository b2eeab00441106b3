"""Distributed connected components across simulated hosts
(``backend="distributed"``).

K simulated hosts (threads) each own a contiguous vertex-range shard,
solve it locally with any registered single-process backend, and
converge through coordinator-driven rounds of bandwidth-conscious
boundary-label exchange (only *changed* frontier labels travel) over a
:class:`SimNetwork` — an in-process lossy fabric whose chaos
(``msg_drop`` / ``msg_dup`` / ``msg_reorder`` / ``host_crash`` /
``net_partition``) is injected deterministically from a
:class:`~repro.resilience.FaultPlan` and survives via heartbeat failure
detection, per-RPC deadlines with capped jittered backoff, idempotent
at-least-once message application, and checkpointed shard reassignment.
Exhausted redundancy raises :class:`~repro.errors.DistProtocolError`;
labels are never silently wrong.

See ``docs/distributed.md`` for the protocol, the fault model, the
recovery guarantees, and every tuning knob.
"""

from .coordinator import DistRunStats, active_host_scratch_dirs, dist_cc
from .host import HostRuntime, ShardState
from .network import (
    MESSAGE_KINDS,
    Message,
    NetStats,
    SimNetwork,
    live_network_threads,
)
from .protocol import Backoff, DistConfig

__all__ = [
    "MESSAGE_KINDS",
    "Backoff",
    "DistConfig",
    "DistRunStats",
    "HostRuntime",
    "Message",
    "NetStats",
    "ShardState",
    "SimNetwork",
    "active_host_scratch_dirs",
    "dist_cc",
    "live_network_threads",
]
