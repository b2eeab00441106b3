"""Round-barrier coordinator, failure detector, and the public runner.

The coordinator runs in the caller's thread and drives every round over
the same :class:`~repro.dist.network.SimNetwork` the hosts use — so its
control traffic (``proceed``/``report``) is subject to the same chaos as
the data plane, and the failure detector is exercised by dropped
heartbeats exactly like a real deployment:

1. broadcast ``proceed(round, owners, epochs)`` to every live host;
2. collect one ``report`` per host (the heartbeat), retransmitting the
   barrier with capped backoff to laggards; a host that stays silent
   through ``heartbeat_misses`` retransmissions is declared dead;
3. reassign dead hosts' shards to survivors (epoch bump — peers resend
   the full frontier; the adopter restores the last per-round checkpoint
   from the shared scratch dir) and re-run the round;
4. stop at the first all-quiet round (every report says ``changed:
   false``), then assemble the global labels from the final per-shard
   checkpoints and structurally verify them when chaos was armed.

Exhausted redundancy — no survivors, reassignment budget spent, round
budget spent, or an unreadable final checkpoint — raises
:class:`~repro.errors.DistProtocolError`.  The protocol never returns
silently wrong labels.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..core.result import CCResult
from ..errors import DistProtocolError
from ..graph.csr import CSRGraph
from ..observe import current_tracer
from ..resilience.faults import FaultEvent, FaultPlan
from ..resilience.supervisor import AttemptRecord, RecoveryInfo
from ..shard.partition import make_plan
from .host import HostRuntime
from .network import HOST_THREAD_PREFIX, Message, SimNetwork
from .protocol import Backoff, DistConfig

__all__ = [
    "DistRunStats",
    "active_host_scratch_dirs",
    "dist_cc",
]

# ----------------------------------------------------------------------
# Scratch-dir leak registry (mirrors repro.outofcore's _SPILL_DIRS)
# ----------------------------------------------------------------------
_SCRATCH_DIRS: dict[str, bool] = {}
_SCRATCH_LOCK = threading.Lock()


def _register_scratch(path: str) -> None:
    with _SCRATCH_LOCK:
        _SCRATCH_DIRS[path] = True


def _release_scratch(path: str) -> None:
    with _SCRATCH_LOCK:
        _SCRATCH_DIRS.pop(path, None)


def active_host_scratch_dirs() -> list[str]:
    """Simulated-host scratch dirs created by this process and still on
    disk.  A clean run removes its dir (unless ``keep_scratch``); the
    autouse test guard fails any test that leaks one."""
    with _SCRATCH_LOCK:
        return sorted(p for p in _SCRATCH_DIRS if os.path.isdir(p))


@dataclass
class DistRunStats:
    """Everything a run reveals about the protocol's behavior."""

    hosts: int = 0
    shards: int = 0
    rounds: int = 0
    reassignments: int = 0
    dead_hosts: list[int] = field(default_factory=list)
    heartbeat_timeouts: int = 0
    coordinator_retransmits: int = 0
    host_retransmits: int = 0
    updates_sent: int = 0
    updates_applied: int = 0
    updates_deduped: int = 0
    adoptions: int = 0
    checkpoints: int = 0
    checkpoints_rejected: int = 0
    bytes_on_wire: int = 0
    messages: dict = field(default_factory=dict)

    @property
    def recoveries(self) -> int:
        """Recovery actions taken: shard reassignments (each one is a
        failure-detector verdict acted on)."""
        return self.reassignments

    @property
    def retransmits(self) -> int:
        return self.host_retransmits + self.coordinator_retransmits

    def to_dict(self) -> dict:
        return {
            "hosts": self.hosts,
            "shards": self.shards,
            "rounds": self.rounds,
            "reassignments": self.reassignments,
            "recoveries": self.recoveries,
            "dead_hosts": list(self.dead_hosts),
            "heartbeat_timeouts": self.heartbeat_timeouts,
            "coordinator_retransmits": self.coordinator_retransmits,
            "host_retransmits": self.host_retransmits,
            "retransmits": self.retransmits,
            "updates_sent": self.updates_sent,
            "updates_applied": self.updates_applied,
            "updates_deduped": self.updates_deduped,
            "adoptions": self.adoptions,
            "checkpoints": self.checkpoints,
            "checkpoints_rejected": self.checkpoints_rejected,
            "bytes_on_wire": self.bytes_on_wire,
            "messages": dict(self.messages),
        }


class Coordinator:
    """One distributed run; see the module docstring for the protocol."""

    def __init__(
        self,
        graph: CSRGraph,
        cfg: DistConfig,
        *,
        fault_plan: FaultPlan | None = None,
        scratch_dir: str | None = None,
        trace_messages: bool = True,
    ) -> None:
        self.graph = graph
        self.cfg = cfg
        self.fault_plan = fault_plan
        num_hosts = max(1, min(cfg.hosts, max(graph.num_vertices, 1)))
        self.num_hosts = num_hosts
        self.plan = make_plan(graph, num_hosts, cfg.partitioner)
        self.net = SimNetwork(
            num_hosts, fault_plan=fault_plan, trace_messages=trace_messages
        )
        self.backoff = Backoff.for_config(
            cfg, base=cfg.effective_round_timeout(), who=0
        )
        if scratch_dir is not None:
            os.makedirs(scratch_dir, exist_ok=True)
            self.scratch_root = scratch_dir
        else:
            self.scratch_root = tempfile.mkdtemp(prefix="repro-dist-")
        _register_scratch(self.scratch_root)
        dist_specs = fault_plan.for_backend("dist", 0) if fault_plan else []
        self.hosts = [
            HostRuntime(i, graph, self.plan, self.net, cfg, self.scratch_root, dist_specs)
            for i in range(num_hosts)
        ]
        self.stats = DistRunStats(hosts=num_hosts, shards=self.plan.num_shards)
        self.recovery = RecoveryInfo(backend="distributed")
        self.events: list[FaultEvent] = []
        self._rounds = 0
        self._aggregated = False

    # -- protocol --------------------------------------------------------
    def _send_proceed(
        self, host: int, round_: int, owners: list[int], epochs: list[int]
    ) -> None:
        self.net.send(
            Message(
                "proceed",
                self.net.coordinator_id,
                host,
                round_,
                round_,  # barrier identity is the round itself
                {"round": round_, "owners": list(owners), "epochs": list(epochs)},
            )
        )

    def _collect_reports(
        self, round_: int, owners: list[int], epochs: list[int], alive: set[int]
    ) -> tuple[dict[int, dict], set[int]]:
        pending = set(alive)
        reports: dict[int, dict] = {}
        dead: set[int] = set()
        now = time.monotonic()
        deadline = {h: now + self.cfg.effective_round_timeout() for h in pending}
        attempts = {h: 0 for h in pending}
        while pending:
            wait = min(deadline[h] for h in pending) - time.monotonic()
            msg = self.net.recv(self.net.coordinator_id, timeout=max(wait, 0.0005))
            if msg is not None:
                if (
                    msg.kind == "report"
                    and msg.src in pending
                    and int(msg.payload["round"]) == round_
                ):
                    reports[msg.src] = msg.payload
                    pending.discard(msg.src)
                continue
            now = time.monotonic()
            for h in sorted(pending):
                if now < deadline[h]:
                    continue
                if attempts[h] >= self.cfg.heartbeat_misses:
                    pending.discard(h)
                    dead.add(h)
                    self.stats.heartbeat_timeouts += 1
                else:
                    attempts[h] += 1
                    self.stats.coordinator_retransmits += 1
                    self._send_proceed(h, round_, owners, epochs)
                    deadline[h] = now + self.backoff.delay(attempts[h])
        return reports, dead

    def _reassign(
        self,
        suspects: set[int],
        round_: int,
        alive: set[int],
        owners: list[int],
        epochs: list[int],
        reason: dict[int, str],
    ) -> None:
        tracer = current_tracer()
        budget = (
            self.cfg.max_reassignments
            if self.cfg.max_reassignments is not None
            else self.num_hosts
        )
        for p in sorted(suspects):
            alive.discard(p)
            self.stats.dead_hosts.append(p)
            if not alive:
                raise DistProtocolError(
                    f"no live hosts remain after declaring host {p} dead "
                    f"(round {round_})",
                    stats=self.stats,
                )
            survivors = sorted(alive)
            moved = []
            for j, owner in enumerate(owners):
                if owner != p:
                    continue
                if self.stats.reassignments >= budget:
                    raise DistProtocolError(
                        f"reassignment budget ({budget}) exhausted at round "
                        f"{round_}: host {p} is dead but shard {j} cannot move",
                        stats=self.stats,
                    )
                owners[j] = survivors[j % len(survivors)]
                epochs[j] += 1
                moved.append(j)
                self.stats.reassignments += 1
            with tracer.span(
                "dist:recover",
                category="dist",
                host=p,
                round=round_,
                shards=str(moved),
                reason=reason.get(p, "silent"),
            ):
                pass
            self.recovery.attempts.append(
                AttemptRecord(
                    backend="distributed",
                    attempt=round_,
                    status="reassigned",
                    error=(
                        f"host {p} declared dead ({reason.get(p, 'silent')}); "
                        f"shards {moved} adopted from checkpoint"
                    ),
                    error_kind="host_dead",
                    resumed=True,
                )
            )

    def _drive(
        self, owners: list[int], epochs: list[int], alive: set[int]
    ) -> None:
        """The barrier loop; returns at the first all-quiet round."""
        tracer = current_tracer()
        round_ = 0
        while True:
            self._rounds = round_
            if round_ > self.cfg.max_rounds:
                raise DistProtocolError(
                    f"no convergence within max_rounds={self.cfg.max_rounds} "
                    "— the protocol is livelocked",
                    stats=self.stats,
                )
            self.net.begin_round(round_)
            with tracer.span(
                "dist:round", category="dist", round=round_, hosts=len(alive)
            ) as sp:
                for h in sorted(alive):
                    self._send_proceed(h, round_, owners, epochs)
                reports, dead = self._collect_reports(round_, owners, epochs, alive)
                suspects = set(dead)
                reason = {h: "heartbeat timeout" for h in dead}
                for h, rep in reports.items():
                    for p in rep.get("failed_peers", []):
                        if p in alive and p not in suspects:
                            suspects.add(p)
                            reason[p] = f"unreachable from host {h}"
                sp.update(
                    reports=len(reports),
                    suspects=str(sorted(suspects)),
                    changed=sum(bool(r.get("changed")) for r in reports.values()),
                )
            if suspects:
                self._reassign(suspects, round_, alive, owners, epochs, reason)
                round_ += 1
                continue
            if round_ > 0 and all(not r["changed"] for r in reports.values()):
                return
            round_ += 1

    def _gather(self, owners: list[int], epochs: list[int]) -> np.ndarray:
        labels = np.empty(self.graph.num_vertices, dtype=np.int64)
        for j in range(self.plan.num_shards):
            start, end = self.plan.range_of(j)
            if end <= start:
                continue
            # Read through any host's loader (pure path logic).
            chunk = self.hosts[0]._load_checkpoint(j, epochs[j])
            if chunk is None:
                raise DistProtocolError(
                    f"final checkpoint for shard {j} (epoch {epochs[j]}) is "
                    "missing or unreadable — refusing to assemble labels",
                    stats=self.stats,
                )
            labels[start:end] = chunk
        return labels

    def _aggregate(self) -> None:
        if self._aggregated:
            return
        self._aggregated = True
        self.stats.rounds = self._rounds
        net = self.net.stats
        self.stats.bytes_on_wire = net.bytes_on_wire
        self.stats.messages = net.to_dict()
        for h in self.hosts:
            c = h.counters
            self.stats.host_retransmits += c["retransmits"]
            self.stats.updates_sent += c["updates_sent"]
            self.stats.updates_applied += c["applied"]
            self.stats.updates_deduped += c["deduped"]
            self.stats.adoptions += c["adoptions"]
            self.stats.checkpoints += c["checkpoints"]
            self.stats.checkpoints_rejected += c["checkpoints_rejected"]
            self.events.extend(h.events)
        self.events.extend(self.net.events)
        self.events.sort(key=lambda ev: (ev.kind, ev.where, ev.trigger))
        self.recovery.retries = self.stats.retransmits
        self.recovery.fallbacks = self.stats.reassignments
        if self.events:
            self.recovery.attempts.append(
                AttemptRecord(
                    backend="distributed",
                    attempt=self._rounds,
                    status="ok",
                    error_kind="chaos_summary",
                    faults=list(self.events),
                )
            )

    def run(self) -> tuple[np.ndarray, DistRunStats]:
        tracer = current_tracer()
        if self.graph.num_vertices == 0:
            if not self.cfg.keep_scratch:
                shutil.rmtree(self.scratch_root, ignore_errors=True)
            _release_scratch(self.scratch_root)
            return np.empty(0, dtype=np.int64), self.stats

        threads = [
            threading.Thread(
                target=h.run, name=f"{HOST_THREAD_PREFIX}{h.host_id}", daemon=True
            )
            for h in self.hosts
        ]
        owners = list(range(self.plan.num_shards))
        epochs = [0] * self.plan.num_shards
        alive = set(range(self.num_hosts))
        try:
            try:
                for t in threads:
                    t.start()
                self._drive(owners, epochs, alive)
            finally:
                # Always tear the fabric down and join every host thread
                # — including ones stranded behind a permanent partition
                # (close() wakes their recv) — before reading stats or
                # checkpoints.
                for h in sorted(alive):
                    self.net.send(
                        Message("halt", self.net.coordinator_id, h, 0, 0, {"ok": True})
                    )
                self.net.close()
                for t in threads:
                    t.join(timeout=30.0)
                self._aggregate()
            labels = self._gather(owners, epochs)
        finally:
            if not self.cfg.keep_scratch:
                shutil.rmtree(self.scratch_root, ignore_errors=True)
            _release_scratch(self.scratch_root)

        tracer.gauge("dist.rounds", self.stats.rounds)
        tracer.gauge("dist.bytes_on_wire", self.stats.bytes_on_wire)
        if self.stats.retransmits:
            tracer.count("dist.retransmits", self.stats.retransmits)
        if self.stats.reassignments:
            tracer.count("dist.reassignments", self.stats.reassignments)
        return labels, self.stats


def dist_cc(
    graph: CSRGraph,
    *,
    hosts: int = 4,
    partitioner: str = "range",
    fault_plan: FaultPlan | None = None,
    rpc_timeout: float = 0.25,
    round_timeout: float | None = None,
    max_retries: int = 3,
    heartbeat_misses: int = 3,
    max_reassignments: int | None = None,
    max_rounds: int = 512,
    seed: int = 0,
    scratch_dir: str | None = None,
    keep_scratch: bool = False,
    verify: bool | None = None,
    trace_messages: bool = True,
) -> CCResult:
    """Connected components across ``hosts`` simulated hosts.

    Returns a :class:`CCResult` whose labels are bit-identical to the
    serial reference; ``result.stats`` is the :class:`DistRunStats`
    (so ``result.rounds`` / ``result.bytes_on_wire`` work through the
    usual fall-through), and ``result.recovery`` carries the transcript
    of any failure-detector action and every fault that fired.
    ``verify=None`` runs the O(n+m) structural certifier exactly when a
    fault plan was armed; the run *raises*
    :class:`~repro.errors.DistProtocolError` rather than ever returning
    unverifiable labels.
    """
    cfg = DistConfig(
        hosts=hosts,
        partitioner=partitioner,
        rpc_timeout=rpc_timeout,
        round_timeout=round_timeout,
        max_retries=max_retries,
        heartbeat_misses=heartbeat_misses,
        max_reassignments=max_reassignments,
        max_rounds=max_rounds,
        seed=seed,
        keep_scratch=keep_scratch,
    )
    tracer = current_tracer()
    coord = Coordinator(
        graph,
        cfg,
        fault_plan=fault_plan,
        scratch_dir=scratch_dir,
        trace_messages=trace_messages,
    )
    t0 = time.perf_counter()
    with tracer.span(
        "dist:run", category="dist", hosts=coord.num_hosts, n=graph.num_vertices
    ):
        labels, stats = coord.run()
    duration_ms = (time.perf_counter() - t0) * 1e3

    if verify or (verify is None and fault_plan is not None and bool(fault_plan)):
        from ..verify.oracle import verify_labels_structural

        if not verify_labels_structural(graph, labels):
            raise DistProtocolError(
                "assembled labels failed structural verification after a "
                "chaos run — refusing to return them",
                stats=stats,
            )
        coord.recovery.verified = True

    result = CCResult(
        labels=labels,
        backend="distributed",
        stats=stats,
        timings={"total_ms": duration_ms},
    )
    if coord.recovery.retries or coord.recovery.attempts:
        result.recovery = coord.recovery
    return result
