"""Simulated-host runtime: local solve, frontier exchange, checkpoints.

Each :class:`HostRuntime` is one thread (named ``dist-host-<i>``) that
owns a set of contiguous vertex-range shards.  It solves each shard
locally with the ``numpy`` backend, then participates in
coordinator-driven rounds of boundary-label exchange:

* **outgoing** — for each peer shard its arcs cross into, send only the
  boundary vertices whose label *improved* since the last acknowledged
  send (the Koohi Esfahani bandwidth rule: changed frontier labels only);
* **incoming** — fold remote candidates into the local components with a
  min-merge, which is idempotent, commutative, and monotone — exactly
  the ECL-CC hooking algebra — so at-least-once delivery, duplication,
  and reordering are all *inherently* safe.  Dedup by
  ``(host, round, seq)`` is kept anyway so the stats can prove the
  chaos layer actually exercised the path.

After every round the host checkpoints each owned shard's resolved
labels to the shared scratch directory (the simulated durable store);
an adopting host restores a crashed peer's shard from exactly that file.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from ..errors import HostCrashError
from ..graph.csr import CSRGraph
from ..resilience.faults import FaultEvent, FaultSpec
from ..shard.partition import ShardPlan
from ..shard.worker import solve_slice_all_arcs
from .network import Message, SimNetwork
from .protocol import Backoff, DistConfig

__all__ = ["HostRuntime", "ShardState"]


class _Halted(Exception):
    """Internal: the coordinator told this host to stop mid-round."""


class ShardState:
    """One owned shard's merge state.

    Labels live in two layers: ``init`` (the local solve's min-member
    label per vertex — the immutable component structure of the induced
    subgraph) and ``cur`` (the current global candidate per *component*,
    indexed by component key).  Lowering a component's entry relabels
    every member at once; ``resolved()`` flattens the two layers.
    """

    def __init__(self, graph: CSRGraph, plan: ShardPlan, shard: int) -> None:
        self.shard = shard
        self.start, self.end = plan.range_of(shard)
        n = graph.num_vertices
        self._inf = n  # labels are < n, so n reads as "never sent/seen"
        # Every incident cross arc, both directions: a host must know all
        # remote vertices its shard touches to route updates, and all
        # local vertices each remote label candidate feeds.
        rp = graph.row_ptr[self.start : self.end + 1]
        cols = graph.col_idx[int(rp[0]) : int(rp[-1])]
        name = f"{graph.name}[{self.start}:{self.end}]"
        init, bu, bv = solve_slice_all_arcs(rp, cols, self.start, self.end, name)
        self.init = init  # local index -> component key (global id)
        self.cur = np.arange(self.start, self.end, dtype=np.int64)

        # Incoming: CSR-by-remote-vertex over the cross arcs, so one
        # remote label candidate fans out to its local neighbors with a
        # couple of slices.
        order = np.argsort(bv, kind="stable")
        self._in_u = bu[order]
        bv_sorted = bv[order]
        self.ext_verts = np.unique(bv_sorted)
        self._in_off = np.searchsorted(bv_sorted, self.ext_verts)
        self._in_off = np.append(self._in_off, bv_sorted.size)
        self.ext_best = np.full(self.ext_verts.size, self._inf, dtype=np.int64)

        # Outgoing: per target *shard* (ownership can move between
        # hosts; shards never move), the unique local frontier vertices
        # and the last label value each was *acknowledged* at.
        tgt = plan.shard_of(bv)
        self.out_verts: dict[int, np.ndarray] = {}
        self.out_sent: dict[int, np.ndarray] = {}
        for t in np.unique(tgt).tolist():
            self.out_verts[t] = np.unique(bu[tgt == t])
            self.out_sent[t] = np.full(
                self.out_verts[t].size, self._inf, dtype=np.int64
            )

    # -- label access ----------------------------------------------------
    def _slots(self, verts_global: np.ndarray) -> np.ndarray:
        """Component-key slot of each (global) local vertex."""
        return self.init[verts_global - self.start] - self.start

    def resolved(self) -> np.ndarray:
        """Current labels of every vertex in the shard range."""
        return self.cur[self.init - self.start]

    def targets(self) -> list[int]:
        return sorted(self.out_verts)

    # -- incoming --------------------------------------------------------
    def apply_remote(self, verts: np.ndarray, labels: np.ndarray) -> bool:
        """Min-merge remote candidates ``labels[i]`` at remote vertices
        ``verts[i]``; returns whether any local component lowered."""
        if verts.size == 0 or self.ext_verts.size == 0:
            return False
        idx = np.searchsorted(self.ext_verts, verts)
        np.minimum(idx, self.ext_verts.size - 1, out=idx)
        keep = (self.ext_verts[idx] == verts) & (labels < self.ext_best[idx])
        if not keep.any():
            return False
        pos = idx[keep]
        labs = labels[keep]
        self.ext_best[pos] = labs
        # Fan each candidate out over its remote vertex's incoming arcs:
        # arc k of candidate i sits at _in_off[pos[i]] + k.
        lo = self._in_off[pos]
        counts = self._in_off[pos + 1] - lo
        arcs = np.arange(int(counts.sum())) + np.repeat(
            lo - (np.cumsum(counts) - counts), counts
        )
        slots = self._slots(self._in_u[arcs])
        cand = np.repeat(labs, counts)
        lower = cand < self.cur[slots]
        if not lower.any():
            return False
        np.minimum.at(self.cur, slots[lower], cand[lower])
        return True

    # -- outgoing --------------------------------------------------------
    def outgoing(self, target: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Frontier labels into shard ``target`` that improved since the
        last acked send: ``(verts, labels, positions)``."""
        verts = self.out_verts[target]
        cur = self.cur[self._slots(verts)]
        pos = np.flatnonzero(cur < self.out_sent[target])
        return verts[pos], cur[pos], pos

    def mark_acked(self, target: int, pos: np.ndarray, values: np.ndarray) -> None:
        np.minimum.at(self.out_sent[target], pos, values)

    def reset_sent(self, target: int) -> None:
        """Forget ack state toward ``target`` (its owner changed epoch):
        the next round resends the full frontier."""
        if target in self.out_sent:
            self.out_sent[target].fill(self._inf)

    # -- checkpoint restore ----------------------------------------------
    def absorb(self, labels: np.ndarray) -> None:
        """Fold a checkpointed per-vertex labeling into ``cur`` (exact
        state restore: the checkpoint was written from the same
        deterministic local solve, so components line up)."""
        np.minimum.at(self.cur, self.init - self.start, labels)


class HostRuntime:
    """The per-host protocol engine; ``run()`` is the thread target."""

    def __init__(
        self,
        host_id: int,
        graph: CSRGraph,
        plan: ShardPlan,
        net: SimNetwork,
        cfg: DistConfig,
        scratch_root: str,
        crash_specs: list[FaultSpec],
    ) -> None:
        self.host_id = host_id
        self.graph = graph
        self.plan = plan
        self.net = net
        self.cfg = cfg
        self.scratch_root = scratch_root
        self.crash_specs = [
            s for s in crash_specs if s.kind == "host_crash" and s.at == host_id
        ]
        self.backoff = Backoff.for_config(cfg, who=host_id + 1)
        self.owned: dict[int, ShardState] = {}
        self.status = "running"
        self.error: Exception | None = None
        self.events: list[FaultEvent] = []
        self.counters: dict[str, int] = {
            "updates_sent": 0,
            "applied": 0,
            "deduped": 0,
            "retransmits": 0,
            "adoptions": 0,
            "checkpoints": 0,
            "checkpoints_rejected": 0,
        }
        self._seq = 0
        self._seen: set[tuple[int, int, int]] = set()
        self._epochs: list[int] = []
        self._last_done = -1
        self._cached_report: Message | None = None
        self._dirty = False
        self._failed_peers: set[int] = set()

    # -- thread entry ----------------------------------------------------
    def run(self) -> None:
        try:
            self._loop()
            if self.status == "running":
                self.status = "done"
        except HostCrashError as exc:
            self.status = "crashed"
            self.error = exc
        except _Halted:
            self.status = "halted"
        except Exception as exc:  # pragma: no cover - defensive
            self.status = "failed"
            self.error = exc

    def _loop(self) -> None:
        while True:
            msg = self.net.recv(self.host_id, timeout=self.cfg.rpc_timeout)
            if msg is None:
                if self.net.closed:
                    return
                continue
            if msg.kind == "halt":
                self.status = "halted"
                return
            if msg.kind == "update":
                self._handle_update(msg)
            elif msg.kind == "proceed":
                round_ = int(msg.payload["round"])
                if round_ <= self._last_done:
                    # Duplicate barrier: the coordinator didn't see our
                    # report — resend it (same round+seq, dedupable).
                    if self._cached_report is not None:
                        self.counters["retransmits"] += 1
                        self.net.send(self._cached_report)
                    continue
                self._run_round(
                    round_, list(msg.payload["owners"]), list(msg.payload["epochs"])
                )
            # stray acks outside a round are stale: ignore

    # -- message handling ------------------------------------------------
    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _handle_update(self, msg: Message) -> None:
        key = (msg.src, msg.round, msg.seq)
        shard = int(msg.payload["shard"])
        if key in self._seen:
            self.counters["deduped"] += 1
        elif shard in self.owned:
            self._seen.add(key)
            self.counters["applied"] += 1
            if self.owned[shard].apply_remote(
                msg.payload["verts"], msg.payload["labels"]
            ):
                self._dirty = True
        else:
            # Not ours (stale routing after a reassignment we haven't
            # heard about, or we lost the shard): don't ack — the sender
            # must retry against the real owner.
            return
        self.net.send(
            Message("ack", self.host_id, msg.src, msg.round, msg.seq)
        )

    # -- round execution -------------------------------------------------
    def _maybe_crash(self, round_: int) -> None:
        for spec in self.crash_specs:
            dies_at = 1 if spec.value is None else int(spec.value)
            if dies_at == round_:
                self.events.append(
                    FaultEvent(
                        kind="host_crash",
                        backend="dist",
                        attempt=0,
                        where=f"host{self.host_id}",
                        trigger=round_,
                        detail=f"injected crash entering round {round_}",
                    )
                )
                raise HostCrashError(
                    f"injected crash of host {self.host_id} entering round {round_}",
                    host=self.host_id,
                    round=round_,
                )

    def _run_round(self, round_: int, owners: list[int], epochs: list[int]) -> None:
        self._maybe_crash(round_)

        # Ownership sync: adopt newly assigned shards, drop lost ones.
        for j, owner in enumerate(owners):
            if owner == self.host_id and j not in self.owned:
                self._adopt(j, epochs[j], round_)
            elif owner != self.host_id and j in self.owned:
                del self.owned[j]
        # Epoch bumps reset ack state toward the reassigned shard: its
        # new owner starts blank, so the full frontier must be resent.
        if epochs != self._epochs:
            for j, e in enumerate(epochs):
                if j >= len(self._epochs) or self._epochs[j] != e:
                    for st in self.owned.values():
                        st.reset_sent(j)
            self._epochs = list(epochs)

        self._failed_peers = set()
        sent_any = self._exchange(round_, owners) if round_ > 0 else False
        changed = sent_any or self._dirty
        self._dirty = False

        self._checkpoint(round_, epochs)

        report = Message(
            "report",
            self.host_id,
            self.net.coordinator_id,
            round_,
            self._next_seq(),
            {
                "round": round_,
                "changed": bool(changed),
                "failed_peers": sorted(self._failed_peers),
                "counters": dict(self.counters),
            },
        )
        self._cached_report = report
        self._last_done = round_
        self.net.send(report)

    def _exchange(self, round_: int, owners: list[int]) -> bool:
        sent_any = False
        pending: dict[tuple[int, int], dict] = {}
        now = time.monotonic()
        for st in list(self.owned.values()):
            for t in st.targets():
                owner = owners[t]
                verts, labs, pos = st.outgoing(t)
                if verts.size == 0:
                    continue
                if owner == self.host_id:
                    # Loopback: both shards live here — no wire.
                    if t in self.owned and self.owned[t].apply_remote(verts, labs):
                        self._dirty = True
                    st.mark_acked(t, pos, labs)
                    sent_any = True
                    continue
                msg = Message(
                    "update",
                    self.host_id,
                    owner,
                    round_,
                    self._next_seq(),
                    {"shard": t, "verts": verts, "labels": labs},
                )
                pending[(owner, msg.seq)] = {
                    "msg": msg,
                    "state": st,
                    "target": t,
                    "pos": pos,
                    "labels": labs,
                    "attempt": 0,
                    "deadline": now + self.backoff.delay(0),
                }
                self.counters["updates_sent"] += 1
                self.net.send(msg)
                sent_any = True

        while pending:
            wait = min(e["deadline"] for e in pending.values()) - time.monotonic()
            msg = self.net.recv(self.host_id, timeout=max(wait, 0.0005))
            if msg is not None:
                if msg.kind == "ack":
                    entry = pending.pop((msg.src, msg.seq), None)
                    if entry is not None:
                        entry["state"].mark_acked(
                            entry["target"], entry["pos"], entry["labels"]
                        )
                elif msg.kind == "update":
                    self._handle_update(msg)
                elif msg.kind == "halt":
                    raise _Halted()
                # duplicate proceeds mid-round: we're working on it; the
                # coordinator's own retransmit loop covers the barrier.
                continue
            if self.net.closed:
                raise _Halted()
            now = time.monotonic()
            for key, entry in list(pending.items()):
                if now < entry["deadline"]:
                    continue
                if entry["attempt"] >= self.cfg.max_retries:
                    self._failed_peers.add(key[0])
                    del pending[key]
                else:
                    entry["attempt"] += 1
                    entry["deadline"] = now + self.backoff.delay(entry["attempt"])
                    self.counters["retransmits"] += 1
                    self.net.send(entry["msg"])
        return sent_any

    # -- durable store ---------------------------------------------------
    def _ckpt_paths(self, shard: int, epoch: int) -> tuple[str, str]:
        stem = os.path.join(self.scratch_root, f"shard{shard}.e{epoch}")
        return stem + ".npy", stem + ".json"

    def _checkpoint(self, round_: int, epochs: list[int]) -> None:
        for j, st in self.owned.items():
            npy, meta = self._ckpt_paths(j, epochs[j])
            tmp = npy + f".tmp{self.host_id}"
            with open(tmp, "wb") as fh:
                np.save(fh, st.resolved())
            os.replace(tmp, npy)
            blob = json.dumps(
                {"shard": j, "epoch": epochs[j], "round": round_, "n": st.end - st.start}
            )
            tmp = meta + f".tmp{self.host_id}"
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(blob)
            os.replace(tmp, meta)  # the meta file is the commit point
            self.counters["checkpoints"] += 1

    def _load_checkpoint(self, shard: int, max_epoch: int) -> np.ndarray | None:
        start, end = self.plan.range_of(shard)
        for epoch in range(max_epoch, -1, -1):
            npy, meta = self._ckpt_paths(shard, epoch)
            if not os.path.exists(meta):
                continue
            try:
                with open(meta, encoding="utf-8") as fh:
                    info = json.load(fh)
                labels = np.load(npy)
            except (OSError, ValueError, json.JSONDecodeError):
                self.counters["checkpoints_rejected"] += 1
                continue
            ok = (
                info.get("shard") == shard
                and labels.shape == (end - start,)
                and (
                    labels.size == 0
                    or (
                        labels.min() >= 0
                        and bool(np.all(labels <= np.arange(start, end)))
                    )
                )
            )
            if not ok:
                self.counters["checkpoints_rejected"] += 1
                continue
            return labels.astype(np.int64, copy=False)
        return None

    def _adopt(self, shard: int, epoch: int, round_: int) -> None:
        st = ShardState(self.graph, self.plan, shard)
        restored = self._load_checkpoint(shard, epoch)
        if restored is not None:
            st.absorb(restored)
        self.owned[shard] = st
        self._dirty = True
        if round_ > 0:
            self.counters["adoptions"] += 1
