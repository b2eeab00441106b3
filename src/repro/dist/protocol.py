"""Shared protocol policy: the tuning knobs and the retry clock.

Both sides of the protocol — host runtimes and the coordinator — time
their retransmissions with the same :class:`Backoff` (per-RPC deadline,
capped exponential growth, deterministic seeded jitter) so a chaos run
is reproducible end to end: nothing in the retry path consults an
unseeded RNG.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = ["Backoff", "DistConfig"]


@dataclass(frozen=True)
class DistConfig:
    """Every knob of the distributed merge (see ``docs/distributed.md``).

    ``rpc_timeout``
        Deadline for one transmission before the first retransmit; the
        backoff base.  The coordinator's per-round report deadline is
        ``round_timeout`` (default ``4 * rpc_timeout``).
    ``max_retries``
        Retransmissions of one update before the peer is reported
        unreachable (``failed_peers`` in the round report).
    ``heartbeat_misses``
        Consecutive unanswered ``proceed`` retransmissions before the
        coordinator declares a host dead.  Round reports double as
        heartbeats, so a host that stops reporting is detected within
        roughly ``round_timeout * (heartbeat_misses + 1)``.
    ``max_reassignments``
        Shard-adoption budget; exceeding it raises
        :class:`~repro.errors.DistProtocolError` (``None`` = number of
        hosts).
    ``max_rounds``
        Liveness bound on exchange rounds — converging graphs need about
        the diameter of the shard quotient graph, so hitting this means
        the protocol is livelocked and must fail loudly.
    """

    hosts: int = 4
    partitioner: str = "range"
    rpc_timeout: float = 0.25
    round_timeout: float | None = None
    max_retries: int = 3
    heartbeat_misses: int = 3
    backoff_factor: float = 2.0
    backoff_cap: float = 2.0
    jitter: float = 0.1
    max_reassignments: int | None = None
    max_rounds: int = 512
    seed: int = 0
    keep_scratch: bool = False

    def effective_round_timeout(self) -> float:
        return self.round_timeout if self.round_timeout is not None else 4 * self.rpc_timeout


class Backoff:
    """Capped exponential backoff with deterministic jitter.

    ``delay(attempt)`` grows ``base * factor**attempt`` up to ``cap``,
    stretched by up to ``jitter`` fraction drawn from a seeded
    :class:`random.Random` — the classic thundering-herd spreader, made
    replayable.
    """

    def __init__(
        self,
        base: float,
        *,
        factor: float = 2.0,
        cap: float = 2.0,
        jitter: float = 0.1,
        seed: int = 0,
    ) -> None:
        self.base = base
        self.factor = factor
        self.cap = cap
        self.jitter = jitter
        self._rng = random.Random(seed)

    def delay(self, attempt: int) -> float:
        raw = min(self.cap, self.base * self.factor ** max(attempt, 0))
        return raw * (1.0 + self.jitter * self._rng.random())

    @classmethod
    def for_config(cls, cfg: DistConfig, *, base: float | None = None, who: int = 0) -> "Backoff":
        return cls(
            base if base is not None else cfg.rpc_timeout,
            factor=cfg.backoff_factor,
            cap=cfg.backoff_cap,
            jitter=cfg.jitter,
            seed=cfg.seed * 1_000_003 + who,
        )
