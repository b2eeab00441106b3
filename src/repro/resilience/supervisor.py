"""The resilient execution supervisor.

:func:`resilient_components` wraps :func:`repro.connected_components`
in a supervision policy:

* **Watchdog** — every attempt gets a wall-clock deadline; hangs and
  starved kernels surface as :class:`~repro.errors.WatchdogTimeoutError`
  instead of a stuck process.
* **Bounded retry with backoff** — transient faults (kernel aborts,
  worker crashes, timeouts) retry the same backend up to
  ``max_retries`` times with exponential backoff.
* **Checkpointed resume** — when a failing backend attaches the
  surviving parent array to the exception, the retry passes it back as
  ``initial_parent`` and the run re-enters computation from there
  instead of restarting at Init.  ECL-CC's hooking is idempotent and
  the parent array is monotone, so resuming from any in-component
  intermediate state converges to the same canonical labels.
* **Graceful degradation** — a backend that exhausts its retries (or
  OOMs, which retrying cannot fix) falls back to the next backend in
  the chain (default ``gpu → omp → numpy → serial``); a per-backend
  circuit breaker (:class:`~.health.BackendHealth`) skips backends
  that keep failing across calls.
* **Verification** — in chaos mode every successful attempt is checked
  with the O(n+m) structural verifier; since a structural pass proves
  the labels are the canonical minimum-member IDs, a verified result is
  bit-identical to the serial oracle's.  A failed check marks the
  attempt *corrupt*, discards the (poisoned) checkpoint, and retries
  fresh.

The whole recovery history lands on ``result.recovery`` (a
:class:`RecoveryInfo`) and in the :mod:`repro.observe` trace as
``resilience:*`` spans with ``resilience.*`` counters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..errors import (
    DeviceOOMError,
    ReproError,
    ResilienceExhaustedError,
    UnknownBackendError,
    UnknownOptionError,
)
from ..graph.csr import CSRGraph
from ..observe import current_tracer
from .faults import FaultEvent, FaultPlan
from .health import BackendHealth
from .injector import FaultInjector, Watchdog

__all__ = [
    "DEFAULT_CHAIN",
    "AttemptRecord",
    "RecoveryInfo",
    "sanitize_checkpoint",
    "resilient_components",
]

#: Degradation order: fastest/most faithful first, an implementation
#: that cannot fail last.
DEFAULT_CHAIN = ("gpu", "omp", "numpy", "serial")


@dataclass
class AttemptRecord:
    """Outcome of one backend attempt."""

    backend: str
    attempt: int
    status: str  # "ok" | "fault" | "corrupt" | "skipped"
    error: str = ""
    error_kind: str = ""
    faults: list[FaultEvent] = field(default_factory=list)
    resumed: bool = False  # started from a checkpointed parent array
    duration_ms: float = 0.0

    def to_dict(self) -> dict:
        return {
            "backend": self.backend,
            "attempt": self.attempt,
            "status": self.status,
            "error": self.error,
            "error_kind": self.error_kind,
            "faults": [ev.to_dict() for ev in self.faults],
            "resumed": self.resumed,
            "duration_ms": self.duration_ms,
        }


@dataclass
class RecoveryInfo:
    """Full recovery history of one supervised run."""

    backend: str = ""  # backend that produced the returned labels
    attempts: list[AttemptRecord] = field(default_factory=list)
    retries: int = 0
    fallbacks: int = 0
    corrupt_results: int = 0
    verified: bool = False

    @property
    def faults(self) -> list[FaultEvent]:
        """Every fault that fired, across all attempts, in order."""
        return [ev for a in self.attempts for ev in a.faults]

    def sequence(self) -> list[tuple]:
        """Compact recovery signature, for replay-determinism checks."""
        return [
            (a.backend, a.attempt, a.status, a.error_kind,
             tuple((ev.kind, ev.where, ev.trigger) for ev in a.faults))
            for a in self.attempts
        ]

    def to_dict(self) -> dict:
        return {
            "backend": self.backend,
            "retries": self.retries,
            "fallbacks": self.fallbacks,
            "corrupt_results": self.corrupt_results,
            "verified": self.verified,
            "attempts": [a.to_dict() for a in self.attempts],
        }


def sanitize_checkpoint(parent, n: int) -> np.ndarray | None:
    """Clamp a surviving parent array back inside ECL-CC's invariant.

    A valid intermediate parent array satisfies ``0 <= parent[v] <= v``
    (hooking only ever lowers representatives).  Entries outside that
    range — torn or corrupted stores caught mid-crash — are reset to
    identity, which is always safe: re-hooking re-derives them.
    In-range *cross-component* corruption cannot be detected locally;
    the post-run structural verification catches it instead.
    """
    if parent is None:
        return None
    p = np.asarray(parent)
    if p.ndim != 1 or p.shape[0] != n or not np.issubdtype(p.dtype, np.integer):
        return None
    p = p.astype(np.int64, copy=True)
    idx = np.arange(n, dtype=np.int64)
    bad = (p < 0) | (p > idx)
    p[bad] = idx[bad]
    return p


def _chain_specs(chain: tuple[str, ...], options: dict) -> dict[str, dict]:
    """Validate the chain and split options per backend, fail-fast.

    Every chain backend must exist; every option must be accepted by at
    least one chain backend (and pass its value validation there).
    Returns ``{backend: filtered_options}``.
    """
    from ..core.api import BACKENDS

    specs = {}
    for name in chain:
        spec = BACKENDS.get(name)
        if spec is None:
            raise UnknownBackendError(
                f"unknown backend {name!r} in degradation chain; "
                f"registered backends: {', '.join(sorted(BACKENDS))}"
            )
        specs[name] = spec
    per_backend: dict[str, dict] = {name: {} for name in chain}
    for key, value in options.items():
        takers = [name for name in chain if key in specs[name].options]
        if not takers:
            valid = sorted({k for name in chain for k in specs[name].options})
            raise UnknownOptionError(
                f"unknown option {key!r}: no backend in chain {chain} "
                f"accepts it; valid options: {', '.join(valid) or '(none)'}"
            )
        for name in takers:
            per_backend[name][key] = value
    for name in chain:
        specs[name].validate_options(per_backend[name])
    return per_backend


def resilient_components(
    graph: CSRGraph,
    *,
    plan: FaultPlan | None = None,
    backends: tuple[str, ...] | list[str] | None = None,
    max_retries: int = 2,
    deadline_s: float | None = None,
    backoff_s: float = 0.05,
    backoff_factor: float = 2.0,
    verify: bool | str = "auto",
    health: BackendHealth | None = None,
    full_result: bool | None = None,
    **options,
):
    """Compute connected components under supervision.

    Parameters
    ----------
    plan:
        A :class:`FaultPlan` to inject (chaos testing); ``None`` runs
        fault-free (the supervisor then adds near-zero overhead: no
        injector, no verification).
    backends:
        Degradation chain, tried in order (default :data:`DEFAULT_CHAIN`).
    max_retries:
        Same-backend retries after a transient fault (so up to
        ``max_retries + 1`` attempts per backend).
    deadline_s:
        Per-attempt wall-clock deadline enforced by the watchdog.
        Required for ``hang``/``lost_warp`` faults to resolve.
    backoff_s / backoff_factor:
        Initial retry delay and its exponential growth factor.
    verify:
        ``"auto"`` verifies successful attempts only when ``plan`` has
        faults; ``True``/``False`` force it on/off.  Verification uses
        the O(n+m) structural certifier, whose pass implies the labels
        are bit-identical to the serial oracle's canonical output.
    health:
        A shared :class:`BackendHealth` for cross-call circuit breaking
        (default: a fresh, isolated instance).
    options:
        Backend options, routed to every chain backend whose schema
        accepts them.  An option no chain backend accepts raises
        :class:`UnknownOptionError` *before* any graph work.

    Returns the full :class:`~repro.core.result.CCResult` (with
    ``result.recovery``) by default, or just the label array when
    ``full_result=False`` — mirroring
    :func:`repro.connected_components`.  Raises
    :class:`ResilienceExhaustedError` when every backend fails.
    """
    chain = DEFAULT_CHAIN if backends is None else tuple(backends)
    if not chain:
        raise ValueError("degradation chain must name at least one backend")
    if max_retries < 0:
        raise ValueError("max_retries must be >= 0")
    per_backend = _chain_specs(chain, options)
    if plan is not None and plan and "scheduler" in options:
        raise ValueError(
            "cannot combine a user scheduler with fault injection: "
            "both need the scheduler seam; drop one"
        )
    if health is None:
        health = BackendHealth()
    do_verify = bool(plan) if verify == "auto" else bool(verify)

    from ..core.api import BACKENDS, connected_components

    tracer = current_tracer()
    recovery = RecoveryInfo()
    n = graph.num_vertices
    checkpoint: np.ndarray | None = None

    with tracer.span(
        "resilience:run",
        category="resilience",
        chain=",".join(chain),
        chaos=bool(plan),
    ):
        for bi, backend in enumerate(chain):
            spec = BACKENDS[backend]
            if not health.available(backend):
                recovery.attempts.append(
                    AttemptRecord(backend, 0, "skipped", error="circuit open")
                )
                recovery.fallbacks += 1
                tracer.count("resilience.fallbacks")
                continue
            supports_resume = "initial_parent" in spec.options
            supports_sched = "scheduler" in spec.options
            delay = backoff_s
            attempt = 0
            while attempt <= max_retries:
                armed = plan.for_backend(backend, attempt) if plan else []
                watchdog = Watchdog(deadline_s) if deadline_s else None
                injector = None
                opts = dict(per_backend[backend])
                if supports_sched and "scheduler" not in opts and (armed or watchdog):
                    injector = FaultInjector(
                        armed, backend=backend, attempt=attempt, watchdog=watchdog
                    )
                    opts["scheduler"] = injector
                resumed = checkpoint is not None and supports_resume
                if resumed:
                    opts["initial_parent"] = checkpoint
                record = AttemptRecord(backend, attempt, "ok", resumed=resumed)
                t0 = time.perf_counter()
                try:
                    with tracer.span(
                        "resilience:attempt",
                        category="resilience",
                        backend=backend,
                        attempt=attempt,
                        resumed=resumed,
                    ):
                        result = connected_components(
                            graph, backend=backend, full_result=True, **opts
                        )
                except ReproError as exc:
                    record.duration_ms = (time.perf_counter() - t0) * 1e3
                    record.status = "fault"
                    record.error = str(exc)
                    record.error_kind = getattr(exc, "kind", type(exc).__name__)
                    if injector is not None:
                        record.faults = list(injector.events)
                        tracer.count("resilience.faults", len(injector.events))
                    recovery.attempts.append(record)
                    cp = sanitize_checkpoint(getattr(exc, "checkpoint", None), n)
                    if cp is not None:
                        checkpoint = cp
                    transient = not isinstance(exc, DeviceOOMError)
                    if transient and attempt < max_retries:
                        recovery.retries += 1
                        tracer.count("resilience.retries")
                        if delay > 0:
                            time.sleep(delay)
                            delay *= backoff_factor
                        attempt += 1
                        continue
                    # Retries exhausted (or OOM, which retrying cannot
                    # fix): degrade to the next backend.
                    health.record_failure(backend, str(exc))
                    break
                record.duration_ms = (time.perf_counter() - t0) * 1e3
                if injector is not None:
                    record.faults = list(injector.events)
                    if injector.events:
                        tracer.count("resilience.faults", len(injector.events))
                if do_verify:
                    from ..verify.oracle import verify_labels_structural

                    with tracer.span(
                        "resilience:verify", category="resilience", backend=backend
                    ):
                        ok = verify_labels_structural(graph, result.labels)
                    if not ok:
                        record.status = "corrupt"
                        record.error = "structural verification failed"
                        record.error_kind = "corrupt_result"
                        recovery.attempts.append(record)
                        recovery.corrupt_results += 1
                        tracer.count("resilience.corrupt_results")
                        checkpoint = None  # poisoned; restart from Init
                        if attempt < max_retries:
                            recovery.retries += 1
                            tracer.count("resilience.retries")
                            if delay > 0:
                                time.sleep(delay)
                                delay *= backoff_factor
                            attempt += 1
                            continue
                        health.record_failure(backend, record.error)
                        break
                    recovery.verified = True
                recovery.attempts.append(record)
                recovery.backend = backend
                health.record_success(backend)
                result.recovery = recovery
                return result.labels if full_result is False else result
            if bi + 1 < len(chain):
                recovery.fallbacks += 1
                tracer.count("resilience.fallbacks")

    raise ResilienceExhaustedError(
        f"all backends failed on graph {graph.name!r} "
        f"(chain {chain}, {len(recovery.attempts)} attempts: "
        + "; ".join(
            f"{a.backend}#{a.attempt}={a.error_kind or a.status}"
            for a in recovery.attempts
        )
        + ")"
    )
