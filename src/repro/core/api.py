"""Public entry point: :func:`connected_components` and the backend registry.

Backends are looked up in :data:`BACKENDS`, a registry mapping a name to
a :class:`BackendSpec` (runner + option schema).  The built-in entries:

``"serial"``
    ECL-CC_SER — pure-Python transcription of the paper's serial code.
``"numpy"``
    Vectorized frontier-shrinking variant; fastest natively, use for
    medium/large graphs.
``"gpu"``
    The full five-kernel ECL-CC on the simulated GPU (Titan X by
    default).  Slow in wall-clock terms but faithful to the paper's
    execution model; returns modeled kernel timings via ``full_result``.
``"omp"``
    ECL-CC_OMP on the virtual-thread CPU executor.
``"fastsv"``
    FastSV (Zhang et al. 2020) — the post-paper vectorized alternative.
``"afforest"``
    Afforest (Sutton et al. 2018) on the simulated GPU.
``"contract"``
    Recursive graph contraction (hook → compress → renumber → recurse);
    the fastest native backend on road/grid/mesh classes, where the
    frontier formulation needs many hook rounds.
``"sharded"``
    Partition-then-merge over real ``multiprocessing`` workers reading
    the CSR arrays zero-copy from shared memory; the only backend that
    uses more than one OS process.  Small graphs run the identical
    dataflow inline (process transport would dominate).
``"oocore"``
    Out-of-core streaming: the CSR is spilled to checksummed on-disk
    shards, solved one shard at a time under an enforced
    ``memory_budget``, and the cross-shard arcs are merged from disk in
    one chunked pass (:mod:`repro.outofcore`).
``"distributed"``
    K simulated hosts (threads) each solve one vertex-range shard and
    converge through rounds of boundary-label exchange over a lossy
    simulated network; retransmission, heartbeats and checkpointed
    shard reassignment recover from injected faults (:mod:`repro.dist`).

Third-party backends join the same dispatch with
:func:`register_backend`; their options are validated against the
declared schema exactly like the built-ins' (an unknown keyword raises
:class:`~repro.errors.UnknownOptionError` listing the valid keys instead
of surfacing as a deep ``TypeError``).

Every backend returns a :class:`~repro.core.result.CCResult` (the
default return shape of :func:`connected_components`; pass
``full_result=False`` for the bare label array); when a
:class:`~repro.observe.Tracer` is active the result also carries the
spans recorded during the run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from ..errors import UnknownBackendError, UnknownOptionError
from ..graph.csr import CSRGraph
from ..observe import current_tracer
from ..shard.worker import SHARD_BACKENDS
from .result import CCResult

__all__ = [
    "connected_components",
    "count_components",
    "BACKENDS",
    "BackendSpec",
    "OptionSpec",
    "get_backend",
    "register_backend",
    "unregister_backend",
]

_INIT_CHOICES = ("Init1", "Init2", "Init3")
_FINI_CHOICES = ("Fini1", "Fini2", "Fini3")
_JUMP_CPU_CHOICES = ("none", "single", "full", "halving")
_JUMP_GPU_CHOICES = (
    "Jump1", "Jump2", "Jump3", "Jump4", "full", "single", "none", "halving",
)


@dataclass(frozen=True)
class OptionSpec:
    """Schema entry for one backend option."""

    doc: str = ""
    choices: tuple | None = None  # valid string values, None = unconstrained


@dataclass(frozen=True)
class BackendSpec:
    """Registry entry: a runner plus the options it accepts."""

    name: str
    run: Callable[..., object]  # (graph, **options) -> see register_backend
    options: Mapping[str, OptionSpec] = field(default_factory=dict)
    description: str = ""

    def validate_options(self, options: Mapping[str, object]) -> None:
        """Reject unknown keys (and out-of-range declared string values)."""
        unknown = [k for k in options if k not in self.options]
        if unknown:
            valid = ", ".join(sorted(self.options)) or "(none)"
            raise UnknownOptionError(
                f"unknown option{'s' if len(unknown) > 1 else ''} "
                f"{', '.join(repr(k) for k in sorted(unknown))} for backend "
                f"{self.name!r}; valid options: {valid}"
            )
        for key, value in options.items():
            spec = self.options[key]
            if (
                spec.choices is not None
                and isinstance(value, str)
                and value not in spec.choices
            ):
                raise ValueError(
                    f"invalid value {value!r} for option {key!r} of backend "
                    f"{self.name!r}; choose from {spec.choices}"
                )


BACKENDS: dict[str, BackendSpec] = {}


def get_backend(name: str) -> BackendSpec:
    """Look up a registered backend; unknown names list what exists."""
    spec = BACKENDS.get(name)
    if spec is None:
        raise UnknownBackendError(
            f"unknown backend {name!r}; registered backends: "
            f"{', '.join(sorted(BACKENDS)) or '(none)'}"
        )
    return spec


def register_backend(
    name: str,
    runner: Callable[..., object],
    *,
    options: Mapping[str, OptionSpec | str] | None = None,
    description: str = "",
    overwrite: bool = False,
) -> BackendSpec:
    """Add a backend to the registry (the extension point for new codes).

    ``runner(graph, **options)`` may return a :class:`CCResult`, a
    ``(labels, stats)`` tuple, or a bare label array — all are normalized
    to :class:`CCResult`.  ``options`` maps each accepted keyword to an
    :class:`OptionSpec` (or a doc string shorthand); keywords outside the
    schema are rejected at dispatch with
    :class:`~repro.errors.UnknownOptionError`.
    """
    if name in BACKENDS and not overwrite:
        raise ValueError(
            f"backend {name!r} is already registered; pass overwrite=True to replace"
        )
    schema = {
        key: spec if isinstance(spec, OptionSpec) else OptionSpec(doc=str(spec))
        for key, spec in (options or {}).items()
    }
    entry = BackendSpec(
        name=name, run=runner, options=schema, description=description
    )
    BACKENDS[name] = entry
    return entry


def unregister_backend(name: str) -> None:
    """Remove a backend from the registry (missing names are ignored)."""
    BACKENDS.pop(name, None)


def _normalize(raw, backend: str, wall_ms: float) -> CCResult:
    """Coerce a runner's return value into a :class:`CCResult`."""
    if isinstance(raw, CCResult):
        if not raw.backend:
            raw.backend = backend
        raw.timings.setdefault("wall_ms", wall_ms)
        raw.timings.setdefault("total_ms", wall_ms)
        return raw
    if isinstance(raw, tuple):
        labels, stats = raw
        return CCResult(
            labels=np.asarray(labels),
            backend=backend,
            stats=stats,
            timings={"total_ms": wall_ms, "wall_ms": wall_ms},
        )
    return CCResult(
        labels=np.asarray(raw),
        backend=backend,
        timings={"total_ms": wall_ms, "wall_ms": wall_ms},
    )


def connected_components(
    graph: CSRGraph,
    *,
    backend: str = "numpy",
    full_result: bool | None = None,
    resilient: bool = False,
    **options,
):
    """Compute connected-component labels of an undirected CSR graph.

    Parameters
    ----------
    graph:
        The input graph (use :mod:`repro.graph` builders to construct).
    backend:
        A name registered in :data:`BACKENDS` (built-ins: ``"serial"``,
        ``"numpy"``, ``"gpu"``, ``"omp"``, ``"fastsv"``, ``"afforest"``,
        ``"contract"``, ``"sharded"``, ``"oocore"``, ``"distributed"``).
    full_result:
        The :class:`CCResult` (labels, stats, timings, trace, ...) is the
        default return.  Pass ``full_result=False`` to get just the label
        array; ``full_result=True`` is accepted for compatibility and
        identical to the default.
    resilient:
        Run under the :mod:`repro.resilience` supervisor: watchdogged
        attempts, checkpointed retry, and graceful degradation from
        ``backend`` down the default chain (``gpu → omp → numpy →
        serial``; a backend outside the chain degrades into the full
        chain).  See :func:`repro.resilience.resilient_components` for
        the fine-grained knobs.
    options:
        Backend-specific keyword arguments (``init=``, ``jump=``,
        ``fini=``, ``device=``, ``seed=``, ...), validated against the
        backend's option schema.

    Returns
    -------
    CCResult | numpy.ndarray
        The :class:`CCResult`; ``result.labels[v]`` = min vertex ID of
        v's component (just the label array under ``full_result=False``).
    """
    if resilient:
        from ..resilience import DEFAULT_CHAIN, resilient_components

        if backend in DEFAULT_CHAIN:
            chain = DEFAULT_CHAIN[DEFAULT_CHAIN.index(backend):]
        else:
            get_backend(backend)  # fail fast on unknown names
            chain = (backend, *DEFAULT_CHAIN)
        return resilient_components(
            graph,
            backends=chain,
            full_result=full_result,
            **options,
        )
    spec = get_backend(backend)
    spec.validate_options(options)

    tracer = current_tracer()
    mark = len(tracer.spans)
    t0 = time.perf_counter()
    with tracer.span(
        f"cc:{backend}",
        category="api",
        backend=backend,
        graph=getattr(graph, "name", None) or "?",
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
    ):
        raw = spec.run(graph, **options)
    wall_ms = (time.perf_counter() - t0) * 1e3
    result = _normalize(raw, backend, wall_ms)
    result.timings.setdefault("wall_ms", wall_ms)
    if tracer.enabled:
        result.trace = tracer.spans[mark:]
    return result.labels if full_result is False else result


def count_components(graph: CSRGraph, *, backend: str = "numpy", **options) -> int:
    """Number of connected components of ``graph``.

    Isolated vertices each count as their own component; the empty graph
    has zero components (no ``np.unique`` call on a zero-length array).
    Backend name and options are validated *before* the empty-graph
    shortcut so misuse fails identically on every input.
    """
    get_backend(backend).validate_options(options)
    if graph.num_vertices == 0:
        return 0
    result = connected_components(
        graph, backend=backend, full_result=True, **options
    )
    return int(np.unique(result.labels).size)


# ----------------------------------------------------------------------
# Built-in backends
# ----------------------------------------------------------------------
def _run_serial(graph: CSRGraph, **options):
    from .ecl_cc_serial import ecl_cc_serial

    return ecl_cc_serial(graph, **options)


def _run_numpy(graph: CSRGraph, **options):
    from .ecl_cc_numpy import ecl_cc_numpy

    return ecl_cc_numpy(graph, **options)


def _run_gpu(graph: CSRGraph, **options) -> CCResult:
    from .ecl_cc_gpu import ecl_cc_gpu  # deferred: pulls in gpusim

    t0 = time.perf_counter()
    res = ecl_cc_gpu(graph, **options)
    wall_ms = (time.perf_counter() - t0) * 1e3
    timings = {"total_ms": res.total_time_ms, "wall_ms": wall_ms}
    for k in res.kernels:
        key = f"kernel:{k.name}"
        timings[key] = timings.get(key, 0.0) + k.time_ms
    return CCResult(labels=res.labels, backend="gpu", stats=res, timings=timings)


def _run_omp(graph: CSRGraph, **options) -> CCResult:
    from ..baselines.cpu.ecl_cc_omp import ecl_cc_omp  # deferred

    t0 = time.perf_counter()
    res = ecl_cc_omp(graph, **options)
    wall_ms = (time.perf_counter() - t0) * 1e3
    timings = {"total_ms": res.modeled_time_ms, "wall_ms": wall_ms}
    for region in res.regions:
        key = f"region:{region.name}"
        timings[key] = timings.get(key, 0.0) + region.modeled_s * 1e3
    return CCResult(labels=res.labels, backend="omp", stats=res, timings=timings)


def _run_contract(graph: CSRGraph, **options):
    from .contract import contract_cc

    return contract_cc(graph, **options)


def _run_sharded(graph: CSRGraph, **options) -> CCResult:
    from ..shard import sharded_cc  # deferred: pulls in multiprocessing

    return sharded_cc(graph, **options)


def _run_oocore(graph: CSRGraph, **options) -> CCResult:
    from ..outofcore import oocore_cc  # deferred: pulls in spill machinery

    t0 = time.perf_counter()
    labels, stats, recovery = oocore_cc(graph, **options)
    wall_ms = (time.perf_counter() - t0) * 1e3
    result = CCResult(
        labels=labels,
        backend="oocore",
        stats=stats,
        timings={"total_ms": wall_ms, "wall_ms": wall_ms},
    )
    if recovery.retries or recovery.faults:
        result.recovery = recovery
    return result


def _run_distributed(graph: CSRGraph, **options) -> CCResult:
    from ..dist import dist_cc  # deferred: pulls in the host runtime

    return dist_cc(graph, **options)


def _run_fastsv(graph: CSRGraph, **options):
    from ..baselines.fastsv import fastsv_cc  # deferred

    return fastsv_cc(graph, **options)


def _run_afforest(graph: CSRGraph, **options) -> CCResult:
    from ..extensions.afforest import afforest_cc  # deferred

    t0 = time.perf_counter()
    res = afforest_cc(graph, **options)
    wall_ms = (time.perf_counter() - t0) * 1e3
    timings = {"total_ms": res.total_time_ms, "wall_ms": wall_ms}
    for k in res.kernels:
        key = f"kernel:{k.name}"
        timings[key] = timings.get(key, 0.0) + k.time_ms
    return CCResult(
        labels=res.labels, backend="afforest", stats=res, timings=timings
    )


register_backend(
    "serial",
    _run_serial,
    description="ECL-CC_SER, the paper's serial CPU code",
    options={
        "init": OptionSpec("initialization variant", _INIT_CHOICES),
        "jump": OptionSpec("pointer-jumping variant", _JUMP_CPU_CHOICES),
        "fini": OptionSpec("finalization variant", _FINI_CHOICES),
        "collect_stats": OptionSpec("record find/hook counts and path lengths"),
    },
)
register_backend(
    "numpy",
    _run_numpy,
    description="vectorized frontier-shrinking ECL-CC (fastest natively)",
    options={"init": OptionSpec("initialization variant", _INIT_CHOICES)},
)
register_backend(
    "gpu",
    _run_gpu,
    description="five-kernel ECL-CC on the simulated GPU",
    options={
        "device": OptionSpec("gpusim DeviceSpec (default TITAN_X)"),
        "init": OptionSpec("initialization variant", _INIT_CHOICES),
        "jump": OptionSpec("pointer-jumping variant", _JUMP_GPU_CHOICES),
        "fini": OptionSpec("finalization variant", _FINI_CHOICES),
        "thresholds": OptionSpec("(mid, high) worklist degree thresholds"),
        "seed": OptionSpec("warp-scheduler seed (None = round-robin)"),
        "scheduler": OptionSpec(
            "injectable warp scheduler (repro.verify protocol); overrides seed"
        ),
        "hook": OptionSpec("injectable hook routine (verification harness)"),
        "collect_paths": OptionSpec("record Table 4 path-length stats"),
        "warp_broadcast": OptionSpec("lane-0-broadcast warp-kernel ablation"),
        "max_warps_kernel2": OptionSpec("warp cap for the medium-degree kernel"),
        "max_blocks_kernel3": OptionSpec("block cap for the high-degree kernel"),
        "initial_parent": OptionSpec(
            "checkpointed parent array to resume from (skips the init kernel)"
        ),
    },
)
register_backend(
    "omp",
    _run_omp,
    description="ECL-CC_OMP on the virtual-thread CPU executor",
    options={
        "spec": OptionSpec("cpusim CpuSpec (default E5_2687W)"),
        "init": OptionSpec("initialization variant", _INIT_CHOICES),
        "jump": OptionSpec("pointer-jumping variant", _JUMP_CPU_CHOICES),
        "cas": OptionSpec("injectable compare-and-swap callable"),
        "scheduler": OptionSpec(
            "injectable chunk-order scheduler (repro.verify protocol)"
        ),
        "initial_parent": OptionSpec(
            "checkpointed parent array to resume from (skips the init region)"
        ),
    },
)
register_backend(
    "contract",
    _run_contract,
    description="recursive graph contraction (fastest native on road/grid classes)",
    options={
        "base_cutoff": OptionSpec(
            "vertex count below which the remainder falls through to "
            "ecl_cc_numpy (default 2048)"
        ),
        "max_depth": OptionSpec("defensive cap on contraction levels (default 32)"),
    },
)
register_backend(
    "sharded",
    _run_sharded,
    description="partition-then-merge over shared-memory multiprocessing workers",
    options={
        "workers": OptionSpec("shard/worker count K (default: min(4, cpus))"),
        "partitioner": OptionSpec(
            "'range' (equal vertices), 'degree' (equal arcs), or an "
            "explicit repro.shard.ShardPlan",
            ("range", "degree"),
        ),
        "shard_backend": OptionSpec(
            "backend run on each shard's induced subgraph",
            SHARD_BACKENDS,
        ),
        "min_parallel": OptionSpec(
            "arc count below which shards run inline (default 200_000)"
        ),
        "force_processes": OptionSpec(
            "always use the process pool, even below min_parallel"
        ),
        "fault_plan": OptionSpec(
            "repro.resilience FaultPlan; worker_crash specs with "
            "backend='sharded' and at=<shard> crash that shard's worker"
        ),
        "max_retries": OptionSpec(
            "crashed-shard resubmissions before inline recompute (default 1)"
        ),
        "start_method": OptionSpec(
            "worker-pool start method (default forkserver, else spawn)",
            ("fork", "spawn", "forkserver"),
        ),
    },
)
register_backend(
    "oocore",
    _run_oocore,
    description="out-of-core streaming over on-disk CSR shards (bounded memory)",
    options={
        "memory_budget": OptionSpec(
            "resident-byte ceiling enforced by the ResidentMeter "
            "(None = track the peak without enforcing)"
        ),
        "spill_dir": OptionSpec(
            "shard directory (default: a fresh temp dir, removed after "
            "the run)"
        ),
        "shards": OptionSpec(
            "shard count for the spill (default: derived from the budget)"
        ),
        "keep_spill": OptionSpec(
            "keep the spill directory (shards + manifest) after the run"
        ),
        "partitioner": OptionSpec(
            "'range' (equal vertices) or 'degree' (equal arcs)",
            ("range", "degree"),
        ),
        "shard_backend": OptionSpec(
            "backend run on each streamed shard's induced subgraph",
            SHARD_BACKENDS,
        ),
        "fault_plan": OptionSpec(
            "repro.resilience FaultPlan; backend='oocore' specs arm "
            "spill_corrupt/spill_truncate/worker_crash/merge_crash"
        ),
        "resume": OptionSpec(
            "continue from a surviving spill directory's RESUME.json + "
            "parent checkpoint (both checksum-validated)"
        ),
        "auto_resume": OptionSpec(
            "in-process crash retries, resuming from on-disk state "
            "(default 0)"
        ),
    },
)
register_backend(
    "distributed",
    _run_distributed,
    description="fault-tolerant merge across simulated hosts over a lossy network",
    options={
        "hosts": OptionSpec("simulated host count K (default 4)"),
        "partitioner": OptionSpec(
            "'range' (equal vertices) or 'degree' (equal arcs)",
            ("range", "degree"),
        ),
        "shard_backend": OptionSpec(
            "backend each host runs on its shard's induced subgraph",
            SHARD_BACKENDS,
        ),
        "fault_plan": OptionSpec(
            "repro.resilience FaultPlan; backend='dist' specs arm "
            "msg_drop/msg_dup/msg_reorder/host_crash/net_partition"
        ),
        "rpc_timeout": OptionSpec(
            "per-transmission deadline before the first retransmit, "
            "seconds (default 0.25)"
        ),
        "round_timeout": OptionSpec(
            "coordinator's per-round report deadline (default 4x rpc_timeout)"
        ),
        "max_retries": OptionSpec(
            "update retransmissions before a peer is reported unreachable "
            "(default 3)"
        ),
        "heartbeat_misses": OptionSpec(
            "unanswered barrier retransmissions before a host is declared "
            "dead (default 3)"
        ),
        "max_reassignments": OptionSpec(
            "shard-adoption budget before DistProtocolError (default: K)"
        ),
        "max_rounds": OptionSpec("liveness bound on exchange rounds (default 512)"),
        "seed": OptionSpec("backoff-jitter seed (default 0)"),
        "scratch_dir": OptionSpec(
            "checkpoint directory, the simulated durable store (default: "
            "a fresh temp dir, removed after the run)"
        ),
        "keep_scratch": OptionSpec("keep the checkpoint directory after the run"),
        "verify": OptionSpec(
            "run the O(n+m) structural certifier on the assembled labels "
            "(default: exactly when a fault plan is armed)"
        ),
        "trace_messages": OptionSpec(
            "record the per-message trace (kind/link/fate) on the network"
        ),
    },
)
register_backend(
    "fastsv",
    _run_fastsv,
    description="FastSV (Zhang et al. 2020), vectorized",
    options={},
)
register_backend(
    "afforest",
    _run_afforest,
    description="Afforest (Sutton et al. 2018) on the simulated GPU",
    options={
        "device": OptionSpec("gpusim DeviceSpec (default TITAN_X)"),
        "seed": OptionSpec("scheduler and sampling seed"),
        "scheduler": OptionSpec(
            "injectable warp scheduler (repro.verify protocol); overrides seed"
        ),
        "neighbor_rounds": OptionSpec("sampled neighbors per vertex (phase 1)"),
        "num_samples": OptionSpec("label samples for giant-component detection"),
    },
)
