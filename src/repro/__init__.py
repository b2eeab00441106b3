"""repro: a reproduction of "A High-Performance Connected Components
Implementation for GPUs" (Jaiganesh & Burtscher, HPDC 2018).

Public API highlights:

* :func:`repro.connected_components` — label components with any backend
  (returns a :class:`CCResult`).
* :class:`repro.ConnectivityService` — the long-lived serving layer:
  batched incremental edge updates and high-throughput component
  queries over an owned graph.
* :func:`repro.resilient_components` — supervised execution (watchdog,
  checkpointed retry, backend degradation).
* :data:`repro.BACKENDS` — the backend registry; extend it with
  :func:`repro.register_backend`.
* :mod:`repro.graph` — CSR graphs, builders, file I/O, statistics.
* :mod:`repro.generators` — synthetic graphs and the 18-input suite.
* :mod:`repro.gpusim` — the simulated GPU the CUDA kernels run on.
* :mod:`repro.observe` — structured tracing/metrics across all layers.
* :mod:`repro.verify` — oracles, adversarial schedulers, fuzzing.
* :mod:`repro.resilience` — fault injection (chaos testing) and the
  resilient supervisor.
* :mod:`repro.shard` — sharded multi-process execution over shared
  memory (the ``"sharded"`` backend).
* :mod:`repro.outofcore` — spill-to-disk streaming under an explicit
  memory budget (the ``"oocore"`` backend).
* :mod:`repro.dist` — fault-tolerant merge across simulated hosts over
  a lossy chaos-injected network (the ``"distributed"`` backend).
* :mod:`repro.experiments` — regenerate every table/figure of the paper,
  plus the wall-clock and load-generator benchmarks.
"""

from .core.api import (
    BACKENDS,
    connected_components,
    count_components,
    register_backend,
)
from .core.result import CCResult
from .dist import dist_cc
from .graph.csr import CSRGraph
from .graph.spill import SpilledGraph
from .outofcore import oocore_cc
from .resilience import FaultPlan, resilient_components
from .service import BatchPolicy, ConnectivityService
from .shard import ShardedExecutor, sharded_cc

__version__ = "2.4.0"

__all__ = [
    "connected_components",
    "count_components",
    "dist_cc",
    "oocore_cc",
    "register_backend",
    "resilient_components",
    "sharded_cc",
    "BACKENDS",
    "BatchPolicy",
    "ConnectivityService",
    "FaultPlan",
    "CCResult",
    "CSRGraph",
    "SpilledGraph",
    "ShardedExecutor",
    "__version__",
]
