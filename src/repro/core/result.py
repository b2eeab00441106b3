"""The uniform result object returned by every backend.

Historically each backend had its own ``full_result=True`` shape —
``(labels, SerialRunStats)`` tuples here, ``GpuRunResult`` objects there.
:class:`CCResult` replaces all of them: ``labels``, the backend's native
``stats`` object, a flat ``timings`` dict (milliseconds), the spans
recorded during the run (when a :class:`~repro.observe.Tracer` was
active), and the backend name.

:class:`CCResult` is now the *default* return of
:func:`repro.connected_components` (pass ``full_result=False`` for just
the label array).  Tuple unpacking — ``labels, stats = result`` — has
completed its deprecation cycle and raises :class:`TypeError`.  The object
coerces to its label array under :func:`numpy.asarray` (so
``np.array_equal(result, reference)`` and friends keep working), and
attribute access falls through to the native ``stats`` object, so
``result.modeled_time_s`` / ``result.kernels`` keep working for code
written against ``GpuRunResult`` / ``CpuRunResult``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

__all__ = ["CCResult"]


@dataclass
class CCResult:
    """Labels plus everything measured about one connected-components run."""

    labels: np.ndarray
    backend: str = ""
    stats: Any = None
    timings: dict[str, float] = field(default_factory=dict)
    trace: list | None = None  # Spans recorded while the run was traced
    # Recovery history (repro.resilience RecoveryInfo) when the run went
    # through the resilient supervisor; None for direct runs.
    recovery: Any = None

    # -- uniform accessors ----------------------------------------------
    @property
    def total_time_ms(self) -> float:
        """The backend's primary time: modeled where a cost model exists
        (gpu/omp/afforest), wall-clock otherwise."""
        return float(self.timings.get("total_ms", 0.0))

    @property
    def num_components(self) -> int:
        return int(np.unique(self.labels).size) if self.labels.size else 0

    # -- numpy interop ---------------------------------------------------
    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """Coerce to the label array, so ``np.asarray(result)`` /
        ``np.array_equal(result, reference)`` treat the result as its
        labels."""
        arr = self.labels
        if dtype is not None and arr.dtype != np.dtype(dtype):
            return arr.astype(dtype)
        if copy:
            return arr.copy()
        return arr

    def __iter__(self) -> Iterator:
        raise TypeError(
            "tuple unpacking of a CCResult is no longer supported; use "
            "result.labels / result.stats"
        )

    def __getattr__(self, name: str):
        # Fall through to the backend-native stats object so pre-CCResult
        # attribute access (modeled_time_s, kernels, iterations, ...)
        # keeps working.  Only called when normal lookup fails.
        if name.startswith("_"):
            raise AttributeError(name)
        stats = self.__dict__.get("stats")
        if stats is not None and hasattr(stats, name):
            return getattr(stats, name)
        raise AttributeError(
            f"{type(self).__name__} has no attribute {name!r} "
            f"(and neither does its {type(stats).__name__} stats object)"
        )
