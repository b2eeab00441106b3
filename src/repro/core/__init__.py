"""ECL-CC core: the paper's primary contribution and its variants."""

from .api import (
    BACKENDS,
    BackendSpec,
    OptionSpec,
    connected_components,
    count_components,
    register_backend,
    unregister_backend,
)
from .contract import ContractRunStats, contract_cc
from .ecl_cc_numpy import NumpyRunStats, ecl_cc_numpy
from .ecl_cc_serial import SerialRunStats, ecl_cc_serial
from .labels import (
    canonicalize,
    component_sizes,
    equivalent_labelings,
    largest_component,
    num_components,
)
from .variants import FINI_VARIANTS, INIT_VARIANTS, finalize, init_vectorized

# Verification (reference_labels, verify_labels_structural, ...) lives in
# repro.verify.
from .result import CCResult

__all__ = [
    "connected_components",
    "count_components",
    "BACKENDS",
    "BackendSpec",
    "OptionSpec",
    "CCResult",
    "register_backend",
    "unregister_backend",
    "ContractRunStats",
    "contract_cc",
    "NumpyRunStats",
    "ecl_cc_numpy",
    "SerialRunStats",
    "ecl_cc_serial",
    "canonicalize",
    "component_sizes",
    "equivalent_labelings",
    "largest_component",
    "num_components",
    "FINI_VARIANTS",
    "INIT_VARIANTS",
    "finalize",
    "init_vectorized",
]
