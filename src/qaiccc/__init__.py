"""Crosstalk-aware qubit allocation for multi-tenant quantum platforms.

The package allocates the qubits of a shared platform to trusted and
untrusted users so that every qubit is used (an idle user absorbs the
rest) while the largest crosstalk error rate spanning different users is
minimized.  See the README for the pipeline and file formats.
"""

from .allocator import AllocationOutcome, SearchConfig, allocate
from .errors import (
    BaselineInfeasibleError,
    InputFileError,
    InstanceTooLargeError,
    InsufficientQubitsError,
    NoFeasibleAllocationError,
    QaicccError,
)
from .ingest import composite_score, load_platform, load_rates, load_requests, save_rates, synth_rates
from .model import (
    Allocation,
    CanonicalKey,
    ConnectivityGraph,
    CrosstalkRate,
    SizeRequests,
    Trust,
    UserComponent,
    canonicalize,
    sort_rates,
    validate_allocation,
)
from .oracle import (
    OracleReport,
    baseline_naive,
    enumerate_complete,
    oracle_report,
    replay_check,
    safe_prefix,
)
from .safety import SafetyReason, involved_parties, is_safe
from .selection import SelectionResult, noise_worklist, rank, select

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "AllocationOutcome",
    "BaselineInfeasibleError",
    "CanonicalKey",
    "ConnectivityGraph",
    "CrosstalkRate",
    "InputFileError",
    "InstanceTooLargeError",
    "InsufficientQubitsError",
    "NoFeasibleAllocationError",
    "OracleReport",
    "QaicccError",
    "SafetyReason",
    "SearchConfig",
    "SelectionResult",
    "SizeRequests",
    "Trust",
    "UserComponent",
    "allocate",
    "baseline_naive",
    "canonicalize",
    "composite_score",
    "enumerate_complete",
    "involved_parties",
    "is_safe",
    "load_platform",
    "load_rates",
    "load_requests",
    "noise_worklist",
    "oracle_report",
    "rank",
    "replay_check",
    "safe_prefix",
    "save_rates",
    "select",
    "sort_rates",
    "synth_rates",
    "validate_allocation",
    "__version__",
]
