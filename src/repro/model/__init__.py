"""Model substrate: configurations, failures, views, runs and systems.

This subpackage implements the paper's synchronous round-based system model
(Section 2.3) and the full-information protocol state space (Section 2.4).
Everything above it — knowledge, protocols, experiments — is expressed in
terms of these objects.
"""

from .adversary import (
    Adversary,
    ExhaustiveCrashAdversary,
    ExhaustiveOmissionAdversary,
    ExhaustiveReceiveOmissionAdversary,
    ExplicitAdversary,
    SampledGeneralOmissionAdversary,
    SampledOmissionAdversary,
    SilentCrashAdversary,
    exhaustive_adversary,
)
from .builder import (
    clear_system_cache,
    crash_system,
    default_horizon,
    omission_system,
    restricted_system,
    system_cache_info,
    system_for,
)
from .config import (
    InitialConfiguration,
    all_configurations,
    one_dissenter,
    uniform_configuration,
)
from .failures import (
    NO_FAILURES,
    CrashBehavior,
    FailureMode,
    FailurePattern,
    GeneralOmissionBehavior,
    OmissionBehavior,
    ProcessorId,
    ReceiveOmissionBehavior,
    make_pattern,
)
from .chunked import ChunkedIndex
from .provider import PROVIDER, SystemProvider, get_provider
from .runs import Run
from .system import Point, System, TruthAssignment, build_system
from .views import ViewId, ViewInfo, ViewTable

__all__ = [
    "Adversary",
    "ChunkedIndex",
    "CrashBehavior",
    "ExhaustiveCrashAdversary",
    "ExhaustiveOmissionAdversary",
    "ExhaustiveReceiveOmissionAdversary",
    "ExplicitAdversary",
    "FailureMode",
    "FailurePattern",
    "GeneralOmissionBehavior",
    "InitialConfiguration",
    "NO_FAILURES",
    "OmissionBehavior",
    "Point",
    "ProcessorId",
    "Run",
    "ReceiveOmissionBehavior",
    "PROVIDER",
    "SampledGeneralOmissionAdversary",
    "SampledOmissionAdversary",
    "SilentCrashAdversary",
    "System",
    "SystemProvider",
    "TruthAssignment",
    "ViewId",
    "ViewInfo",
    "ViewTable",
    "all_configurations",
    "build_system",
    "clear_system_cache",
    "crash_system",
    "default_horizon",
    "exhaustive_adversary",
    "get_provider",
    "make_pattern",
    "omission_system",
    "one_dissenter",
    "restricted_system",
    "system_cache_info",
    "system_for",
    "uniform_configuration",
]
