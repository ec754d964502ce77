"""Serialization: JSON export/import of outcomes and results, and
stored systems as lazy views over their arrays."""

from .export import (
    FORMAT_VERSION,
    behavior_from_json,
    behavior_to_json,
    dump_outcome,
    experiment_result_to_json,
    load_outcome,
    outcome_from_json,
    outcome_to_json,
    pattern_from_json,
    pattern_to_json,
    run_outcome_from_json,
    run_outcome_to_json,
)
from .system_codec import system_from_arrays

__all__ = [
    "FORMAT_VERSION",
    "behavior_from_json",
    "behavior_to_json",
    "dump_outcome",
    "experiment_result_to_json",
    "load_outcome",
    "outcome_from_json",
    "outcome_to_json",
    "pattern_from_json",
    "pattern_to_json",
    "run_outcome_from_json",
    "run_outcome_to_json",
    "system_from_arrays",
]
