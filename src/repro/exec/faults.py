"""Deterministic fault injection for the shard pool (tests and drills).

The ``REPRO_EXEC_FAULTS`` environment variable carries a comma-separated
list of fault directives, each of the form::

    mode:shard_id[@attempt]

where *mode* is one of

* ``kill`` — the worker SIGKILLs itself mid-shard (a genuine process
  death, exercising dead-worker detection and respawn);
* ``hang`` — the worker sleeps far past any configured shard timeout
  (exercising timeout-triggered retry);
* ``corrupt`` — the worker mangles the payload bytes after computing the
  checksum, so the supervisor's integrity check rejects the result
  (exercising checksum-triggered retry).

The optional ``@attempt`` (default ``0``) restricts the fault to one
specific attempt of the shard, so a faulted shard's *retry* runs clean and
the batch completes — which is exactly what the crash/retry/resume tests
assert.  Workers parse the spec once at startup; because the spec is pure
data in the environment, fault schedules are fully deterministic and
reproducible.

Malformed specs raise :class:`~repro.errors.ConfigurationError` naming the
variable and the offending value, never a bare :class:`ValueError`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional

from ..errors import ConfigurationError

#: Environment variable holding the fault-injection spec.
FAULTS_ENV = "REPRO_EXEC_FAULTS"

#: Recognized fault modes.
FAULT_MODES = ("kill", "hang", "corrupt")

#: How long a ``hang`` fault sleeps — far beyond any sane shard timeout.
HANG_SECONDS = 3600.0


@dataclass(frozen=True)
class FaultAction:
    """One parsed fault directive."""

    mode: str
    shard_id: str
    attempt: int = 0


def parse_faults(text: str) -> Dict[str, FaultAction]:
    """Parse a fault spec into ``{shard_id: action}`` (empty spec → ``{}``)."""
    plan: Dict[str, FaultAction] = {}
    for entry in text.split(","):
        entry = entry.strip()
        if not entry:
            continue
        mode, sep, rest = entry.partition(":")
        mode = mode.strip().lower()
        if not sep or not rest.strip():
            raise ConfigurationError(
                f"{FAULTS_ENV} entry {entry!r} must look like "
                f"mode:shard_id[@attempt]"
            )
        if mode not in FAULT_MODES:
            raise ConfigurationError(
                f"{FAULTS_ENV} entry {entry!r} has unknown fault mode "
                f"{mode!r}; expected one of {', '.join(FAULT_MODES)}"
            )
        shard_id, at_sep, attempt_text = rest.strip().rpartition("@")
        attempt = 0
        if at_sep:
            try:
                attempt = int(attempt_text)
            except ValueError:
                attempt = -1
            if attempt < 0:
                raise ConfigurationError(
                    f"{FAULTS_ENV} entry {entry!r} has invalid attempt "
                    f"{attempt_text!r}; expected an integer >= 0"
                )
        else:
            shard_id = rest.strip()
        if not shard_id:
            raise ConfigurationError(
                f"{FAULTS_ENV} entry {entry!r} is missing a shard id"
            )
        plan[shard_id] = FaultAction(mode=mode, shard_id=shard_id, attempt=attempt)
    return plan


def active_faults() -> Dict[str, FaultAction]:
    """The fault plan from the current environment (``{}`` if unset)."""
    return parse_faults(os.environ.get(FAULTS_ENV, ""))


def fault_for(
    plan: Dict[str, FaultAction], shard_id: str, attempt: int
) -> Optional[FaultAction]:
    """The fault to apply to this attempt of this shard, if any."""
    action = plan.get(shard_id)
    if action is not None and action.attempt == attempt:
        return action
    return None
