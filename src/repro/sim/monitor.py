"""Streaming K/E/C□ monitor: online verdicts as rounds arrive.

The batch pipeline answers "what holds at ``(r, m)``" after enumerating a
whole ``(mode, n, t, horizon)`` cell.  A *monitor* instead follows one live
scenario — a fixed initial configuration and failure pattern — and after
each observed round reports what is known **now**: per-processor
``K_i ∃v``, ``E_N ∃v`` and continual common knowledge ``C□_N ∃v`` at the
current point of the current run.

Each :meth:`StreamingMonitor.advance` fetches the ambient system one
round deeper through :meth:`~repro.model.provider.SystemProvider.get` —
an arrays-first build of the cell, or the one already in memory — then
locates the run of the scenario's *truncated* pattern (the observable
prefix, :func:`~repro.model.failures.truncate_pattern`) and evaluates
the formulas at the new horizon.

Observability: every round updates the ``monitor_horizon`` gauge, the
``monitor_round_seconds`` histogram and the ``monitor_rounds`` counter,
and (when a :class:`~repro.obs.journal.TelemetryJournal` is attached)
emits one schema-validated ``monitor_round`` journal event.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from .. import obs, trace
from ..errors import ConfigurationError
from ..model.config import InitialConfiguration
from ..model.failures import (
    CrashBehavior,
    FailureMode,
    FailurePattern,
    OmissionBehavior,
    ReceiveOmissionBehavior,
    truncate_pattern,
)
from ..model.provider import SystemProvider, get_provider

__all__ = ["StreamingMonitor", "canonicalize_pattern", "monitor_scenario"]


def canonicalize_pattern(
    pattern: FailurePattern, n: int
) -> FailurePattern:
    """*pattern* rewritten into the exhaustive adversaries' canonical form.

    User-specified patterns (e.g. from the CLI fault mini-language) may be
    observationally canonical-equivalent without being literally canonical:
    a crash delivering its final round to *everyone* is the same run as a
    crash one round later delivering nothing, and self-directed omissions
    are vacuous.  Enumerated systems index runs by canonical patterns, so
    the monitor normalizes before looking scenarios up.
    """
    behaviors = []
    for processor, behavior in pattern.behaviors:
        if isinstance(behavior, CrashBehavior):
            receivers = behavior.receivers - {processor}
            if len(receivers) == n - 1:
                behavior = CrashBehavior(
                    behavior.crash_round + 1, frozenset()
                )
            else:
                behavior = CrashBehavior(behavior.crash_round, receivers)
        elif isinstance(behavior, OmissionBehavior):
            behavior = OmissionBehavior(
                [(r, s - {processor}) for r, s in behavior.omissions]
            )
        elif isinstance(behavior, ReceiveOmissionBehavior):
            behavior = ReceiveOmissionBehavior(
                [(r, s - {processor}) for r, s in behavior.omissions]
            )
        behaviors.append((processor, behavior))
    return FailurePattern(behaviors)


class StreamingMonitor:
    """Online knowledge verdicts for one live scenario.

    Args:
        mode: Failure mode of the ambient system (every behaviour in
            *pattern* must belong to it).
        n, t: System parameters.
        config: The scenario's initial configuration (``config.n == n``).
        pattern: The scenario's full failure pattern.  Behaviours may
            schedule failures arbitrarily far in the future; each round
            only their observable prefix matters.
        value: The initial value whose existence is monitored (``∃value``).
        provider: System provider the cells come from; defaults to the
            process-wide one.
        journal: Optional telemetry journal receiving one
            ``monitor_round`` event per round.
        on_round: Optional callback invoked with each round's record as
            soon as it is computed — the streaming hook the serve daemon
            uses to push verdicts to a connected client round by round.
    """

    def __init__(
        self,
        mode: FailureMode,
        n: int,
        t: int,
        config: InitialConfiguration,
        pattern: FailurePattern,
        *,
        value: int = 1,
        provider: Optional[SystemProvider] = None,
        journal=None,
        on_round=None,
    ) -> None:
        if config.n != n:
            raise ConfigurationError(
                f"configuration has {config.n} bits but n={n}"
            )
        pattern = canonicalize_pattern(pattern, n).validate(n, t)
        for _, behavior in pattern.behaviors:
            from ..model.failures import behavior_mode

            if behavior_mode(behavior) is not mode:
                raise ConfigurationError(
                    f"behaviour {behavior!r} is not a {mode} behaviour"
                )
        self.mode = mode
        self.n = n
        self.t = t
        self.config = config
        self.pattern = pattern
        self.value = value
        self.provider = provider if provider is not None else get_provider()
        self.journal = journal
        self.on_round = on_round
        self.round = 0
        self.history: List[Dict[str, object]] = []

    def advance(self) -> Dict[str, object]:
        """Feed one more round; evaluate and record the online verdicts."""
        from ..knowledge.formulas import (
            ContinualCommon,
            Everyone,
            Knows,
            exists,
        )
        from ..knowledge.nonrigid import NONFAULTY

        self.round += 1
        started = time.perf_counter()
        with trace.span(
            "monitor_round", round=self.round, mode=self.mode.value
        ):
            system = self.provider.get(self.mode, self.n, self.t, self.round)
            observed = truncate_pattern(self.pattern, self.round, self.n)
            run_index = system.run_index_for(self.config, observed)
            phi = exists(self.value)
            knows = [
                bool(
                    Knows(p, phi).holds_at(system, run_index, self.round)
                )
                for p in range(self.n)
            ]
            everyone = bool(
                Everyone(NONFAULTY, phi).holds_at(
                    system, run_index, self.round
                )
            )
            continual = bool(
                ContinualCommon(NONFAULTY, phi).holds_at(
                    system, run_index, self.round
                )
            )
        seconds = time.perf_counter() - started
        verdicts: Dict[str, object] = {
            "knows": knows,
            "everyone": everyone,
            "continual_common": continual,
        }
        obs.gauge("monitor_horizon", self.round)
        obs.observe("monitor_round_seconds", seconds)
        obs.count("monitor_rounds")
        if self.journal is not None:
            self.journal.emit(
                "monitor_round",
                round=self.round,
                horizon=system.horizon,
                seconds=seconds,
                verdicts=verdicts,
            )
        record: Dict[str, object] = {
            "round": self.round,
            "run_index": run_index,
            "observed_pattern": str(observed),
            "seconds": seconds,
            "verdicts": verdicts,
        }
        self.history.append(record)
        if self.on_round is not None:
            self.on_round(record)
        return record

    def run(self, rounds: int) -> List[Dict[str, object]]:
        """Advance *rounds* times; the per-round records, oldest first."""
        if rounds < 1:
            raise ConfigurationError(f"need rounds >= 1, got {rounds}")
        return [self.advance() for _ in range(rounds)]


def monitor_scenario(
    mode: FailureMode,
    n: int,
    t: int,
    config: InitialConfiguration,
    pattern: FailurePattern,
    rounds: int,
    *,
    value: int = 1,
    provider: Optional[SystemProvider] = None,
    journal=None,
) -> List[Dict[str, object]]:
    """Run a :class:`StreamingMonitor` for *rounds* rounds."""
    monitor = StreamingMonitor(
        mode,
        n,
        t,
        config,
        pattern,
        value=value,
        provider=provider,
        journal=journal,
    )
    return monitor.run(rounds)
