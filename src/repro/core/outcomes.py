"""Protocol outcomes: who decided what, when, in which scenario.

Outcomes are the lingua franca between the two protocol layers of this
library:

* *knowledge-level* protocols (``FIP(Z, O)``) evaluated over enumerated
  systems, and
* *concrete* message-passing protocols executed by the simulator.

Both produce a :class:`ProtocolOutcome` keyed by scenario — the
``(initial configuration, failure pattern)`` pair that the paper uses to
define *corresponding runs* — so specification checking and domination
analysis apply uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..errors import ConfigurationError
from ..model.config import InitialConfiguration
from ..model.failures import FailurePattern

ScenarioKey = Tuple[InitialConfiguration, FailurePattern]

#: A single processor's decision: ``(value, time)`` or ``None`` if it never
#: decided within the horizon.
DecisionRecord = Optional[Tuple[int, int]]


@dataclass(frozen=True)
class RunOutcome:
    """Decisions of all processors in one run.

    Attributes:
        config: The run's initial configuration.
        pattern: The run's failure pattern.
        decisions: ``decisions[i]`` is ``(value, time)`` of processor ``i``'s
            (irreversible, first) decision, or ``None``.
        horizon: The number of rounds observed; ``None`` decisions mean
            "not within the horizon".
        nonfaulty: The pattern's nonfaulty processors, computed once at
            construction; not compared or hashed.
    """

    config: InitialConfiguration
    pattern: FailurePattern
    decisions: Tuple[DecisionRecord, ...]
    horizon: int
    nonfaulty: FrozenSet[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "nonfaulty", self.pattern.nonfaulty(self.config.n)
        )

    @property
    def n(self) -> int:
        return self.config.n

    def scenario_key(self) -> ScenarioKey:
        return (self.config, self.pattern)

    def decision_value(self, processor: int) -> Optional[int]:
        record = self.decisions[processor]
        return None if record is None else record[0]

    def decision_time(self, processor: int) -> Optional[int]:
        record = self.decisions[processor]
        return None if record is None else record[1]

    def nonfaulty_decisions(self) -> Dict[int, DecisionRecord]:
        """Decisions restricted to nonfaulty processors."""
        return {
            processor: self.decisions[processor]
            for processor in sorted(self.nonfaulty)
        }

    def acted_decisions(self) -> Dict[int, DecisionRecord]:
        """Decisions that were actually *taken* as actions.

        A processor that crashes in round ``k`` is dead from time ``k`` on:
        the simulator keeps evaluating its output function (harmlessly —
        nobody observes it), but a decision first reached at time ``>= k``
        was never an action of the processor.  This filter drops those
        ghost decisions; omission-faulty processors stay alive throughout,
        so all their decisions count.  Used by the uniform-agreement
        checker.
        """
        from ..model.failures import CrashBehavior

        acted: Dict[int, DecisionRecord] = {}
        for processor in range(self.n):
            record = self.decisions[processor]
            if record is not None:
                behavior = self.pattern.behavior_of(processor)
                if (
                    isinstance(behavior, CrashBehavior)
                    and record[1] >= behavior.crash_round
                ):
                    record = None
            acted[processor] = record
        return acted

    def all_nonfaulty_decided(self) -> bool:
        return all(
            self.decisions[processor] is not None
            for processor in self.nonfaulty
        )

    def max_nonfaulty_decision_time(self) -> Optional[int]:
        """Latest nonfaulty decision time, or ``None`` if someone is still
        undecided."""
        latest = -1
        for processor in self.nonfaulty:
            record = self.decisions[processor]
            if record is None:
                return None
            latest = max(latest, record[1])
        return latest if latest >= 0 else 0


class ProtocolOutcome:
    """Decisions of one protocol across a scenario space.

    Attributes:
        name: Display name of the protocol.
        runs: Scenario -> :class:`RunOutcome`, insertion-ordered.
    """

    def __init__(self, name: str, runs: Iterable[RunOutcome] = ()) -> None:
        self.name = name
        self.runs: Dict[ScenarioKey, RunOutcome] = {}
        for run in runs:
            self.add(run)

    def add(self, run: RunOutcome) -> None:
        key = run.scenario_key()
        if key in self.runs:
            raise ConfigurationError(
                f"duplicate outcome for scenario {key[0]} / {key[1]}"
            )
        self.runs[key] = run

    def __len__(self) -> int:
        return len(self.runs)

    def __iter__(self):
        return iter(self.runs.values())

    def scenario_keys(self) -> List[ScenarioKey]:
        return list(self.runs.keys())

    def get(self, key: ScenarioKey) -> RunOutcome:
        try:
            return self.runs[key]
        except KeyError:
            raise ConfigurationError(
                f"no outcome recorded for scenario {key[0]} / {key[1]}"
            ) from None

    def common_scenarios(self, other: "ProtocolOutcome") -> List[ScenarioKey]:
        """Scenarios present in both outcomes (for corresponding-run
        comparisons)."""
        return [key for key in self.runs if key in other.runs]

    def decision_times(self) -> List[int]:
        """All nonfaulty decision times across all runs (decided only)."""
        times: List[int] = []
        for run in self:
            for processor in run.nonfaulty:
                record = run.decisions[processor]
                if record is not None:
                    times.append(record[1])
        return times

    def undecided_count(self) -> int:
        """Number of (run, nonfaulty processor) pairs with no decision."""
        count = 0
        for run in self:
            for processor in run.nonfaulty:
                if run.decisions[processor] is None:
                    count += 1
        return count
