"""Protocol outcomes: who decided what, when, in which scenario.

Outcomes are the lingua franca between the two protocol layers of this
library:

* *knowledge-level* protocols (``FIP(Z, O)``) evaluated over enumerated
  systems, and
* *concrete* message-passing protocols executed by the simulator.

Both produce a :class:`ProtocolOutcome`: one decision table over a
scenario list — the ``(initial configuration, failure pattern)`` pairs
that the paper uses to define *corresponding runs* — so specification
checking, domination analysis and statistics apply uniformly, as masked
array passes over the table.  :class:`RunOutcome` is the per-run view of
one row, built for callers that iterate, look up or add runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import (
    Callable, Dict, FrozenSet, Hashable, Iterable, Iterator, List, Optional,
    Sequence, Tuple,
)

import numpy as np

from ..errors import ConfigurationError
from ..model.config import InitialConfiguration
from ..model.failures import CrashBehavior, FailurePattern
from .values import all_same

ScenarioKey = Tuple[InitialConfiguration, FailurePattern]

#: A single processor's decision: ``(value, time)`` or ``None`` if it never
#: decided within the horizon.
DecisionRecord = Optional[Tuple[int, int]]

#: Later than every decision time and crash round: the time of "never".
NEVER = np.iinfo(np.int64).max


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
        so all their decisions count.
        """
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


def distinct_ids(items: Iterable[Hashable]) -> Tuple[list, np.ndarray]:
    """The distinct *items* in first-seen order, and the index of each
    item among them."""
    ids: Dict[Hashable, int] = {}
    of = [ids.setdefault(item, len(ids)) for item in items]
    return list(ids), np.asarray(of, dtype=np.intp)


class ScenarioIndex:
    """A scenario list as arrays.

    Row ``r`` is the scenario ``keys[r]``: its configuration is
    ``configs[config_of[r]]`` and its failure pattern, with the
    configuration's size, ``patterns[pattern_of[r]]`` — one entry per
    distinct ``(pattern, n)``.  The facts the outcome readers need
    (nonfaulty membership, initial values, unanimity, crash rounds, fault
    counts) are computed once per distinct configuration or pattern and
    gathered along the rows on first read.  Matrices are ``(runs,
    width)``, ``width`` the largest ``n``; a column beyond a scenario's
    ``n`` reads as a faulty processor with initial value ``-1``.

    One index is shared by every outcome over its list: a
    :class:`~repro.sim.engine.ScenarioViews` builds one with its delivery
    plan, a system one over its scenario grid.
    """

    def __init__(
        self,
        keys: Sequence[ScenarioKey],
        configs: List[InitialConfiguration],
        config_of: np.ndarray,
        patterns: List[Tuple[FailurePattern, int]],
        pattern_of: np.ndarray,
    ) -> None:
        self.keys = keys
        self.configs = configs
        self.config_of = config_of
        self.patterns = patterns
        self.pattern_of = pattern_of
        self.width = max((n for _, n in patterns), default=0)
        self._distinct = False

    @classmethod
    def of(cls, keys: Sequence[ScenarioKey]) -> "ScenarioIndex":
        """The index of a plain scenario list."""
        configs, config_of = distinct_ids(config for config, _ in keys)
        patterns, pattern_of = distinct_ids(
            (pattern, config.n) for config, pattern in keys
        )
        return cls(keys, configs, config_of, patterns, pattern_of)

    @classmethod
    def grid(
        cls,
        configs: Sequence[InitialConfiguration],
        patterns: Sequence[FailurePattern],
        n: int,
    ) -> "ScenarioIndex":
        """The index of the grid ``configs × patterns`` (configurations
        outer), a system's run order."""
        config_list, config_ids = distinct_ids(configs)
        pattern_list, pattern_ids = distinct_ids(
            (pattern, n) for pattern in patterns
        )
        return cls(
            [(config, pattern) for config in configs for pattern in patterns],
            config_list,
            np.repeat(config_ids, len(patterns)),
            pattern_list,
            np.tile(pattern_ids, len(configs)),
        )

    def __len__(self) -> int:
        return len(self.config_of)

    def _gather(
        self, entries: list, of: np.ndarray, row: Callable, dtype
    ) -> np.ndarray:
        """``row(entry)`` — a ``width``-long list — per distinct entry,
        gathered along the scenarios."""
        table = np.array(
            [row(entry) for entry in entries], dtype=dtype
        ).reshape(len(entries), self.width)
        return table[of]

    @cached_property
    def nonfaulty(self) -> np.ndarray:
        """``(runs, width)`` bool: the processor is nonfaulty."""
        return self._gather(
            self.patterns,
            self.pattern_of,
            lambda entry: [
                processor < entry[1] and processor not in entry[0].faulty
                for processor in range(self.width)
            ],
            bool,
        )

    @cached_property
    def init(self) -> np.ndarray:
        """``(runs, width)`` int: the processors' initial values."""
        return self._gather(
            self.configs,
            self.config_of,
            lambda config: list(config.values)
            + [-1] * (self.width - config.n),
            np.int64,
        )

    @cached_property
    def unanimous(self) -> np.ndarray:
        """``(runs,)`` int: the common initial value, ``-1`` when the
        values differ."""
        common = [all_same(config.values) for config in self.configs]
        return np.array(
            [-1 if value is None else value for value in common],
            dtype=np.int64,
        )[self.config_of]

    @cached_property
    def crash_round(self) -> np.ndarray:
        """``(runs, width)`` int: the round a crash-faulty processor
        crashes in, :data:`NEVER` for every other processor."""

        def rounds(entry):
            pattern, _ = entry
            crashes = {
                processor: behavior.crash_round
                for processor, behavior in pattern.behaviors
                if isinstance(behavior, CrashBehavior)
            }
            return [crashes.get(p, NEVER) for p in range(self.width)]

        return self._gather(
            self.patterns, self.pattern_of, rounds, np.int64
        )

    @cached_property
    def num_faulty(self) -> np.ndarray:
        """``(runs,)`` int: how many processors fail in the scenario."""
        return np.array(
            [pattern.num_faulty() for pattern, _ in self.patterns],
            dtype=np.int64,
        )[self.pattern_of]

    def describe(self, row: int) -> str:
        config, pattern = self.keys[row]
        return f"config={config} pattern={pattern}"

    @cached_property
    def _rows(self) -> Dict[ScenarioKey, int]:
        return {key: row for row, key in enumerate(self.keys)}

    def row_of(self, key: ScenarioKey) -> Optional[int]:
        """The row of *key*, ``None`` when the list does not hold it."""
        return self._rows.get(key)

    def check_distinct(self) -> None:
        """Raise :class:`ConfigurationError` naming the first scenario
        listed twice (checked once per index)."""
        if self._distinct:
            return
        codes = self.config_of * max(len(self.patterns), 1) + self.pattern_of
        _, first = np.unique(codes, return_index=True)
        if len(first) < len(codes):
            seen = np.zeros(len(codes), dtype=bool)
            seen[first] = True
            config, pattern = self.keys[int(np.argmin(seen))]
            raise ConfigurationError(
                f"duplicate outcome for scenario {config} / {pattern}"
            )
        self._distinct = True

    def rows_in(self, other: "ScenarioIndex") -> np.ndarray:
        """For each of this index's scenarios, its row in *other*
        (``-1`` when *other* lacks it)."""
        if other is self or other.keys is self.keys or (
            len(other) == len(self) and list(other.keys) == list(self.keys)
        ):
            return np.arange(len(self))
        return np.array(
            [other._rows.get(key, -1) for key in self.keys], dtype=np.intp
        )


class ProtocolOutcome:
    """Decisions of one protocol across a scenario space: a decision
    table.

    Attributes:
        name: Display name of the protocol.
        scenarios: The :class:`ScenarioIndex` of the rows.
        value / time: ``(runs, width)`` int arrays: processor ``i`` of row
            ``r`` first decided ``value[r, i]`` at time ``time[r, i]``;
            both are ``-1`` when it did not decide within the horizon
            (and in the columns beyond the scenario's ``n``).
        horizon: The number of rounds observed.

    Protocols hand over whole tables (:meth:`from_table`).  An outcome
    can also be filled one :class:`RunOutcome` at a time (:meth:`add`);
    its table is then built on first read.
    """

    def __init__(self, name: str, runs: Iterable[RunOutcome] = ()) -> None:
        self.name = name
        self._runs: Optional[Dict[ScenarioKey, RunOutcome]] = {}
        self._table: Optional[tuple] = None
        for run in runs:
            self.add(run)

    @classmethod
    def from_table(
        cls,
        name: str,
        scenarios: ScenarioIndex,
        value: np.ndarray,
        time: np.ndarray,
        horizon: int,
    ) -> "ProtocolOutcome":
        """An outcome over *scenarios* from its decision arrays (shared,
        not copied, when they are already int64)."""
        outcome = cls(name)
        outcome._runs = None
        outcome._table = (
            scenarios,
            np.asarray(value, dtype=np.int64),
            np.asarray(time, dtype=np.int64),
            horizon,
        )
        return outcome

    # -- the table -----------------------------------------------------------

    def _settled(self) -> tuple:
        """``(scenarios, value, time, horizon)``, built from the added runs
        when they changed."""
        if self._table is None:
            runs = list(self._runs.values())
            scenarios = ScenarioIndex.of([run.scenario_key() for run in runs])
            value = np.full((len(runs), scenarios.width), -1, dtype=np.int64)
            time = value.copy()
            for row, run in enumerate(runs):
                for processor, record in enumerate(run.decisions):
                    if record is not None:
                        value[row, processor], time[row, processor] = record
            horizon = runs[0].horizon if runs else 0
            self._table = (scenarios, value, time, horizon)
        return self._table

    @property
    def scenarios(self) -> ScenarioIndex:
        return self._settled()[0]

    @property
    def value(self) -> np.ndarray:
        return self._settled()[1]

    @property
    def time(self) -> np.ndarray:
        return self._settled()[2]

    @property
    def horizon(self) -> int:
        return self._settled()[3]

    @property
    def nonfaulty(self) -> np.ndarray:
        """``(runs, width)`` bool nonfaulty membership of the rows."""
        return self.scenarios.nonfaulty

    def decision_times(self) -> List[int]:
        """All nonfaulty decision times across all runs (decided only), in
        run order."""
        time = self.time
        return time[self.nonfaulty & (time >= 0)].tolist()

    def undecided_count(self) -> int:
        """Number of (run, nonfaulty processor) pairs with no decision."""
        return int(np.count_nonzero(self.nonfaulty & (self.time < 0)))

    # -- the per-run view ----------------------------------------------------

    def _run(self, row: int) -> RunOutcome:
        scenarios, value, time, horizon = self._settled()
        config, pattern = scenarios.keys[row]
        return RunOutcome(
            config=config,
            pattern=pattern,
            decisions=tuple(
                None if decided < 0 else (decided, at)
                for decided, at in zip(
                    value[row, : config.n].tolist(),
                    time[row, : config.n].tolist(),
                )
            ),
            horizon=horizon,
        )

    def add(self, run: RunOutcome) -> None:
        if self._runs is None:  # a table handed over whole
            self._runs = {r.scenario_key(): r for r in self}
        key = run.scenario_key()
        if key in self._runs:
            raise ConfigurationError(
                f"duplicate outcome for scenario {key[0]} / {key[1]}"
            )
        if self._runs:
            horizon = next(iter(self._runs.values())).horizon
            if run.horizon != horizon:
                raise ConfigurationError(
                    f"the runs of one outcome share a horizon: got "
                    f"{run.horizon} after {horizon}"
                )
        self._runs[key] = run
        self._table = None

    def __len__(self) -> int:
        return len(self.scenarios)

    def __iter__(self) -> Iterator[RunOutcome]:
        return map(self._run, range(len(self)))

    def scenario_keys(self) -> List[ScenarioKey]:
        return list(self.scenarios.keys)

    def get(self, key: ScenarioKey) -> RunOutcome:
        row = self.scenarios.row_of(key)
        if row is None:
            raise ConfigurationError(
                f"no outcome recorded for scenario {key[0]} / {key[1]}"
            )
        return self._run(row)
