"""Lower-bound checks: the [DS82] facts the paper leans on.

Proposition 2.1's proof uses two classical lower bounds:

1. **t+1 worst case** — in any EBA protocol some run forces some
   (nonfaulty) processor to take at least ``t + 1`` rounds to decide;
2. **distance from the races** — consequently, for any EBA protocol ``P``
   there is a run in which some processor decides at least ``t + 1``
   rounds later than it does under one of the value-races ``P0`` / ``P1``
   (each of which decides its favoured value at time 0).

These are universally-quantified-over-protocols statements, so a finite
tool cannot *prove* them; what it can do — and what experiment E1's probe
and the tests use — is *check any given protocol against them*: a protocol
whose outcome violated either bound over an exhaustive scenario space
would be a counterexample to [DS82].  Every EBA protocol in this library's
zoo satisfies both with equality witnesses, which is exactly the shape the
paper predicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .outcomes import NEVER, ProtocolOutcome, ScenarioKey


@dataclass
class WorstCaseReport:
    """Worst-case decision time of a protocol over a scenario space.

    Attributes:
        protocol_name: The examined protocol.
        worst_time: Latest nonfaulty decision time observed (``None`` never
            counts as larger — undecided processors are reported
            separately).
        witness: Scenario and processor achieving it.
        undecided: Number of (run, nonfaulty processor) pairs with no
            decision (nonzero disqualifies the protocol as EBA).
    """

    protocol_name: str
    worst_time: int
    witness: Optional[Tuple[ScenarioKey, int]]
    undecided: int

    def meets_t_plus_1(self, t: int) -> bool:
        """Whether the [DS82] ``t + 1`` worst case is realized."""
        return self.worst_time >= t + 1


def _first_max(
    outcome: ProtocolOutcome, mask: np.ndarray, score: np.ndarray
) -> Tuple[Optional[int], Optional[Tuple[ScenarioKey, int]]]:
    """The largest *score* over the cells of *mask* and the first cell,
    in run order and processors ascending, that attains it; ``(None,
    None)`` when *mask* is empty."""
    if not mask.any():
        return None, None
    flat = np.where(mask, score, np.iinfo(np.int64).min).ravel()
    cell = int(np.argmax(flat))
    row, processor = divmod(cell, mask.shape[1])
    return int(flat[cell]), (outcome.scenarios.keys[row], processor)


def worst_case_decision_time(outcome: ProtocolOutcome) -> WorstCaseReport:
    """Scan an outcome for its latest nonfaulty decision."""
    time = outcome.time
    nonfaulty = outcome.nonfaulty
    worst, witness = _first_max(outcome, nonfaulty & (time >= 0), time)
    return WorstCaseReport(
        protocol_name=outcome.name,
        worst_time=-1 if worst is None else worst,
        witness=witness,
        undecided=int(np.count_nonzero(nonfaulty & (time < 0))),
    )


@dataclass
class RaceGapReport:
    """Largest lag of a protocol behind the better of two references.

    Used with ``P0`` and ``P1``: for each nonfaulty decision sample the lag
    is ``time_P - min(time_P0, time_P1)``; [DS82] implies the maximum lag
    of any EBA protocol is at least ``t + 1``.
    """

    protocol_name: str
    max_gap: int
    witness: Optional[Tuple[ScenarioKey, int]]


def max_gap_behind_races(
    outcome: ProtocolOutcome,
    race_zero: ProtocolOutcome,
    race_one: ProtocolOutcome,
) -> RaceGapReport:
    """Compute the worst lag of *outcome* behind ``min(P0, P1)``.

    All three outcomes must cover the same scenario space.  Samples where
    *outcome* never decides are treated as lagging by the full horizon
    (they already violate EBA, so the bound holds trivially there).
    """
    time = outcome.time
    reference = np.full(time.shape, NEVER)
    for race in (race_zero, race_one):
        rows = outcome.scenarios.rows_in(race.scenarios)
        if (rows < 0).any():
            missing = outcome.scenarios.keys[int(np.argmax(rows < 0))]
            race.get(missing)  # raises: no outcome for the scenario
        race_time = race.time[rows, : time.shape[1]]
        reference = np.minimum(
            reference, np.where(race_time < 0, NEVER, race_time)
        )
    lag = np.where(time < 0, outcome.horizon + 1, time) - reference
    max_gap, witness = _first_max(
        outcome, outcome.nonfaulty & (reference != NEVER), lag
    )
    return RaceGapReport(
        protocol_name=outcome.name,
        max_gap=-(10**9) if max_gap is None else max_gap,
        witness=witness,
    )


def check_ds82_bounds(
    outcome: ProtocolOutcome,
    race_zero: ProtocolOutcome,
    race_one: ProtocolOutcome,
    t: int,
) -> List[str]:
    """Both [DS82]-derived bounds for one protocol; empty list = consistent.

    (A nonempty result would be a refutation of a published lower bound —
    i.e. a bug in this library.)
    """
    problems: List[str] = []
    worst = worst_case_decision_time(outcome)
    if not worst.meets_t_plus_1(t):
        problems.append(
            f"{outcome.name}: worst-case decision time {worst.worst_time} "
            f"< t + 1 = {t + 1} over an exhaustive space"
        )
    gap = max_gap_behind_races(outcome, race_zero, race_one)
    if gap.max_gap < t + 1:
        problems.append(
            f"{outcome.name}: max lag behind min(P0, P1) is {gap.max_gap} "
            f"< t + 1 = {t + 1}"
        )
    return problems
