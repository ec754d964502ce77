"""Specification checkers for agreement problems (paper, Section 2.1).

Checks a :class:`~repro.core.outcomes.ProtocolOutcome` against:

* **Decision** — every nonfaulty processor eventually (within the observed
  horizon) decides;
* **Agreement** — all nonfaulty processors decide on the same value;
* **Validity** — if all initial values are identical, nonfaulty processors
  decide that value;
* **Simultaneity** — all nonfaulty processors decide at the same round
  (turns EBA into SBA);
* the **weak** variants (weak agreement: nonfaulty processors never decide
  on *different* values; weak validity: deciders respect unanimous inputs)
  that define *nontrivial agreement protocols*.

Each checker returns a list of violation strings; the aggregate helpers
(:func:`check_eba`, :func:`check_sba`, :func:`check_nontrivial_agreement`)
bundle them into a :class:`SpecReport`.  Every checker is a masked pass
over the outcome's decision table; violations are listed in run order,
processors ascending.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Tuple

import numpy as np

from ..errors import SpecificationError
from .outcomes import NEVER, ProtocolOutcome


def _points(mask: np.ndarray) -> Iterator[Tuple[int, int]]:
    """The ``(row, processor)`` cells set in *mask*, in run order and
    processors ascending."""
    rows, processors = np.nonzero(mask)
    return zip(rows.tolist(), processors.tolist())


def _spread(
    mask: np.ndarray, column: np.ndarray
) -> Iterator[Tuple[int, List[int]]]:
    """The rows where *column* takes more than one value over the cells of
    *mask*, each with those values sorted."""
    low = np.where(mask, column, NEVER).min(axis=1, initial=NEVER)
    high = np.where(mask, column, -1).max(axis=1, initial=-1)
    for row in np.flatnonzero(high > low).tolist():
        yield row, sorted(set(column[row][mask[row]].tolist()))


def check_decision(outcome: ProtocolOutcome) -> List[str]:
    """Decision: every nonfaulty processor decides within the horizon."""
    describe = outcome.scenarios.describe
    return [
        f"[decision] processor {processor} undecided by time "
        f"{outcome.horizon} in {describe(row)}"
        for row, processor in _points(outcome.nonfaulty & (outcome.time < 0))
    ]


def check_weak_agreement(outcome: ProtocolOutcome) -> List[str]:
    """Weak agreement: nonfaulty processors never decide differently."""
    describe = outcome.scenarios.describe
    return [
        f"[weak-agreement] nonfaulty decisions {values} in {describe(row)}"
        for row, values in _spread(
            outcome.nonfaulty & (outcome.value >= 0), outcome.value
        )
    ]


def check_agreement(outcome: ProtocolOutcome) -> List[str]:
    """Agreement: all nonfaulty processors decide, on the same value."""
    return check_decision(outcome) + check_weak_agreement(outcome)


def check_weak_validity(outcome: ProtocolOutcome) -> List[str]:
    """Weak validity: under unanimous input, deciders decide that input."""
    describe = outcome.scenarios.describe
    unanimous = outcome.scenarios.unanimous
    value = outcome.value
    wrong = (
        outcome.nonfaulty
        & (value >= 0)
        & (unanimous >= 0)[:, None]
        & (value != unanimous[:, None])
    )
    return [
        f"[weak-validity] processor {processor} decided "
        f"{int(value[row, processor])} despite unanimous "
        f"{int(unanimous[row])} in {describe(row)}"
        for row, processor in _points(wrong)
    ]


def check_validity(outcome: ProtocolOutcome) -> List[str]:
    """Validity: under unanimous input, all nonfaulty decide that input."""
    describe = outcome.scenarios.describe
    unanimous = outcome.scenarios.unanimous >= 0
    undecided = outcome.nonfaulty & (outcome.time < 0) & unanimous[:, None]
    return check_weak_validity(outcome) + [
        f"[validity] processor {processor} undecided under "
        f"unanimous input in {describe(row)}"
        for row, processor in _points(undecided)
    ]


def check_uniform_agreement(outcome: ProtocolOutcome) -> List[str]:
    """Uniform agreement: *no two deciders* — faulty or not — decide on
    different values.

    The paper's Section 7 points to coordination problems "in which all
    processors (and not only the nonfaulty ones) are required to act
    consistently" [Nei90, NB92].  None of the paper's EBA protocols aim
    for this (a processor may decide and then crash while the survivors,
    never having seen its evidence, decide the other way), and experiment
    E18 measures exactly where each protocol violates it.  Only decisions
    a processor *acted* on count: a crashed processor's decision first
    reached at or after its crash round is dropped (see
    :meth:`~repro.core.outcomes.RunOutcome.acted_decisions`).
    """
    describe = outcome.scenarios.describe
    acted = (outcome.value >= 0) & (
        outcome.time < outcome.scenarios.crash_round
    )
    return [
        f"[uniform-agreement] decisions {values} "
        f"(faulty included) in {describe(row)}"
        for row, values in _spread(acted, outcome.value)
    ]


def check_simultaneity(outcome: ProtocolOutcome) -> List[str]:
    """Simultaneity: all nonfaulty decisions in a run share one round."""
    describe = outcome.scenarios.describe
    return [
        f"[simultaneity] nonfaulty decision times {times} in {describe(row)}"
        for row, times in _spread(
            outcome.nonfaulty & (outcome.time >= 0), outcome.time
        )
    ]


@dataclass
class SpecReport:
    """Aggregated verdict of a specification check.

    Attributes:
        spec_name: Which specification was checked.
        protocol_name: Which protocol's outcome was checked.
        violations: Human-readable violation descriptions (empty = pass).
        runs_checked: Number of runs examined.
    """

    spec_name: str
    protocol_name: str
    violations: List[str] = field(default_factory=list)
    runs_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_on_failure(self) -> "SpecReport":
        """Raise :class:`SpecificationError` when violations exist."""
        if not self.ok:
            preview = "; ".join(self.violations[:3])
            raise SpecificationError(
                f"{self.protocol_name} violates {self.spec_name} "
                f"({len(self.violations)} violations): {preview}"
            )
        return self

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        status = "PASS" if self.ok else f"FAIL ({len(self.violations)})"
        return (
            f"{self.protocol_name} vs {self.spec_name}: {status} "
            f"over {self.runs_checked} runs"
        )


def check_nontrivial_agreement(outcome: ProtocolOutcome) -> SpecReport:
    """Weak agreement + weak validity (paper, conditions 2' and 3')."""
    return SpecReport(
        spec_name="nontrivial agreement",
        protocol_name=outcome.name,
        violations=check_weak_agreement(outcome) + check_weak_validity(outcome),
        runs_checked=len(outcome),
    )


def check_eba(outcome: ProtocolOutcome) -> SpecReport:
    """Decision + agreement + validity (paper, conditions 1-3)."""
    return SpecReport(
        spec_name="EBA",
        protocol_name=outcome.name,
        violations=(
            check_decision(outcome)
            + check_weak_agreement(outcome)
            + check_validity(outcome)
        ),
        runs_checked=len(outcome),
    )


def check_sba(outcome: ProtocolOutcome) -> SpecReport:
    """EBA + simultaneity (paper, condition 4)."""
    eba = check_eba(outcome)
    return SpecReport(
        spec_name="SBA",
        protocol_name=outcome.name,
        violations=eba.violations + check_simultaneity(outcome),
        runs_checked=len(outcome),
    )
