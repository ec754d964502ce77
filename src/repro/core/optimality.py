"""Optimality characterization of EBA protocols (paper, Theorem 5.3).

A full-information nontrivial agreement protocol ``F = FIP(Z, O)`` is
optimal iff, at every point where the processor is nonfaulty::

    decide_i(0)  ⇔  B_i^N(∃0 ∧ C□_{N∧O} ∃0 ∧ ¬decide_i(1))          (a)
    decide_i(1)  ⇔  B_i^N(∃1 ∧ C□_{N∧Z} ∃1 ∧ ¬decide_i(0))          (b)

(The forward implications are the *necessary* conditions of Proposition 4.3
and hold for every nontrivial agreement protocol; optimality adds the
converses.)  This module evaluates both conditions exactly over an
enumerated system and reports the first few violating points, giving a
decidable optimality test for any knowledge-level protocol in this library.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..knowledge.formulas import (
    And,
    Believes,
    ContinualCommon,
    Decided,
    Exists,
    Iff,
    Implies,
    IsNonfaulty,
    Not,
)
from ..knowledge.nonrigid import nonfaulty_and_ones, nonfaulty_and_zeros
from ..model.system import System
from .decision_sets import DecisionPair


@dataclass
class OptimalityReport:
    """Verdict of the Theorem 5.3 optimality check.

    Attributes:
        protocol_name: Display name of the checked pair.
        necessary_ok: Whether the Proposition 4.3 directions (⇒) hold —
            these must hold for *any* nontrivial agreement protocol.
        optimal: Whether both biconditionals hold (Theorem 5.3).
        violations: Descriptions of the first few failing points.
    """

    protocol_name: str
    necessary_ok: bool
    optimal: bool
    violations: List[str] = field(default_factory=list)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        verdict = "OPTIMAL" if self.optimal else "NOT optimal"
        return f"{self.protocol_name}: {verdict} (Theorem 5.3 check)"


def _violating_points(system: System, formula, label: str, limit: int = 5):
    assignment = formula.evaluate(system)
    found = []
    for run_index, row in enumerate(assignment.to_rows()):
        for time, value in enumerate(row):
            if not value:
                run = system.runs[run_index]
                found.append(
                    f"{label} fails at time {time} of run "
                    f"(config={run.config}, pattern={run.pattern})"
                )
                if len(found) >= limit:
                    return found
    return found


def theorem_5_3_conditions(pair: DecisionPair):
    """Build the per-processor condition formulas of Theorem 5.3.

    Returns two factories ``(condition_a, condition_b)`` mapping a processor
    id to the corresponding biconditional guarded by ``i ∈ N``.
    """
    n_and_o = nonfaulty_and_ones(pair)
    n_and_z = nonfaulty_and_zeros(pair)
    cbox_zero = ContinualCommon(n_and_o, Exists(0))
    cbox_one = ContinualCommon(n_and_z, Exists(1))

    def condition_a(processor: int):
        right = Believes(
            processor,
            And(
                (
                    Exists(0),
                    cbox_zero,
                    Not(Decided(pair, processor, 1)),
                )
            ),
        )
        return Implies(
            IsNonfaulty(processor),
            Iff(Decided(pair, processor, 0), right),
        )

    def condition_b(processor: int):
        right = Believes(
            processor,
            And(
                (
                    Exists(1),
                    cbox_one,
                    Not(Decided(pair, processor, 0)),
                )
            ),
        )
        return Implies(
            IsNonfaulty(processor),
            Iff(Decided(pair, processor, 1), right),
        )

    return condition_a, condition_b


def proposition_4_3_conditions(pair: DecisionPair):
    """The necessary (⇒ only) conditions of Proposition 4.3, as factories."""
    n_and_o = nonfaulty_and_ones(pair)
    n_and_z = nonfaulty_and_zeros(pair)
    cbox_zero = ContinualCommon(n_and_o, Exists(0))
    cbox_one = ContinualCommon(n_and_z, Exists(1))

    def condition_a(processor: int):
        right = Believes(
            processor,
            And(
                (
                    Exists(0),
                    cbox_zero,
                    Not(Decided(pair, processor, 1)),
                )
            ),
        )
        return Implies(Decided(pair, processor, 0), right)

    def condition_b(processor: int):
        right = Believes(
            processor,
            And(
                (
                    Exists(1),
                    cbox_one,
                    Not(Decided(pair, processor, 0)),
                )
            ),
        )
        return Implies(Decided(pair, processor, 1), right)

    return condition_a, condition_b


def check_optimality(system: System, pair: DecisionPair) -> OptimalityReport:
    """Run the full Theorem 5.3 optimality check for *pair* over *system*."""
    violations: List[str] = []
    nec_a, nec_b = proposition_4_3_conditions(pair)
    necessary_ok = True
    for processor in range(system.n):
        for label, factory in (("Prop4.3(a)", nec_a), ("Prop4.3(b)", nec_b)):
            found = _violating_points(
                system, factory(processor), f"{label} i={processor}"
            )
            if found:
                necessary_ok = False
                violations.extend(found)
    cond_a, cond_b = theorem_5_3_conditions(pair)
    optimal = True
    for processor in range(system.n):
        for label, factory in (("Thm5.3(a)", cond_a), ("Thm5.3(b)", cond_b)):
            found = _violating_points(
                system, factory(processor), f"{label} i={processor}"
            )
            if found:
                optimal = False
                violations.extend(found)
    return OptimalityReport(
        protocol_name=pair.name,
        necessary_ok=necessary_ok,
        optimal=optimal and necessary_ok,
        violations=violations,
    )
