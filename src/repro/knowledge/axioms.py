"""Machine-checkable axiom suites for the knowledge operators.

The paper states (Proposition 3.1) that ``K_i`` satisfies S5 and
(Lemma 3.4) that continual common knowledge satisfies K45 plus the
fixed-point axiom, the induction rule and ``C□_S φ ⇒ ⊡ C□_S φ``.  This
module turns each property into an executable check over an enumerated
system; the E3/E4 experiments and the test suite run them wholesale.

Each checker returns a list of human-readable failure descriptions —
empty means the property holds everywhere it was checked.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

from ..model.system import System
from .formulas import (
    And,
    AtAllTimes,
    Common,
    ContinualCommon,
    Everyone,
    EveryoneBox,
    Formula,
    Implies,
    Knows,
    Not,
)
from .nonrigid import NonrigidSet

CheckResult = List[str]


def _check_valid(system: System, formula: Formula, label: str) -> CheckResult:
    if formula.is_valid(system):
        return []
    assignment = formula.evaluate(system)
    for run_index, row in enumerate(assignment.to_rows()):
        for time, value in enumerate(row):
            if not value:
                run = system.runs[run_index]
                return [
                    f"{label} fails at run#{run_index} "
                    f"(config={run.config}, pattern={run.pattern}) time {time}"
                ]
    return []  # pragma: no cover - unreachable


def check_s5(
    system: System, processor: int, phis: Sequence[Formula], psis: Sequence[Formula]
) -> CheckResult:
    """Proposition 3.1: the S5 properties of ``K_i``.

    * knowledge generalization — checked as: for each valid φ, ``K_i φ`` is
      valid;
    * distribution, knowledge, positive and negative introspection — checked
      as validities for each φ (paired with each ψ for distribution).
    """
    failures: CheckResult = []
    for index, phi in enumerate(phis):
        knows_phi = Knows(processor, phi)
        if phi.is_valid(system):
            failures += _check_valid(
                system, knows_phi, f"generalization K_{processor}(φ{index})"
            )
        failures += _check_valid(
            system,
            Implies(knows_phi, phi),
            f"knowledge axiom K_{processor}(φ{index}) ⇒ φ{index}",
        )
        failures += _check_valid(
            system,
            Implies(knows_phi, Knows(processor, knows_phi)),
            f"positive introspection for φ{index}",
        )
        failures += _check_valid(
            system,
            Implies(Not(knows_phi), Knows(processor, Not(knows_phi))),
            f"negative introspection for φ{index}",
        )
        for jndex, psi in enumerate(psis):
            failures += _check_valid(
                system,
                Implies(
                    And((knows_phi, Knows(processor, Implies(phi, psi)))),
                    Knows(processor, psi),
                ),
                f"distribution for (φ{index}, ψ{jndex})",
            )
    return failures


def check_continual_common_k45(
    system: System,
    nonrigid: NonrigidSet,
    phis: Sequence[Formula],
    psis: Sequence[Formula],
) -> CheckResult:
    """Lemma 3.4 (a)-(d): K45-style properties of ``C□_S``."""
    failures: CheckResult = []
    for index, phi in enumerate(phis):
        c_phi = ContinualCommon(nonrigid, phi)
        if phi.is_valid(system):
            failures += _check_valid(
                system, c_phi, f"C□ generalization (φ{index})"
            )
        failures += _check_valid(
            system,
            Implies(c_phi, ContinualCommon(nonrigid, c_phi)),
            f"C□ positive introspection (φ{index})",
        )
        failures += _check_valid(
            system,
            Implies(Not(c_phi), ContinualCommon(nonrigid, Not(c_phi))),
            f"C□ negative introspection (φ{index})",
        )
        for jndex, psi in enumerate(psis):
            failures += _check_valid(
                system,
                Implies(
                    And(
                        (
                            c_phi,
                            ContinualCommon(nonrigid, Implies(phi, psi)),
                        )
                    ),
                    ContinualCommon(nonrigid, psi),
                ),
                f"C□ distribution (φ{index}, ψ{jndex})",
            )
    return failures


def check_fixed_point(
    system: System, nonrigid: NonrigidSet, phi: Formula
) -> CheckResult:
    """Lemma 3.4(e): ``C□_S φ ⇒ E□_S(φ ∧ C□_S φ)``."""
    c_phi = ContinualCommon(nonrigid, phi)
    return _check_valid(
        system,
        Implies(c_phi, EveryoneBox(nonrigid, And((phi, c_phi)))),
        "C□ fixed-point axiom",
    )


def check_induction_rule(
    system: System, nonrigid: NonrigidSet, phi: Formula, psi: Formula
) -> CheckResult:
    """Lemma 3.4(f): if ``φ ⇒ E□_S(φ ∧ ψ)`` is valid, so is ``φ ⇒ C□_S ψ``.

    Vacuously passes when the premise is not valid in *system*.
    """
    premise = Implies(phi, EveryoneBox(nonrigid, And((phi, psi))))
    if not premise.is_valid(system):
        return []
    return _check_valid(
        system,
        Implies(phi, ContinualCommon(nonrigid, psi)),
        "C□ induction rule",
    )


def check_run_invariance(
    system: System, nonrigid: NonrigidSet, phi: Formula
) -> CheckResult:
    """Lemma 3.4(g): ``C□_S φ ⇒ ⊡ C□_S φ`` (truth is per-run)."""
    c_phi = ContinualCommon(nonrigid, phi)
    return _check_valid(
        system, Implies(c_phi, AtAllTimes(c_phi)), "C□ run-invariance"
    )


def check_continual_implies_common(
    system: System, nonrigid: NonrigidSet, phi: Formula
) -> CheckResult:
    """``C□_S φ ⇒ C_S φ`` — continual common knowledge is stronger.

    (Section 3.3: the converse fails in general; tests exhibit a witness.)
    """
    return _check_valid(
        system,
        Implies(ContinualCommon(nonrigid, phi), Common(nonrigid, phi)),
        "C□ ⇒ C",
    )


def check_everyone_unfolds(
    system: System, nonrigid: NonrigidSet, phi: Formula, depth: int = 3
) -> CheckResult:
    """``C□_S φ ⇒ (E□_S)^k φ`` for ``k = 1..depth`` (the defining
    conjunction, finitely truncated)."""
    failures: CheckResult = []
    c_phi = ContinualCommon(nonrigid, phi)
    layered: Formula = phi
    for k in range(1, depth + 1):
        layered = EveryoneBox(nonrigid, layered)
        failures += _check_valid(
            system, Implies(c_phi, layered), f"C□ ⇒ (E□)^{k} φ"
        )
    return failures
