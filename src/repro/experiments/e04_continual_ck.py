"""E4 — Lemma 3.4 and Section 3.3: properties of continual common
knowledge.

Checks, over exhaustive crash and omission systems:

* the K45-style axioms, fixed-point axiom, induction rule and
  run-invariance (``C□ ⇒ ⊡C□``) of ``C□_S``;
* ``C□_S φ ⇒ C_S φ`` (continual common knowledge is stronger than common
  knowledge) and the *strictness* of that implication — a concrete point
  where ``C_N ∃1`` holds but ``C□_{N} ∃1`` fails;
* agreement between the greatest-fixed-point evaluator and the Corollary
  3.3 reachability-component fast path.
"""

from __future__ import annotations

from ..knowledge.axioms import (
    check_continual_common_k45,
    check_continual_implies_common,
    check_everyone_unfolds,
    check_fixed_point,
    check_induction_rule,
    check_run_invariance,
)
from ..knowledge.explain import explain, render_witness_table
from ..knowledge.formulas import (
    AllStarted,
    Believes,
    Common,
    ContinualCommon,
    Exists,
    Not,
)
from ..knowledge.nonrigid import NONFAULTY
from ..metrics.tables import render_table
from ..model.builder import crash_system, omission_system
from .framework import ExperimentResult


def run(n: int = 3, t: int = 1, horizon: int = None) -> ExperimentResult:
    rows = []
    all_ok = True
    strict_witness_found = False
    witness_explanation = None
    for mode_name, system in (
        ("crash", crash_system(n, t, horizon)),
        ("omission", omission_system(n, t, horizon)),
    ):
        phis = [Exists(0), Exists(1), AllStarted(1), Not(Exists(0))]
        psis = [Exists(1), Not(Exists(1))]
        failures = []
        failures += check_continual_common_k45(system, NONFAULTY, phis, psis)
        for phi in phis:
            failures += check_fixed_point(system, NONFAULTY, phi)
            failures += check_run_invariance(system, NONFAULTY, phi)
            failures += check_continual_implies_common(system, NONFAULTY, phi)
            failures += check_everyone_unfolds(system, NONFAULTY, phi, depth=2)
        failures += check_induction_rule(
            system, NONFAULTY, Believes(0, Exists(0)), Exists(0)
        )
        # Fast path vs fixpoint cross-check on a run-level fact.
        fast = ContinualCommon(NONFAULTY, Exists(1)).evaluate(system)
        slow = ContinualCommon(
            NONFAULTY, Exists(1), force_fixpoint=True
        ).evaluate(system)
        if fast != slow:
            failures.append("component fast path != fixpoint evaluator")
        # Strictness witness: C_N ∃1 without C□_N ∃1 somewhere.
        common = Common(NONFAULTY, Exists(1)).evaluate(system)
        continual = fast
        witness_point = next(
            (
                (run_index, time)
                for run_index in range(len(system.runs))
                for time in range(system.horizon + 1)
                if common.at(run_index, time)
                and not continual.at(run_index, time)
            ),
            None,
        )
        witness = witness_point is not None
        if witness and witness_explanation is None:
            explanation = explain(
                system, ContinualCommon(NONFAULTY, Exists(1)), witness_point
            )
            if not explanation.check(system):
                witness_explanation = (mode_name, explanation)
        strict_witness_found = strict_witness_found or witness
        rows.append(
            [mode_name, len(system.runs),
             "PASS" if not failures else f"FAIL: {failures[0]}",
             witness]
        )
        all_ok = all_ok and not failures
    table = render_table(
        ["mode", "runs", "Lemma 3.4 axioms", "C without C□ witness"], rows
    )
    data = {"strict_witness": strict_witness_found}
    if witness_explanation is not None:
        witness_mode, explanation = witness_explanation
        point = explanation.point
        table += (
            f"\n\nstrictness witness ({witness_mode} mode): C_N ∃1 holds "
            f"but C□_N ∃1 fails at point ({point[0]},{point[1]}); the "
            "S-□-reachability chain below reaches a run violating ∃1:\n"
            + render_witness_table(explanation)
        )
        data["witness"] = explanation.to_dict()
    return ExperimentResult(
        experiment_id="E4",
        title="Continual common knowledge: Lemma 3.4 and strictness",
        paper_claim=(
            "C□_S satisfies K45, the fixed-point axiom, the induction rule "
            "and C□ ⇒ ⊡C□; C□_S φ ⇒ C_S φ and the converse fails in "
            "general."
        ),
        ok=all_ok and strict_witness_found,
        table=table,
        notes=[
            f"n={n}, t={t}; exhaustive crash and omission systems",
            "fast reachability-component evaluator cross-checked against "
            "the greatest-fixed-point definition",
        ],
        data=data,
    )
