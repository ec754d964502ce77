"""E5 — Propositions 4.3 / 4.4: knowledge conditions for nontrivial
agreement.

For a portfolio of full-information nontrivial agreement protocols
(``F^Λ``, ``F^{Λ,1}``, ``F^{Λ,2}``, ``FIP(Z⁰,O⁰)``, ``F*``) over crash and
omission systems, verifies the *necessary* conditions of Proposition 4.3::

    decide_i(0) ⇒ B_i^N(∃0 ∧ C□_{N∧O} ∃0 ∧ ¬decide_i(1))
    decide_i(1) ⇒ B_i^N(∃1 ∧ C□_{N∧Z} ∃1 ∧ ¬decide_i(0))

and, for the sufficiency direction (Proposition 4.4), confirms that the
protocols built from those very conditions are indeed nontrivial agreement
protocols (weak agreement + weak validity checked run by run).
"""

from __future__ import annotations

from ..core.optimality import proposition_4_3_conditions
from ..core.specs import check_nontrivial_agreement
from ..knowledge.explain import explain
from ..knowledge.formulas import ContinualCommon, Decided, Exists
from ..knowledge.nonrigid import nonfaulty_and_ones
from ..metrics.tables import render_table
from ..model.builder import crash_system, omission_system
from ..protocols.chain_fip import chain_pair
from ..protocols.f_lambda import f_lambda_sequence
from ..protocols.f_star import f_star_pair
from ..protocols.fip import fip
from .framework import ExperimentResult


def _check_pair(system, pair):
    protocol = fip(pair)
    protocol.assert_no_nonfaulty_conflicts(system)
    spec = check_nontrivial_agreement(protocol.outcome(system))
    sticky = protocol.sticky_pair(system)
    cond_a, cond_b = proposition_4_3_conditions(sticky)
    necessary_ok = all(
        cond(processor).is_valid(system)
        for processor in range(system.n)
        for cond in (cond_a, cond_b)
    )
    return spec.ok, necessary_ok, sticky


def _decision_certificate(system, sticky):
    """Component evidence for Prop 4.3(a)'s core at a real decision point.

    At the first point where processor 0 has decided 0, ``C□_{N∧O} ∃0``
    must hold (that is the necessary condition); the explanation carries
    the Corollary 3.3 component whose runs all satisfy ``∃0``.
    """
    decided = Decided(sticky, 0, 0).evaluate(system)
    formula = ContinualCommon(nonfaulty_and_ones(sticky), Exists(0))
    fallback = None
    for run_index in range(len(system.runs)):
        for time in range(system.horizon + 1):
            if not decided.at(run_index, time):
                continue
            explanation = explain(system, formula, (run_index, time))
            if explanation.check(system):
                continue
            # Prefer a point with a real (non-vacuous) component.
            if explanation.component_runs is not None:
                return explanation
            if fallback is None:
                fallback = explanation
    return fallback


def run(n: int = 3, t: int = 1, horizon: int = None) -> ExperimentResult:
    rows = []
    all_ok = True
    certificate = None
    for mode_name, system in (
        ("crash", crash_system(n, t, horizon)),
        ("omission", omission_system(n, t, horizon)),
    ):
        base, first, second = f_lambda_sequence(system)
        pairs = [base, first, second]
        if mode_name == "omission":
            chain = chain_pair(system)
            pairs += [chain, f_star_pair(system)]
        for pair in pairs:
            spec_ok, necessary_ok, sticky = _check_pair(system, pair)
            rows.append([mode_name, pair.name, spec_ok, necessary_ok])
            all_ok = all_ok and spec_ok and necessary_ok
            if certificate is None and necessary_ok:
                certificate = (mode_name, pair.name,
                               _decision_certificate(system, sticky))
                if certificate[2] is None:
                    certificate = None
    table = render_table(
        ["mode", "protocol", "nontrivial agreement (Prop 4.4 side)",
         "necessary conditions (Prop 4.3)"],
        rows,
    )
    data = {}
    if certificate is not None:
        cert_mode, cert_protocol, explanation = certificate
        point = explanation.point
        if explanation.component_runs is not None:
            evidence = (
                f"its S-□-reachability component "
                f"({len(explanation.component_runs)} run(s)) satisfies ∃0 "
                "throughout (Corollary 3.3 evidence, machine-checked)"
            )
        else:
            evidence = (
                "vacuously — N∧O never occurs in that run, so no point is "
                "S-□-reachable from it (machine-checked)"
            )
        table += (
            f"\n\ndecision certificate ({cert_mode} mode, {cert_protocol}): "
            f"at point ({point[0]},{point[1]}) processor 0 has decided 0 "
            f"and C□(N∧O) ∃0 holds — {evidence}"
        )
        data["certificate"] = explanation.to_dict()
    return ExperimentResult(
        experiment_id="E5",
        title="Knowledge conditions for agreement (Propositions 4.3/4.4)",
        paper_claim=(
            "Continual common knowledge among the nonfaulty deciders of the "
            "opposite value is necessary for every nontrivial agreement "
            "protocol, and the condition-built protocols are nontrivial "
            "agreement protocols."
        ),
        ok=all_ok,
        table=table,
        notes=[
            f"n={n}, t={t}; exhaustive crash and omission systems; "
            "necessary conditions checked on each protocol's sticky "
            "decision pair",
        ],
        data=data,
    )
