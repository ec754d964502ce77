"""E21 — Section 3.2: eventual common knowledge is the wrong tool.

The paper motivates continual common knowledge by showing what goes wrong
with the natural *weakening* of common knowledge.  This experiment
reproduces the whole §3.2 argument measurably:

* the operator facts: ``◇C_S φ ⇒ C◇_S φ`` and ``C□_S φ ⇒ C◇_S φ`` are
  valid, and ``C◇`` is *strictly* weaker than ``C`` (a witness point has
  ``C◇∃1`` without ``C∃1``);
* the consistency failure that forces ``F₀``'s lopsided one-rule: there is
  a point where one processor believes ``C◇∃0`` while another believes
  ``C◇∃1`` — with symmetric decide-on-``C◇`` rules they would disagree;
* ``F₀`` (decide 0 on ``B_i^N C◇∃0``; decide 1 on
  ``B_i^N(C◇∃1 ∧ □¬C◇∃0)``) is a nontrivial agreement protocol, exactly
  as the paper asserts;
* and it is **dominated**: in the omission mode ``F*`` strictly dominates
  ``F₀`` (the paper's "it is possible to decide 1 earlier than F₀"),
  while in the crash mode the optimal protocol dominates it (coinciding
  with it at the smallest sizes).
"""

from __future__ import annotations

from ..core.domination import compare
from ..core.specs import check_nontrivial_agreement
from ..knowledge.explain import explain, render_witness_table
from ..knowledge.formulas import (
    Believes,
    Common,
    ContinualCommon,
    EventualCommon,
    Eventually,
    Exists,
    Implies,
)
from ..knowledge.nonrigid import NONFAULTY
from ..metrics.tables import render_table
from ..model.builder import crash_system, omission_system
from ..protocols.f_lambda import f_lambda_2_pair
from ..protocols.f_star import f_star_pair
from ..protocols.f_zero import f_zero_pair
from ..protocols.fip import fip
from .framework import ExperimentResult


def run(n: int = 3, t: int = 1, horizon: int = None) -> ExperimentResult:
    rows = []
    ok = True
    strict_somewhere = False
    weaker_explanation = None
    for mode_name, system, optimal_pair_factory in (
        ("crash", crash_system(n, t, horizon), f_lambda_2_pair),
        ("omission", omission_system(n, t, horizon), f_star_pair),
    ):
        ec_zero = EventualCommon(NONFAULTY, Exists(0))
        ec_one = EventualCommon(NONFAULTY, Exists(1))
        implication_1 = Implies(
            Eventually(Common(NONFAULTY, Exists(1))), ec_one
        ).is_valid(system)
        implication_2 = Implies(
            ContinualCommon(NONFAULTY, Exists(1)), ec_one
        ).is_valid(system)

        common = Common(NONFAULTY, Exists(1)).evaluate(system)
        eventual = ec_one.evaluate(system)
        weaker_point = next(
            (
                (run_index, time)
                for run_index in range(len(system.runs))
                for time in range(system.horizon + 1)
                if eventual.at(run_index, time)
                and not common.at(run_index, time)
            ),
            None,
        )
        strictly_weaker = weaker_point is not None
        if strictly_weaker and weaker_explanation is None:
            explanation = explain(
                system, Common(NONFAULTY, Exists(1)), weaker_point
            )
            if not explanation.check(system):
                weaker_explanation = (mode_name, explanation)

        # The §3.2 consistency failure: some point where one processor
        # believes C◇∃0 and another believes C◇∃1.
        beliefs_zero = [
            Believes(processor, ec_zero).evaluate(system)
            for processor in range(system.n)
        ]
        beliefs_one = [
            Believes(processor, ec_one).evaluate(system)
            for processor in range(system.n)
        ]
        conflict = False
        for run_index, run in enumerate(system.runs):
            for time in range(system.horizon + 1):
                zero_believers = [
                    processor
                    for processor in run.nonfaulty
                    if beliefs_zero[processor].at(run_index, time)
                ]
                one_believers = [
                    processor
                    for processor in run.nonfaulty
                    if beliefs_one[processor].at(run_index, time)
                    and not beliefs_zero[processor].at(run_index, time)
                ]
                if zero_believers and one_believers:
                    conflict = True
                    break
            if conflict:
                break

        f_zero = fip(f_zero_pair(system))
        f_zero.assert_no_nonfaulty_conflicts(system)
        f_zero_out = f_zero.outcome(system)
        nontrivial = check_nontrivial_agreement(f_zero_out).ok

        optimal_out = fip(optimal_pair_factory(system)).outcome(system)
        domination = compare(optimal_out, f_zero_out)
        strict_somewhere = strict_somewhere or domination.strict

        rows.append(
            [mode_name, implication_1, implication_2, strictly_weaker,
             conflict, nontrivial, domination.dominates, domination.strict]
        )
        ok = (
            ok
            and implication_1
            and implication_2
            and strictly_weaker
            and conflict
            and nontrivial
            and domination.dominates
        )
    ok = ok and strict_somewhere
    table = render_table(
        ["mode", "◇C ⇒ C◇", "C□ ⇒ C◇", "C◇ strictly weaker than C",
         "symmetric-rule conflict exists", "F₀ nontrivial agreement",
         "optimal dominates F₀", "strictly"],
        rows,
    )
    data = {}
    if weaker_explanation is not None:
        weaker_mode, explanation = weaker_explanation
        point = explanation.point
        table += (
            f"\n\nstrictly-weaker witness ({weaker_mode} mode): C◇_N ∃1 "
            f"holds but C_N ∃1 fails at point ({point[0]},{point[1]}), "
            f"eliminated at fixpoint iteration {explanation.eliminated_at}; "
            "the indistinguishability chain reaches a ¬∃1 point:\n"
            + render_witness_table(explanation)
        )
        data["witness"] = explanation.to_dict()
    return ExperimentResult(
        experiment_id="E21",
        title="Eventual common knowledge is the wrong tool (Section 3.2)",
        paper_claim=(
            "C◇ weakens common knowledge and loses its consistency "
            "property, forcing F₀'s cautious one-rule; F₀ is a nontrivial "
            "agreement protocol but protocols built on continual common "
            "knowledge dominate it — strictly in the omission mode."
        ),
        ok=ok,
        table=table,
        notes=[
            f"exhaustive systems, n={n}, t={t}",
            "the consistency-failure witness is what rules out symmetric "
            "decide-on-C◇ rules (they would disagree at that point)",
        ],
        data=data,
    )
