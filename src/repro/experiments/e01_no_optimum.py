"""E1 — Proposition 2.1: there is no optimum EBA protocol.

Measured reproduction:

* ``P0`` and ``P1`` are both EBA protocols over the exhaustive crash
  scenario space;
* each decides its favoured value at time 0 (so an optimum protocol would
  have to decide everything at time 0);
* neither dominates the other — both directions exhibit counterexamples;
* the [DS82] lower-bound probe: in the worst-case crash-chain run some
  nonfaulty processor cannot decide before time ``t`` under either
  protocol, confirming that no protocol is close to optimum in all runs.
"""

from __future__ import annotations

import numpy as np

from ..core.domination import compare
from ..core.specs import check_eba
from ..metrics.stats import decision_time_stats
from ..metrics.tables import format_float, render_table
from ..model.adversary import ExhaustiveCrashAdversary
from ..protocols.p0 import p0, p1
from ..sim.engine import ScenarioViews, run_over_scenarios
from ..workloads.scenarios import exhaustive_scenarios, worst_case_crash_chain
from ..model.failures import FailureMode
from .framework import ExperimentResult


def _favored_at_time0(outcome, favored: int) -> bool:
    """Whether every nonfaulty processor holding the favoured value
    decides it at time 0."""
    holders = outcome.nonfaulty & (outcome.scenarios.init == favored)
    return bool(
        np.all(outcome.value[holders] == favored)
        and np.all(outcome.time[holders] == 0)
    )


def run(n: int = 4, t: int = 1, horizon: int = None) -> ExperimentResult:
    horizon = (t + 2) if horizon is None else horizon
    scenarios = ScenarioViews(
        exhaustive_scenarios(FailureMode.CRASH, n, t, horizon), horizon, t
    )
    p0_out = run_over_scenarios(p0(), scenarios, horizon, t)
    p1_out = run_over_scenarios(p1(), scenarios, horizon, t)

    p0_eba = check_eba(p0_out)
    p1_eba = check_eba(p1_out)
    forward = compare(p0_out, p1_out)
    backward = compare(p1_out, p0_out)

    p0_time0 = _favored_at_time0(p0_out, 0)
    p1_time0 = _favored_at_time0(p1_out, 1)

    # [DS82] probe: the crash-chain run forces a late decision for the
    # survivors under P0 (the lone 0 is whispered down the faulty chain).
    chain_scenario = worst_case_crash_chain(n, t)
    chain_run = p0_out.get(chain_scenario)
    late = max(
        (chain_run.decision_time(processor) or horizon)
        for processor in chain_run.nonfaulty
    )

    stats0 = decision_time_stats(p0_out)
    stats1 = decision_time_stats(p1_out)
    table = render_table(
        ["protocol", "EBA", "mean t", "max t", "decides favored at 0",
         "dominates other"],
        [
            ["P0", p0_eba.ok, format_float(stats0.mean), stats0.maximum,
             p0_time0, forward.dominates],
            ["P1", p1_eba.ok, format_float(stats1.mean), stats1.maximum,
             p1_time0, backward.dominates],
        ],
    )
    ok = (
        p0_eba.ok
        and p1_eba.ok
        and p0_time0
        and p1_time0
        and not forward.dominates
        and not backward.dominates
        and late >= t
    )
    return ExperimentResult(
        experiment_id="E1",
        title="No optimum EBA protocol (Proposition 2.1)",
        paper_claim=(
            "P0 and P1 are EBA protocols deciding their favoured value at "
            "time 0; an optimum protocol would dominate both, hence decide "
            "everything at time 0, which is impossible [DS82]."
        ),
        ok=ok,
        table=table,
        notes=[
            f"crash mode, n={n}, t={t}, horizon={horizon}, "
            f"{len(scenarios)} exhaustive scenarios",
            f"P0 vs P1: {forward}",
            f"P1 vs P0: {backward}",
            f"[DS82] crash-chain probe: latest nonfaulty decision at time "
            f"{late} (>= t = {t})",
        ],
        data={
            "p0_mean": stats0.mean,
            "p1_mean": stats1.mean,
            "chain_latest_decision": late,
            "scenarios": len(scenarios),
        },
    )
