"""E17 — extension: multivalued agreement ("the general case").

The paper proves everything for binary agreement and remarks that the
extension to a general finite value domain is straightforward
(Section 2.1).  This experiment carries the concrete-protocol side of that
remark and measures it:

* ``MultiRace[m]`` (the ``P0`` generalization) and ``MultiOpt[m]`` (the
  ``P0opt`` generalization) satisfy Decision/Agreement/Validity over the
  exhaustive crash scenario space for domains ``m = 2, 3, 4``;
* ``MultiOpt`` dominates ``MultiRace`` at every domain size, strictly;
* at ``m = 2`` both collapse to their binary originals decision-for-
  decision (so the generalization is conservative);
* mean decision time by domain size — the larger the domain, the rarer the
  instant minimum-value decision, so the race's mean time grows while the
  optimized protocol's early-stopping keeps the gap open.
"""

from __future__ import annotations

import numpy as np

from ..core.domination import compare, equivalent_decisions
from ..core.specs import check_eba
from ..metrics.stats import decision_time_stats
from ..metrics.tables import format_float, render_table
from ..model.adversary import ExhaustiveCrashAdversary
from ..multivalued.config import all_multi_configurations
from ..multivalued.protocols import multi_opt, multi_race
from ..protocols.p0 import p0
from ..protocols.p0opt import p0opt
from ..sim.engine import ScenarioViews, run_over_scenarios
from .framework import ExperimentResult


def run(
    n: int = 3, t: int = 1, horizon: int = None, domain_sizes=(2, 3, 4)
) -> ExperimentResult:
    horizon = (t + 2) if horizon is None else horizon
    patterns = list(ExhaustiveCrashAdversary(n, t, horizon).patterns())
    rows = []
    all_ok = True
    binary_collapse = True
    for domain_size in domain_sizes:
        scenarios = ScenarioViews(
            [
                (config, pattern)
                for config in all_multi_configurations(n, domain_size)
                for pattern in patterns
            ],
            horizon,
            t,
        )
        race = run_over_scenarios(
            multi_race(domain_size), scenarios, horizon, t
        )
        optimized = run_over_scenarios(
            multi_opt(domain_size), scenarios, horizon, t
        )
        race_ok = check_eba(race).ok
        opt_ok = check_eba(optimized).ok
        domination = compare(optimized, race)
        race_stats = decision_time_stats(race)
        opt_stats = decision_time_stats(optimized)
        rows.append(
            [domain_size, len(scenarios), race_ok, opt_ok,
             domination.strict, format_float(race_stats.mean),
             format_float(opt_stats.mean)]
        )
        all_ok = all_ok and race_ok and opt_ok and domination.strict

        if domain_size == 2:
            # conservativity: identical decisions to the binary originals
            binary_scenarios = ScenarioViews(
                _as_binary(scenarios), horizon, t
            )
            p0_out = run_over_scenarios(p0(), binary_scenarios, horizon, t)
            popt_out = run_over_scenarios(
                p0opt(), binary_scenarios, horizon, t
            )
            binary_collapse = (
                _same_decisions(race, p0_out)
                and _same_decisions(optimized, popt_out)
            )

    table = render_table(
        ["|V|", "scenarios", "MultiRace EBA", "MultiOpt EBA",
         "MultiOpt strictly dominates", "race mean t", "opt mean t"],
        rows,
    )
    return ExperimentResult(
        experiment_id="E17",
        title="Multivalued agreement (the paper's 'general case')",
        paper_claim=(
            "(extension — Section 2.1 claims the binary restriction is "
            "inessential; the generalized race/optimized protocols stay "
            "correct, the optimization stays strict, and at |V| = 2 both "
            "collapse to the paper's originals.)"
        ),
        ok=all_ok and binary_collapse,
        table=table,
        notes=[
            f"crash mode, n={n}, t={t}, horizon={horizon}; exhaustive "
            "configurations x patterns per domain size",
            f"binary collapse (|V|=2 equals P0/P0opt): {binary_collapse}",
        ],
        data={"binary_collapse": binary_collapse},
    )


def _as_binary(scenarios):
    """Convert MultiConfiguration scenarios to binary ones (|V| = 2)."""
    from ..model.config import InitialConfiguration

    return [
        (InitialConfiguration(config.values), pattern)
        for config, pattern in scenarios
    ]


def _same_decisions(multi_outcome, binary_outcome) -> bool:
    """Decision-for-decision comparison across the two config types.

    The binary outcome runs over :func:`_as_binary` of the multivalued
    scenario list, so row ``r`` of one is row ``r`` of the other."""
    nonfaulty = multi_outcome.nonfaulty
    return len(multi_outcome) == len(binary_outcome) and all(
        np.array_equal(
            np.where(nonfaulty, getattr(multi_outcome, column), -1),
            np.where(nonfaulty, getattr(binary_outcome, column), -1),
        )
        for column in ("value", "time")
    )
