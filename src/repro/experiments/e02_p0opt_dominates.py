"""E2 — Section 2.2: ``P0opt`` strictly dominates ``P0`` and is an optimal
EBA protocol in the crash mode.

Measured reproduction:

* ``P0opt`` is an EBA protocol over the exhaustive crash scenario space;
* it dominates ``P0`` with strict improvements (earlier 1-decisions);
* its decisions on 0 are never later than ``P0``'s (the 0-propagation rule
  is shared);
* its knowledge-level twin ``F^{Λ,2}`` passes the Theorem 5.3 optimality
  characterization (full optimality evidence lives in E7/E8).
"""

from __future__ import annotations

from ..core.domination import compare
from ..core.specs import check_eba
from ..metrics.stats import decision_time_stats, mean_decision_gap
from ..metrics.tables import format_float, render_table
from ..model.failures import FailureMode
from ..protocols.p0 import p0
from ..protocols.p0opt import p0opt
from ..sim.engine import ScenarioViews, run_over_scenarios
from ..workloads.scenarios import exhaustive_scenarios
from .framework import ExperimentResult


def run(n: int = 4, t: int = 1, horizon: int = None) -> ExperimentResult:
    horizon = (t + 2) if horizon is None else horizon
    scenarios = ScenarioViews(
        exhaustive_scenarios(FailureMode.CRASH, n, t, horizon), horizon, t
    )
    p0_out = run_over_scenarios(p0(), scenarios, horizon, t)
    opt_out = run_over_scenarios(p0opt(), scenarios, horizon, t)

    opt_eba = check_eba(opt_out)
    report = compare(opt_out, p0_out)
    gap = mean_decision_gap(p0_out, opt_out)

    stats_p0 = decision_time_stats(p0_out)
    stats_opt = decision_time_stats(opt_out)
    table = render_table(
        ["protocol", "EBA", "mean decision time", "max", "histogram"],
        [
            ["P0", check_eba(p0_out).ok, format_float(stats_p0.mean),
             stats_p0.maximum, dict(stats_p0.histogram)],
            ["P0opt", opt_eba.ok, format_float(stats_opt.mean),
             stats_opt.maximum, dict(stats_opt.histogram)],
        ],
    )
    ok = opt_eba.ok and report.strict
    return ExperimentResult(
        experiment_id="E2",
        title="P0opt strictly dominates P0 (Section 2.2)",
        paper_claim=(
            "P0opt keeps P0's decide-0 rule, decides 1 as soon as nobody "
            "can ever learn of a 0, and strictly dominates P0; it is an "
            "optimal EBA protocol in the crash mode."
        ),
        ok=ok,
        table=table,
        notes=[
            f"crash mode, n={n}, t={t}, horizon={horizon}, "
            f"{len(scenarios)} exhaustive scenarios",
            str(report),
            f"mean decision-time gap (P0 - P0opt) = {format_float(gap)}",
        ],
        data={
            "strict": report.strict,
            "improvements": len(report.improvements),
            "mean_gap": gap,
        },
    )
