"""E20 — quantitative sweep: how much do the optimal EBA decisions gain,
and does it persist at scale?

The exhaustive experiments (E2, E12, E16) quantify the gains at the sizes
where knowledge tests are exact.  This sweep extends the *concrete*
comparison to larger networks with seeded random crash scenarios —
the figure-style series the paper's introduction gestures at:

* mean decision times of ``P0``, ``P0opt``, ``DM90Waste`` (optimum SBA)
  and ``FloodSBA`` across ``n ∈ {4, 6, 8}``, ``t ∈ {1, 2}``;
* cumulative decision shares at times 0 and 1 (EBA's instant and
  one-round decisions vs. the simultaneous protocols' waits);
* per-cell assertions: ``P0opt`` is EBA and strictly dominates ``P0``;
  the simultaneous protocols never beat ``P0opt``'s mean; the EBA-vs-SBA
  mean gap grows with ``t`` (the ``t + 1`` wait gets worse, early
  decisions do not).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..core.domination import compare
from ..core.specs import check_eba, check_sba
from ..metrics.stats import decision_time_stats, per_time_cumulative_share
from ..metrics.tables import format_float, render_table
from ..model.failures import FailureMode
from ..protocols.dm90 import dm90_waste
from ..protocols.flood_sba import flood_sba
from ..protocols.p0 import p0
from ..protocols.p0opt import p0opt
from ..sim.engine import ScenarioViews, run_over_scenarios
from ..workloads.scenarios import random_scenarios
from .framework import ExperimentResult

DEFAULT_CELLS: Tuple[Tuple[int, int], ...] = (
    (4, 1), (6, 1), (8, 1), (4, 2), (6, 2), (8, 2),
)


def cell_result(n: int, t: int, samples: int, seed: int) -> Dict[str, object]:
    """Measure one ``(n, t)`` cell: its table rows, per-cell assertion
    verdict and EBA-vs-SBA mean gap.

    Fully deterministic for fixed inputs (seeded scenarios, no wall-clock
    columns) — the sharded execution path runs each cell as its own shard
    and reassembles results that are byte-identical to :func:`run`'s.
    """
    horizon = t + 2
    scenarios = random_scenarios(
        FailureMode.CRASH, n, t, horizon, count=samples, seed=seed
    )
    # Stratify: unanimous-1 configurations are where P0opt's early
    # 1-decisions show, but a uniform random draw finds one with
    # probability 2^-n — vanishing exactly at the sizes this sweep
    # targets.  Add them deterministically (failure-free and one
    # silent crash per round).
    from ..model.config import uniform_configuration
    from ..model.failures import CrashBehavior, FailurePattern

    all_ones = uniform_configuration(n, 1)
    extra = [(all_ones, FailurePattern(()))]
    extra.extend(
        (all_ones, FailurePattern({0: CrashBehavior(k, frozenset())}))
        for k in range(1, horizon + 1)
    )
    scenarios += [
        scenario for scenario in extra if scenario not in set(scenarios)
    ]
    scenarios = ScenarioViews(scenarios, horizon, t)
    outcomes = {
        protocol.name: run_over_scenarios(protocol, scenarios, horizon, t)
        for protocol in (p0(), p0opt(), dm90_waste(), flood_sba())
    }
    cell_ok = (
        check_eba(outcomes["P0opt"]).ok
        and check_eba(outcomes["P0"]).ok
        and check_sba(outcomes["DM90Waste"]).ok
        and check_sba(outcomes["FloodSBA"]).ok
        and compare(outcomes["P0opt"], outcomes["P0"]).strict
    )
    rows: List[List[object]] = []
    means = {}
    for name, outcome in outcomes.items():
        stats = decision_time_stats(outcome)
        shares = per_time_cumulative_share(outcome, 1)
        means[name] = stats.mean
        rows.append(
            [f"n={n} t={t}", name, format_float(stats.mean),
             format_float(shares[0]), format_float(shares[1]),
             stats.maximum]
        )
    cell_ok = cell_ok and means["P0opt"] <= means["P0"]
    cell_ok = cell_ok and means["P0opt"] < means["DM90Waste"]
    return {
        "rows": rows,
        "ok": cell_ok,
        "t": t,
        "gap": means["DM90Waste"] - means["P0opt"],
    }


def build_result(
    cell_results: List[Dict[str, object]], samples: int, seed: int
) -> ExperimentResult:
    """Assemble the E20 result from per-cell measurements (shared with the
    sharded execution path's assemble stage)."""
    rows: List[List[object]] = []
    ok = True
    gap_by_t: Dict[int, List[float]] = {}
    for cell in cell_results:
        rows.extend(cell["rows"])  # type: ignore[arg-type]
        ok = ok and bool(cell["ok"])
        gap_by_t.setdefault(int(cell["t"]), []).append(float(cell["gap"]))  # type: ignore[arg-type]

    mean_gap = {
        t: sum(gaps) / len(gaps) for t, gaps in gap_by_t.items()
    }
    gap_grows = all(
        mean_gap[t_low] < mean_gap[t_high]
        for t_low in mean_gap
        for t_high in mean_gap
        if t_low < t_high
    )
    ok = ok and gap_grows
    table = render_table(
        ["cell", "protocol", "mean t", "share<=t0", "share<=t1", "max t"],
        rows,
    )
    return ExperimentResult(
        experiment_id="E20",
        title="Scaling sweep: optimal-EBA gains at larger n and t",
        paper_claim=(
            "(quantitative companion to [DRS90]'s motivation — EBA's "
            "early decisions persist at scale, and the gap to any "
            "simultaneous protocol grows with t.)"
        ),
        ok=ok,
        table=table,
        notes=[
            f"crash mode, {samples} seeded random scenarios per cell "
            f"(seed={seed}); concrete protocols only — knowledge tests "
            "are not needed for decision-time statistics",
            "mean EBA-vs-optimum-SBA gap by t: "
            + ", ".join(
                f"t={t}: {format_float(gap)}"
                for t, gap in sorted(mean_gap.items())
            ),
        ],
        data={"mean_gap_by_t": mean_gap},
    )


def run(
    cells: Tuple[Tuple[int, int], ...] = DEFAULT_CELLS,
    samples: int = 300,
    seed: int = 21,
) -> ExperimentResult:
    return build_result(
        [cell_result(n, t, samples, seed) for n, t in cells], samples, seed
    )
