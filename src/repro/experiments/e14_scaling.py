"""E14 — scaling ablation: enumeration and knowledge-evaluation cost.

Not a paper claim but the reproduction's own cost model (DESIGN.md sizing
guidance): measures, across ``(mode, n, t, horizon)`` cells,

* run-space size and distinct-view count of the exhaustive system;
* wall time to build the system's arrays and to evaluate one
  continual-common-knowledge formula (component fast path);
* message complexity of the concrete protocols per run (``P0`` is frugal,
  ``P0opt`` linear-size tables every round, ``ChainEBA`` never halts).
"""

from __future__ import annotations

import time

from ..io.system_codec import system_from_arrays
from ..knowledge.formulas import ContinualCommon, Exists
from ..knowledge.nonrigid import NONFAULTY
from ..metrics.stats import message_stats
from ..metrics.tables import format_float, render_table
from ..model.adversary import exhaustive_adversary
from ..model.config import all_configurations
from ..model.failures import FailureMode
from ..model.fastbuild import build_arrays
from ..protocols.chain_eba import chain_eba
from ..protocols.p0 import p0
from ..protocols.p0opt import p0opt
from ..sim.engine import ScenarioViews, traces_over_scenarios
from .framework import ExperimentResult

DEFAULT_CELLS = (
    (FailureMode.CRASH, 3, 1, 3),
    (FailureMode.CRASH, 4, 1, 3),
    (FailureMode.CRASH, 4, 2, 3),
    (FailureMode.OMISSION, 3, 1, 3),
    (FailureMode.OMISSION, 4, 1, 3),
)


def cell_row(mode: FailureMode, n: int, t: int, horizon: int) -> list:
    """One measured row of the scaling table (shared with the sharded
    execution path, which runs each cell as its own shard)."""
    start = time.perf_counter()
    arrays = build_arrays(mode, n, t, horizon)
    enumerate_seconds = time.perf_counter() - start
    system = system_from_arrays(arrays)
    start = time.perf_counter()
    ContinualCommon(NONFAULTY, Exists(1)).evaluate(system)
    cbox_seconds = time.perf_counter() - start
    return [str(mode), n, t, horizon, arrays.num_runs, arrays.num_views,
            format_float(enumerate_seconds, 3),
            format_float(cbox_seconds, 3)]


def message_rows() -> list:
    """Message complexity of the concrete protocols on one shared cell."""
    mode, n, t, horizon = FailureMode.CRASH, 4, 1, 3
    patterns = list(exhaustive_adversary(mode, n, t, horizon).patterns())
    scenarios = ScenarioViews(
        [
            (config, pattern)
            for config in all_configurations(n)
            for pattern in patterns
        ],
        horizon,
        t,
    )
    result = []
    for protocol in (p0(), p0opt(), chain_eba()):
        stats = message_stats(
            traces_over_scenarios(protocol, scenarios, horizon, t)
        )
        result.append(
            [stats.protocol_name, format_float(stats.mean_sent_per_run),
             format_float(stats.mean_delivered_per_run)]
        )
    return result


def build_result(rows: list, msg_rows: list) -> ExperimentResult:
    """Assemble the E14 result from measured rows (shared with the sharded
    execution path's assemble stage)."""
    table = render_table(
        ["mode", "n", "t", "h", "runs", "views", "enumerate s", "C□ eval s"],
        rows,
    )
    message_table = render_table(
        ["protocol", "mean msgs sent/run", "mean delivered/run"],
        msg_rows,
    )
    return ExperimentResult(
        experiment_id="E14",
        title="Scaling ablation: enumeration and evaluation cost",
        paper_claim=(
            "(reproduction cost model — no corresponding paper claim; "
            "the paper notes the knowledge tests are decidable in PSPACE)"
        ),
        ok=True,
        table=table + "\n\n" + message_table,
        notes=[
            "omission-mode cells grow doubly exponentially; see DESIGN.md "
            "for the restricted/sampled regimes used beyond these sizes",
        ],
        data={},
    )


def run(cells=DEFAULT_CELLS) -> ExperimentResult:
    rows = [cell_row(mode, n, t, horizon) for mode, n, t, horizon in cells]
    return build_result(rows, message_rows())
