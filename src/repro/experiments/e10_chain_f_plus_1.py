"""E10 — Proposition 6.4: the chain protocol decides by time ``f + 1``.

Over the exhaustive omission system, for both the knowledge-level
``FIP(Z⁰, O⁰)`` and the concrete ``ChainEBA`` implementation:

* every nonfaulty processor decides by time ``f + 1`` where ``f`` is the
  number of processors that actually fail in the run (``f ≤ t``);
* both are EBA protocols;
* the per-``f`` worst-case decision time table is printed (the paper's
  claim in table form).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..core.outcomes import ProtocolOutcome
from ..core.specs import check_eba
from ..metrics.tables import render_table
from ..model.builder import omission_system
from ..protocols.chain_eba import chain_eba
from ..protocols.chain_fip import chain_pair
from ..protocols.fip import fip
from ..sim.engine import run_over_scenarios
from .framework import ExperimentResult


def _worst_by_f(outcome: ProtocolOutcome) -> Dict[int, int]:
    """Per number ``f`` of faulty processors, the latest nonfaulty decision
    time over the runs with ``f`` failures (``10**9`` when some nonfaulty
    processor of such a run never decides)."""
    nonfaulty = outcome.nonfaulty
    time = outcome.time
    latest = np.where(
        (nonfaulty & (time < 0)).any(axis=1),
        10**9,  # undecided sentinel
        np.where(nonfaulty, time, 0).max(axis=1, initial=0),
    )
    faulty = outcome.scenarios.num_faulty
    return {
        f: int(latest[faulty == f].max()) for f in np.unique(faulty).tolist()
    }


def run(n: int = 3, t: int = 1, horizon: int = None) -> ExperimentResult:
    system = omission_system(n, t, horizon)
    knowledge = fip(chain_pair(system))
    knowledge.assert_no_nonfaulty_conflicts(system)
    knowledge_out = knowledge.outcome(system)
    concrete_out = run_over_scenarios(
        chain_eba(), system.scenarios(), system.horizon, t
    )

    rows = []
    all_ok = True
    for name, outcome in (
        ("FIP(Z⁰,O⁰)", knowledge_out),
        ("ChainEBA", concrete_out),
    ):
        eba = check_eba(outcome)
        worst = _worst_by_f(outcome)
        bound_ok = all(latest <= f + 1 for f, latest in worst.items())
        rows.append(
            [name, eba.ok, bound_ok]
            + [worst.get(f, "-") for f in range(t + 1)]
        )
        all_ok = all_ok and eba.ok and bound_ok
    table = render_table(
        ["protocol", "EBA", "decides by f+1"]
        + [f"worst t(f={f})" for f in range(t + 1)],
        rows,
    )
    return ExperimentResult(
        experiment_id="E10",
        title="Chain protocol decides by f+1 (Proposition 6.4)",
        paper_claim=(
            "In an omission run where f processors actually fail, all "
            "nonfaulty processors running FIP(Z⁰,O⁰) decide by time f + 1."
        ),
        ok=all_ok,
        table=table,
        notes=[
            f"omission mode, n={n}, t={t}, horizon={system.horizon}, "
            f"{len(system.runs)} exhaustive runs; concrete ChainEBA checked "
            "on the same scenario space",
        ],
        data={},
    )
