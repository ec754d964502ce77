"""E18 — extension: uniform agreement ([Nei90]/[NB92], paper Section 7).

The paper's agreement conditions constrain *nonfaulty* processors only; its
Section 7 notes that the framework extends to problems where **all**
processors that decide must agree (uniform agreement).  This experiment
measures how far the paper's protocols already are from uniformity:

* In the **crash** mode, ``P0``, ``P0opt`` and ``F^{Λ,2}`` all violate
  uniform agreement: a processor can decide 0 on its own initial value and
  crash before any evidence escapes, while the survivors correctly decide
  1.  The violation counts and a concrete witness run are reported.
* ``FloodSBA`` and ``DM90Waste`` decide only at/after the common-knowledge
  point; we measure whether their (late) decisions happen to be uniform
  over the exhaustive space.
* In the **omission** mode the chain protocol's faulty deciders are also
  measured — a sending-omission faulty processor *keeps receiving*, so its
  information (and hence decisions) track the nonfaulty ones much more
  closely.

The experiment asserts the qualitative split: early-deciding EBA protocols
are non-uniform in the crash mode, while the simultaneous baselines are
uniform there.
"""

from __future__ import annotations

from ..core.specs import check_uniform_agreement
from ..metrics.tables import render_table
from ..model.builder import crash_system, omission_system
from ..protocols.chain_eba import chain_eba
from ..protocols.chain_fip import chain_pair
from ..protocols.dm90 import dm90_waste
from ..protocols.f_lambda import f_lambda_2_pair
from ..protocols.fip import fip
from ..protocols.flood_sba import flood_sba
from ..protocols.p0 import p0
from ..protocols.p0opt import p0opt
from ..sim.engine import ScenarioViews, run_over_scenarios
from .framework import ExperimentResult


def run(n: int = 3, t: int = 1, horizon: int = None) -> ExperimentResult:
    crash = crash_system(n, t, horizon)
    omission = omission_system(n, t, horizon)
    crash_scenarios = ScenarioViews(crash.scenarios(), crash.horizon, t)
    omission_scenarios = omission.scenarios()

    rows = []
    measured = {}

    def record(mode_name, name, outcome):
        violations = check_uniform_agreement(outcome)
        measured[(mode_name, name)] = len(violations)
        rows.append([mode_name, name, len(violations) == 0, len(violations)])
        return violations

    witness = None
    for protocol in (p0(), p0opt(), flood_sba(), dm90_waste()):
        outcome = run_over_scenarios(
            protocol, crash_scenarios, crash.horizon, t
        )
        violations = record("crash", protocol.name, outcome)
        if witness is None and violations:
            witness = violations[0]
    record("crash", "F^{Λ,2}", fip(f_lambda_2_pair(crash)).outcome(crash))

    record(
        "omission",
        "ChainEBA",
        run_over_scenarios(
            chain_eba(), omission_scenarios, omission.horizon, t
        ),
    )
    record(
        "omission",
        "FIP(Z⁰,O⁰)",
        fip(chain_pair(omission)).outcome(omission),
    )

    table = render_table(
        ["mode", "protocol", "uniform", "violating runs"], rows
    )
    ok = (
        measured[("crash", "P0")] > 0
        and measured[("crash", "P0opt")] > 0
        and measured[("crash", "F^{Λ,2}")] > 0
        and measured[("crash", "FloodSBA")] == 0
        and measured[("crash", "DM90Waste")] == 0
    )
    notes = [
        f"exhaustive systems, n={n}, t={t}",
        "early EBA decisions are inherently non-uniform: a decider may "
        "crash before its evidence escapes",
    ]
    if witness:
        notes.append(f"crash witness: {witness}")
    return ExperimentResult(
        experiment_id="E18",
        title="Uniform agreement ablation ([Nei90]/[NB92], Section 7)",
        paper_claim=(
            "(extension — the paper's conditions constrain nonfaulty "
            "processors only; measuring uniformity shows the price of the "
            "early decisions that make EBA fast.)"
        ),
        ok=ok,
        table=table,
        notes=notes,
        data={
            "violations": {
                f"{mode}:{name}": count
                for (mode, name), count in measured.items()
            }
        },
    )
