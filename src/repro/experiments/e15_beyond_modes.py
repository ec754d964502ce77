"""E15 — extension ablation: beyond the paper's failure modes ([PT86]).

The paper restricts its analysis to crash and *sending*-omission failures
(Section 2.1) and explicitly sets aside the Perry-Toueg receive- and
general-omission modes.  This experiment measures what actually happens to
the paper's protocols there:

* **Receive omissions** (exhaustive system): every guarantee survives.
  All sends succeed, so nonfaulty processors still see full information;
  ``P0``, ``P0opt``, ``ChainEBA`` remain EBA, and the two-step construction
  over the receive-omission system still yields an optimal protocol by the
  Theorem 5.3 check.
* **General omissions** (seeded sample — the exhaustive space squares the
  sending-omission one): ``P0`` survives (its only inference is from
  honestly-relayed *content*), but ``P0opt`` loses Decision (its rule (b)
  reads silence as a crash, which general omissions can fake forever) and
  ``ChainEBA`` loses Decision **and weak agreement** — a receive-faulty
  processor's false "X is faulty" reports poison chain validation at
  nonfaulty processors.  Weak validity survives everywhere (message
  *contents* are honest in every omission mode).

This is the reproduction's evidence that the paper's mode restriction is
load-bearing, not cosmetic.
"""

from __future__ import annotations

from ..core.optimality import check_optimality
from ..core.specs import (
    check_decision,
    check_eba,
    check_weak_agreement,
    check_weak_validity,
)
from ..metrics.tables import render_table
from ..model.adversary import SampledGeneralOmissionAdversary
from ..model.builder import system_for
from ..model.config import all_configurations
from ..model.failures import FailureMode
from ..protocols.chain_eba import chain_eba
from ..protocols.f_lambda import f_lambda_2_pair
from ..protocols.fip import fip
from ..protocols.p0 import p0
from ..protocols.p0opt import p0opt
from ..sim.engine import ScenarioViews, run_over_scenarios
from .framework import ExperimentResult


def run(
    n: int = 3,
    t: int = 1,
    horizon: int = None,
    *,
    general_n: int = 4,
    general_t: int = 2,
    general_samples: int = 80,
    seed: int = 7,
) -> ExperimentResult:
    horizon = (t + 2) if horizon is None else horizon
    rows = []

    # -- receive omissions: exhaustive, everything must survive ------------
    receive_system = system_for(FailureMode.RECEIVE_OMISSION, n, t, horizon)
    receive_scenarios = ScenarioViews(receive_system.scenarios(), horizon, t)
    receive_ok = True
    for protocol in (p0(), p0opt(), chain_eba()):
        outcome = run_over_scenarios(protocol, receive_scenarios, horizon, t)
        eba = check_eba(outcome)
        rows.append(
            ["receive-omission", protocol.name, eba.ok, 0,
             len(check_weak_agreement(outcome)),
             len(check_weak_validity(outcome))]
        )
        receive_ok = receive_ok and eba.ok
    fl2 = fip(f_lambda_2_pair(receive_system))
    fl2_outcome = fl2.outcome(receive_system)
    fl2_eba = check_eba(fl2_outcome).ok
    fl2_optimal = check_optimality(
        receive_system, fl2.sticky_pair(receive_system)
    ).optimal
    rows.append(
        ["receive-omission", "F^{Λ,2} (rebuilt)", fl2_eba and fl2_optimal,
         0, 0, 0]
    )
    receive_ok = receive_ok and fl2_eba and fl2_optimal

    # -- general omissions: sampled; measure which properties break --------
    general_horizon = general_t + 2
    adversary = SampledGeneralOmissionAdversary(
        general_n, general_t, general_horizon,
        samples=general_samples * 4, seed=seed,
    )
    patterns = list(adversary.patterns())[: general_samples + 1]
    scenarios = ScenarioViews(
        [
            (config, pattern)
            for config in all_configurations(general_n)
            for pattern in patterns
        ],
        general_horizon,
        general_t,
    )
    breakage = {}
    for protocol in (p0(), p0opt(), chain_eba()):
        outcome = run_over_scenarios(
            protocol, scenarios, general_horizon, general_t
        )
        decision = len(check_decision(outcome))
        weak_agree = len(check_weak_agreement(outcome))
        weak_valid = len(check_weak_validity(outcome))
        breakage[protocol.name] = (decision, weak_agree, weak_valid)
        rows.append(
            ["general-omission", protocol.name,
             decision == 0 and weak_agree == 0,
             decision, weak_agree, weak_valid]
        )

    table = render_table(
        ["mode", "protocol", "all guarantees hold", "decision violations",
         "weak-agreement violations", "weak-validity violations"],
        rows,
    )
    # Expected shape: receive mode fully survives; general omissions break
    # P0opt's Decision and ChainEBA's agreement, while weak validity holds
    # for every protocol in every mode.
    general_validity_ok = all(
        weak_valid == 0 for _, _, weak_valid in breakage.values()
    )
    p0_survives = breakage["P0"] == (0, 0, 0)
    chain_breaks = breakage["ChainEBA"][1] > 0
    ok = receive_ok and general_validity_ok and p0_survives and chain_breaks
    return ExperimentResult(
        experiment_id="E15",
        title="Beyond the analyzed failure modes ([PT86] ablation)",
        paper_claim=(
            "(extension — the paper restricts to crash and sending "
            "omissions; this measures why: the guarantees survive receive "
            "omissions but general omissions defeat silence-based "
            "inference.)"
        ),
        ok=ok,
        table=table,
        notes=[
            f"receive-omission: exhaustive, n={n}, t={t}, "
            f"horizon={horizon} ({len(receive_system.runs)} runs)",
            f"general-omission: seeded sample, n={general_n}, "
            f"t={general_t}, {len(scenarios)} scenarios (seed={seed})",
            "weak validity never breaks: omission-mode contents are honest",
        ],
        data={"breakage": breakage},
    )
