"""E9 — Proposition 6.3: ``F^{Λ,2}`` need not terminate under omissions.

The proposition requires ``t > 1`` and ``n ≥ t + 2``; the witness run ``r``
has all processors starting with 1 and processor 0 faulty, silent forever.

Exact regime (default): the **full** omission system at ``n = 4, t = 2,
horizon = 2`` (≈385k runs — the knowledge tests are exact).  Measured:

* in run ``r`` no nonfaulty processor decides at any time within the
  horizon, because ``B_i^N C□_{N∧Z^{Λ,1}} ∃1`` never holds;
* the proof mechanism is visible: at the perturbed run ``r'_m`` (processor
  0 has value 0 and delivers exactly one message, to ``j`` in round ``m``)
  the formula ``C□_{N∧Z^{Λ,1}} ∃1`` is *false* while ``r'_m`` is
  indistinguishable from ``r`` to every other nonfaulty processor — which
  is what blocks the decision;
* by contrast ``t = 1`` omission systems (any horizon) let ``F^{Λ,2}``
  decide everywhere, matching the proposition's ``t > 1`` hypothesis.

Beyond the horizon the paper's induction (Lemma A.9) extends the witness
family round by round; the finite prefix here machine-checks every step the
horizon can express.

:func:`measure` evaluates the cell and returns the measured truth values
as JSON-native data; :func:`build_result` renders them.  ``run`` calls
both in process, and the batch plan (:mod:`repro.exec.tasks`) calls
``measure`` in a pool worker and ``build_result`` in the supervisor, so
both paths share one evaluator and emit byte-identical results.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from ..knowledge.formulas import Believes, ContinualCommon, Exists
from ..knowledge.nonrigid import nonfaulty_and_zeros
from ..metrics.tables import render_table
from ..model.builder import omission_system
from ..model.config import InitialConfiguration, uniform_configuration
from ..model.failures import FailurePattern, OmissionBehavior
from ..protocols.f_lambda import f_lambda_sequence
from ..protocols.fip import fip
from .framework import ExperimentResult


def witness_target(
    n: int, horizon: int
) -> Tuple[InitialConfiguration, FailurePattern]:
    """The witness scenario ``r``: all values 1, processor 0 silent."""
    others = [p for p in range(n) if p != 0]
    silent = OmissionBehavior({r: others for r in range(1, horizon + 1)})
    return uniform_configuration(n, 1), FailurePattern({0: silent})


def perturbed_cases(
    n: int, horizon: int
) -> List[Tuple[str, InitialConfiguration, FailurePattern]]:
    """The perturbed scenarios ``r'_m``, in the verdict table's row order.

    ``r'_m -> pj``: processor 0 starts with 0 and delivers exactly one
    message, to ``j`` in round ``m``; everything else matches ``r``.
    """
    others = [p for p in range(n) if p != 0]
    zero_config = uniform_configuration(n, 1).values
    cases: List[Tuple[str, InitialConfiguration, FailurePattern]] = []
    for m in range(1, horizon + 1):
        for j in others:
            behavior = OmissionBehavior(
                {
                    r: [p for p in others if not (r == m and p == j)]
                    for r in range(1, horizon + 1)
                }
            )
            config_values = list(zero_config)
            config_values[0] = 0
            cases.append(
                (
                    f"r'_{m} -> p{j}",
                    InitialConfiguration(config_values),
                    FailurePattern({0: behavior}),
                )
            )
    return cases


def build_result(
    num_runs: int,
    n: int,
    t: int,
    horizon: int,
    *,
    nobody_decides: bool,
    belief_never: bool,
    perturbed_rows: List[List[object]],
) -> ExperimentResult:
    """Assemble the E9 verdict table from the values :func:`measure`
    returns (the reference recomputation in the tests calls it too)."""
    perturbed_all_false = all(not row[1] for row in perturbed_rows)
    rows = [
        ["no nonfaulty decision in witness run r", nobody_decides],
        ["B_i^N C□∃1 never holds in r", belief_never],
        ["C□∃1 false at every perturbed run r'_m", perturbed_all_false],
    ]
    table = render_table(["claim", "measured"], rows)
    ok = nobody_decides and belief_never and perturbed_all_false
    return ExperimentResult(
        experiment_id="E9",
        title="Omission-mode non-termination of F^{Λ,2} (Proposition 6.3)",
        paper_claim=(
            "For t > 1, n >= t + 2 there are omission-mode runs of F^{Λ,2} "
            "in which the nonfaulty processors never decide."
        ),
        ok=ok,
        table=table,
        notes=[
            f"FULL omission enumeration, n={n}, t={t}, horizon={horizon} "
            f"({num_runs} runs) — knowledge tests exact",
            "witness run: all values 1, processor 0 silent forever",
            "beyond the horizon the paper's Lemma A.9 induction extends "
            "the same witness family",
        ],
        data={
            "runs": num_runs,
            "perturbed_checked": len(perturbed_rows),
        },
    )


def measure(n: int, t: int, horizon: int) -> Dict[str, Any]:
    """Evaluate E9's cell: the run count, whether no nonfaulty processor
    decides in the witness run, whether the belief probe never holds
    there, and the ``C□`` row of each perturbed run — JSON-native, so a
    batch shard can return it as its payload."""
    system = omission_system(n, t, horizon)
    _, first, second = f_lambda_sequence(system)
    protocol = fip(second)

    # Only the witness run's decisions matter.
    target_index = system.run_index_for(*witness_target(n, horizon))
    target_nonfaulty = system.arrays().nonfaulty_of(target_index)
    nobody_decides = all(
        protocol.decision_for(system, target_index, processor) is None
        for processor in target_nonfaulty
    )

    # Mechanism: C□_{N∧Z^{Λ,1}} ∃1 fails at every perturbed run r'_m.
    sticky_first = fip(first).sticky_pair(system)
    cbox = ContinualCommon(nonfaulty_and_zeros(sticky_first), Exists(1))
    cbox_truth = cbox.evaluate(system)
    perturbed_rows: List[List[object]] = []
    for label, config, pattern in perturbed_cases(n, horizon):
        run_index = system.run_index_for(config, pattern)
        holds = cbox_truth.at(run_index, 0)
        perturbed_rows.append([label, holds])

    # Belief probe: B_i^N C□ ∃1 never true for nonfaulty i in the target.
    belief_never = all(
        not Believes(processor, cbox).evaluate(system).at(target_index, time)
        for processor in target_nonfaulty
        for time in range(horizon + 1)
    )
    return {
        "num_runs": len(system.runs),
        "nobody_decides": nobody_decides,
        "belief_never": belief_never,
        "perturbed_rows": perturbed_rows,
    }


def run(n: int = 4, t: int = 2, horizon: int = 2) -> ExperimentResult:
    return build_result(n=n, t=t, horizon=horizon, **measure(n, t, horizon))
