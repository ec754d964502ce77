"""E13 — Proposition 2.2 / Corollary 2.3: the full-information protocol is
universal.

Proposition 2.2 says that for every protocol ``P`` there is a function
``f_i`` from the full-information state to ``P``'s state at corresponding
points.  We check this *extensionally*: running each concrete protocol over
the exhaustive scenario space, no full-information view may map to two
different protocol states at corresponding points.  Each case runs as one
*isolated* batch (``traces_over_scenarios(..., isolated=True)``): every
scenario is its own execution, sharing with the others only the
protocol-free delivery plan, so every protocol function runs exactly as
often as in one ``execute`` per scenario.  A shared batch runs each
transition once for all the scenarios that reach it, which would make
``f_i`` a function by construction.  The views come from the system's
arrays.

Corollary 2.3 (a full-information protocol dominates ``P``) is then checked
constructively: the FIP whose decision sets are the *images* of ``P``'s
decisions under that function decides at corresponding points no later than
``P`` — in fact exactly when ``P`` does.
"""

from __future__ import annotations

from typing import Dict

from ..core.decision_sets import DecisionPair
from ..core.domination import compare
from ..core.outcomes import ProtocolOutcome
from ..metrics.tables import render_table
from ..model.builder import crash_system, omission_system
from ..protocols.chain_eba import chain_eba
from ..protocols.fip import fip
from ..protocols.p0 import p0
from ..protocols.p0opt import p0opt
from ..sim.engine import traces_over_scenarios
from .framework import ExperimentResult


def _check_simulation(system, protocol, t):
    traces = traces_over_scenarios(
        protocol, system.scenarios(), system.horizon, t, isolated=True
    )
    arrays = system.arrays()
    mapping: Dict[int, object] = {}
    functional = True
    zero_triggers = []
    one_triggers = []
    for trace, run_views in zip(traces, arrays.views.tolist()):
        for time, (views, states) in enumerate(zip(run_views, trace.states)):
            for view, state, record in zip(views, states, trace.decisions):
                if view in mapping and mapping[view] != state:
                    functional = False
                mapping[view] = state
                if record is not None and record[1] <= time:
                    (zero_triggers if record[0] == 0 else one_triggers).append(
                        view
                    )
    # Corollary 2.3: the induced FIP decides exactly when P does.
    induced = DecisionPair(
        frozenset(arrays.recall_closure(zero_triggers)),
        frozenset(arrays.recall_closure(one_triggers)),
        name=f"FIP[{protocol.name}]",
    )
    induced_out = fip(induced).outcome(system)
    original_out = ProtocolOutcome(
        protocol.name, (trace.to_outcome() for trace in traces)
    )
    dominated = compare(induced_out, original_out).dominates
    return functional, dominated, len(mapping)


def run(n: int = 3, t: int = 1, horizon: int = None) -> ExperimentResult:
    crash = crash_system(n, t, horizon)
    omission = omission_system(n, t, horizon)
    cases = [
        ("crash", crash, p0()),
        ("crash", crash, p0opt()),
        ("omission", omission, chain_eba()),
    ]
    rows = []
    all_ok = True
    for mode_name, system, protocol in cases:
        functional, dominated, states = _check_simulation(system, protocol, t)
        rows.append([mode_name, protocol.name, functional, dominated, states])
        all_ok = all_ok and functional and dominated
    table = render_table(
        ["mode", "protocol", "f_i is a function", "induced FIP dominates",
         "distinct FIP states"],
        rows,
    )
    return ExperimentResult(
        experiment_id="E13",
        title="Full-information universality (Prop 2.2 / Cor 2.3)",
        paper_claim=(
            "The full-information state determines every protocol's state "
            "at corresponding points; hence some full-information protocol "
            "dominates any given protocol."
        ),
        ok=all_ok,
        table=table,
        notes=[f"n={n}, t={t}; exhaustive scenario spaces"],
        data={},
    )
