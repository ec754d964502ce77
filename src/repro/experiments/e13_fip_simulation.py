"""E13 — Proposition 2.2 / Corollary 2.3: the full-information protocol is
universal.

Proposition 2.2 says that for every protocol ``P`` there is a function
``f_i`` from the full-information state to ``P``'s state at corresponding
points.  We check this *extensionally*: running each concrete protocol over
the exhaustive scenario space, no full-information view may map to two
different protocol states at corresponding points.  Each scenario runs as
its own execution, so nothing is shared between runs: batch runs share
each transition among the scenarios that reach it, which would make
``f_i`` a function by construction.

Corollary 2.3 (a full-information protocol dominates ``P``) is then checked
constructively: the FIP whose decision sets are the *images* of ``P``'s
decisions under that function decides at corresponding points no later than
``P`` — in fact exactly when ``P`` does.
"""

from __future__ import annotations

from typing import Dict

from ..core.decision_sets import DecisionPair, close_under_recall
from ..core.domination import compare
from ..metrics.tables import render_table
from ..model.builder import crash_system, omission_system
from ..protocols.chain_eba import chain_eba
from ..protocols.fip import fip
from ..protocols.p0 import p0
from ..protocols.p0opt import p0opt
from ..sim.engine import execute
from .framework import ExperimentResult


def _check_simulation(system, protocol, t):
    traces = [
        execute(protocol, config, pattern, system.horizon, t)
        for config, pattern in system.scenarios()
    ]
    mapping: Dict[int, object] = {}
    functional = True
    zero_triggers = []
    one_triggers = []
    for trace, run in zip(traces, system.runs):
        for time in range(system.horizon + 1):
            for processor in range(system.n):
                view = run.view(processor, time)
                state = trace.state_of(processor, time)
                if view in mapping and mapping[view] != state:
                    functional = False
                mapping[view] = state
                record = trace.decisions[processor]
                if record is not None and record[1] <= time:
                    (zero_triggers if record[0] == 0 else one_triggers).append(
                        view
                    )
    # Corollary 2.3: the induced FIP decides exactly when P does.
    all_states = list(system.occurring_views())
    induced = DecisionPair(
        close_under_recall(zero_triggers, all_states, system.table),
        close_under_recall(one_triggers, all_states, system.table),
        name=f"FIP[{protocol.name}]",
    )
    induced_out = fip(induced).outcome(system)
    from ..core.outcomes import ProtocolOutcome

    original_out = ProtocolOutcome(protocol.name)
    for trace in traces:
        original_out.add(trace.to_outcome())
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
