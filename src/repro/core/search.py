"""Brute-force improvement search: a second, independent optimality check.

Theorem 5.3 characterizes optimality through knowledge formulas; this
module validates that characterization from the *definition* instead: a
protocol is non-optimal iff some nontrivial agreement protocol strictly
dominates it.  We search the simplest family of candidate improvements —
**single-state speedups**, where one local state (plus its perfect-recall
closure) is added to one decision set — and check each candidate for

* remaining a nontrivial agreement protocol (weak agreement + weak
  validity over the whole system),
* dominating the original, and
* deciding strictly earlier somewhere.

Finding such a candidate *proves* non-optimality.  Not finding one does not
prove optimality in general (improvements could require coordinated
multi-state changes), but on the systems where Theorem 5.3 declares a
protocol non-optimal a single-state speedup has always sufficed in our
experiments — and the test suite asserts the two verdicts agree on the
paper's protocol zoo, which is exactly the cross-validation we want.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from ..model.system import System
from ..model.views import ViewId
from .decision_sets import DecisionPair, close_under_recall
from .domination import compare
from .outcomes import ProtocolOutcome
from .specs import check_nontrivial_agreement


@dataclass
class Improvement:
    """A successful single-state speedup.

    Attributes:
        state: The local state added to a decision set.
        value: Which decision (0 or 1) the state was added to.
        pair: The improved (still nontrivial-agreement) decision pair.
        description: Human-readable witness of the strict improvement.
    """

    state: ViewId
    value: int
    pair: DecisionPair
    description: str


def _candidate_states(
    system: System, outcome: ProtocolOutcome
) -> Iterator[Tuple[ViewId, int]]:
    """States at which some nonfaulty processor is still undecided, i.e.
    the only places where a speedup could possibly help, tagged with the
    earliest time they occur (earlier states first — bigger wins)."""
    tagged = {}
    times = outcome.time[
        system.scenario_index().rows_in(outcome.scenarios)
    ].tolist()
    for run, decided in zip(system.runs, times):
        for processor in run.nonfaulty:
            decided_from = (
                system.horizon + 1
                if decided[processor] < 0
                else decided[processor]
            )
            for time in range(system.horizon + 1):
                if time < decided_from:
                    view = run.view(processor, time)
                    previous = tagged.get(view)
                    if previous is None or time < previous:
                        tagged[view] = time
    for view, time in sorted(tagged.items(), key=lambda item: item[1]):
        yield view, time


def find_improvement(
    system: System,
    pair: DecisionPair,
    *,
    max_candidates: Optional[int] = None,
) -> Optional[Improvement]:
    """Search for a single-state speedup of ``FIP(pair)``.

    Args:
        system: The system to search over.
        pair: The (recall-closed) decision pair to improve.
        max_candidates: Optional cap on examined states (earliest-occurring
            states are tried first).

    Returns:
        The first improvement found, or ``None``.
    """
    from ..protocols.fip import fip  # local: protocols layer imports core

    base_outcome = fip(pair).outcome(system)
    all_states = list(system.occurring_views())
    examined = 0
    for state, _ in _candidate_states(system, base_outcome):
        if max_candidates is not None and examined >= max_candidates:
            return None
        examined += 1
        for value in (0, 1):
            if value == 0:
                zeros = close_under_recall(
                    set(pair.zeros) | {state}, all_states, system.table
                )
                ones = pair.ones
            else:
                zeros = pair.zeros
                ones = close_under_recall(
                    set(pair.ones) | {state}, all_states, system.table
                )
            candidate = DecisionPair(
                zeros, ones, name=f"{pair.name}+speedup"
            )
            protocol = fip(candidate)
            if protocol.conflicts(system):
                nonfaulty_conflict = any(
                    system.runs[run_index].is_nonfaulty(processor)
                    for run_index, processor, _ in protocol.conflicts(system)
                )
                if nonfaulty_conflict:
                    continue
            candidate_outcome = protocol.outcome(system)
            if not check_nontrivial_agreement(candidate_outcome).ok:
                continue
            report = compare(candidate_outcome, base_outcome)
            if report.strict:
                witness = report.improvements[0]
                return Improvement(
                    state=state,
                    value=value,
                    pair=candidate,
                    description=witness.describe(
                        candidate.name, pair.name
                    ),
                )
    return None


def is_single_state_optimal(
    system: System, pair: DecisionPair, **kwargs
) -> bool:
    """Whether no single-state speedup exists (see module caveat)."""
    return find_improvement(system, pair, **kwargs) is None


def improvement_report(
    system: System, pairs: List[DecisionPair]
) -> List[Tuple[str, Optional[str]]]:
    """For each pair: its name and a found-improvement description (or
    ``None``).  Convenience for experiments and examples."""
    results = []
    for pair in pairs:
        improvement = find_improvement(system, pair)
        results.append(
            (
                pair.name,
                None if improvement is None else improvement.description,
            )
        )
    return results
