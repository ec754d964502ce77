"""Full-information protocols ``FIP(Z, O)`` (paper, Sections 2.4 and 5).

A full-information protocol relays complete states everywhere every round;
all FIPs share the same run space (only their output functions differ), so a
FIP here is simply a :class:`~repro.core.decision_sets.DecisionPair`
interpreted over an enumerated :class:`~repro.model.system.System`.

This module provides:

* :class:`FullInformationProtocol` — decisions, outcomes and decision-map
  extraction for a pair over a system;
* :func:`pair_from_formulas` — build a decision pair from per-processor
  knowledge formulas (the paper's "high-level protocols with tests for
  knowledge"), validating that the formulas are state-determined and closing
  them under perfect recall;
* the paper's running examples at the knowledge level live in the sibling
  modules :mod:`repro.protocols.f_lambda`, :mod:`repro.protocols.f_star` and
  :mod:`repro.protocols.chain_fip`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple
from weakref import WeakValueDictionary

import numpy as np

from ..core.decision_sets import DecisionPair
from ..core.outcomes import DecisionRecord, ProtocolOutcome
from ..errors import EvaluationError, ProtocolViolationError
from ..knowledge.formulas import Formula
from ..model.partition import fired_views, first_fire_times
from ..model.system import System
from ..model.views import ViewId


class FullInformationProtocol:
    """``FIP(Z, O)``: the unique full-information protocol with decision
    pair ``(Z, O)``.

    The pair's state sets must be closed under perfect recall ("decides or
    has decided"); a processor's decision value and time in a run are read
    off as the first time its state enters either set, with the earlier set
    winning.

    Simultaneous first entry into both sets deserves care.  For a
    *nonfaulty* processor it is impossible in any of the paper's
    constructions (``decide_i(0) ∧ decide_i(1)`` contradicts Proposition
    4.1(a), and ``B_i^N`` beliefs of a processor that really is in ``N`` are
    mutually consistent).  A *faulty* processor that knows it is faulty,
    however, satisfies ``B_i^N φ`` for every φ, so both rules can fire at
    once; the paper places no constraint on faulty processors' outputs, and
    we break the tie deterministically in favour of 0.  Use
    :meth:`conflicts` to enumerate tie-broken points;
    :meth:`assert_no_nonfaulty_conflicts` is the safety net tests rely on.
    """

    def __init__(self, pair: DecisionPair) -> None:
        self.pair = pair
        self._fires: Dict[System, Tuple[np.ndarray, ...]] = {}
        self._sticky: Dict[System, DecisionPair] = {}

    @property
    def name(self) -> str:
        return self.pair.name

    def _first_fires(self, system: System) -> Tuple[np.ndarray, ...]:
        """``(value, time, tie)`` of every ``(run, processor)``'s first
        decision (see :func:`~repro.model.partition.first_fire_times`).

        Read off the system's view-id matrix in one vectorized pass —
        the scan the batch plan's trigger shards run — and memoized on
        the protocol instance: ``decision_for``, ``outcome``,
        ``conflicts`` and ``sticky_pair`` all read it.
        """
        fires = self._fires.get(system)
        if fires is None:
            arrays = system.arrays()
            fires = first_fire_times(
                arrays.views,
                arrays.view_flags(self.pair.zeros),
                arrays.view_flags(self.pair.ones),
            )
            self._fires[system] = fires
        return fires

    def decision_for(
        self, system: System, run_index: int, processor: int
    ) -> DecisionRecord:
        """``(value, time)`` of the processor's decision in a run, if any
        (simultaneous firing tie-broken in favour of 0, see class doc)."""
        value, time, _ = self._first_fires(system)
        decided = int(value[run_index, processor])
        if decided < 0:
            return None
        return (decided, int(time[run_index, processor]))

    def outcome(self, system: System) -> ProtocolOutcome:
        """Decisions of every processor in every run of *system*: the
        firing table's arrays over the system's scenario index."""
        value, time, _ = self._first_fires(system)
        return ProtocolOutcome.from_table(
            self.name,
            system.scenario_index(),
            value,
            np.where(value < 0, -1, time),
            system.horizon,
        )

    def conflicts(self, system: System) -> List[Tuple[int, int, int]]:
        """Points ``(run_index, processor, time)`` where both decision rules
        first fired simultaneously (tie-broken to 0)."""
        _, time, tie = self._first_fires(system)
        runs, processors = np.nonzero(tie)
        return list(
            zip(runs.tolist(), processors.tolist(), time[tie].tolist())
        )

    def assert_no_nonfaulty_conflicts(self, system: System) -> None:
        """Raise unless every simultaneous-firing point belongs to a faulty
        processor (Proposition 4.1(a) forbids nonfaulty conflicts)."""
        nonfaulty = system.arrays().nonfaulty
        for run_index, processor, time in self.conflicts(system):
            if nonfaulty[run_index, processor]:
                run = system.runs[run_index]
                raise ProtocolViolationError(
                    f"{self.name}: nonfaulty processor {processor} would "
                    f"decide both values at time {time} of run "
                    f"(config={run.config}, pattern={run.pattern})"
                )

    def sticky_pair(self, system: System) -> DecisionPair:
        """The effective "decides or has decided" pair of this protocol.

        Membership in the raw sets after the *other* value already fired is
        masked out (decisions are irreversible), and the result is closed
        under recall.  For conflict-free monotone pairs — all the paper's
        constructions — this equals the original pair; the equality is
        asserted by tests as a sanity check.

        Memoized on the protocol instance per system (like
        :meth:`_first_fires`): evaluation caches key on the sticky pair's
        *token*, so every caller in one process — an experiment and the
        explanations of its verdicts (:mod:`repro.knowledge.explain`)
        reading ``C□_{N∧Z}`` over it — must see the same object to share
        its component labellings and belief verdicts.
        """
        memoized = self._sticky.get(system)
        if memoized is not None:
            return memoized
        arrays = system.arrays()
        value, time, _ = self._first_fires(system)
        zero_triggers, one_triggers = fired_views(arrays.views, value, time)
        sticky = DecisionPair(
            frozenset(arrays.recall_closure(zero_triggers)),
            frozenset(arrays.recall_closure(one_triggers)),
            name=self.pair.name,
        )
        self._sticky[system] = sticky
        return sticky


def pair_from_formulas(
    system: System,
    zero_formula: Callable[[int], Formula],
    one_formula: Callable[[int], Formula],
    name: str = "FIP",
) -> DecisionPair:
    """Build a decision pair from per-processor knowledge formulas.

    Args:
        system: The system over which the formulas are interpreted.
        zero_formula: ``i -> φ_i`` — processor ``i`` joins ``Z`` at states
            where ``φ_i`` holds.
        one_formula: Likewise for ``O``.
        name: Display name of the resulting pair.

    Each formula's truth must be a function of the processor's local
    state (true for any formula of the form ``K_i ψ`` / ``B_i^S ψ``,
    which is what the paper's decision rules always use): one subset
    test per state group (:meth:`~repro.model.chunked.ChunkedIndex.state_verdicts`)
    finds the states where it holds, and a state where it holds only
    somewhere raises :class:`~repro.errors.EvaluationError`.  The
    trigger sets are closed under perfect recall, so the result is a
    legitimate "decides or has decided" pair even for non-monotone
    formulas.
    """
    index = system.chunked_index()
    zero_states: List[ViewId] = []
    one_states: List[ViewId] = []
    for which, factory, sink in (
        ("zero", zero_formula, zero_states),
        ("one", one_formula, one_states),
    ):
        for processor in range(system.n):
            truth = factory(processor).evaluate(system)
            views, full_ids, mixed_ids = index.state_verdicts(
                processor, truth.limbs
            )
            if mixed_ids:
                raise EvaluationError(
                    f"{name}: {which}-formula for processor "
                    f"{processor} is not state-determined "
                    f"(state {views[mixed_ids[0]]} evaluates both ways)"
                )
            sink.extend(views[g] for g in full_ids)
    arrays = system.arrays()
    return DecisionPair(
        frozenset(arrays.recall_closure(zero_states)),
        frozenset(arrays.recall_closure(one_states)),
        name=name,
    )


#: Protocol instances memoized per pair: the protocol's firing table and
#: sticky pair are memoized *on the instance*, so handing the same pair
#: to ``fip`` twice must return the same instance for that memoization
#: (and the sticky token identity it guards) to engage.  Keyed weakly —
#: pairs die with the systems that built them.
_FIP_MEMO: "WeakValueDictionary[int, FullInformationProtocol]" = (
    WeakValueDictionary()
)


def fip(pair: DecisionPair) -> FullInformationProtocol:
    """Convenience constructor mirroring the paper's ``FIP(Z, O)``."""
    protocol = _FIP_MEMO.get(pair.token)
    if protocol is None or protocol.pair is not pair:
        protocol = FullInformationProtocol(pair)
        _FIP_MEMO[pair.token] = protocol
    return protocol
