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

from typing import Callable, Dict, List, Optional, Tuple
from weakref import WeakValueDictionary

from ..core.decision_sets import DecisionPair, close_under_recall
from ..core.outcomes import DecisionRecord, ProtocolOutcome, RunOutcome
from ..errors import EvaluationError, ProtocolViolationError
from ..knowledge.formulas import Formula
from ..model import kernels
from ..model.chunked import ChunkedAssignment
from ..model.system import BitsetAssignment, System
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
        self._first_times: Dict[
            System, List[List[Tuple[Optional[int], Optional[int]]]]
        ] = {}
        self._sticky: Dict[System, DecisionPair] = {}

    @property
    def name(self) -> str:
        return self.pair.name

    def _firing_table(
        self, system: System
    ) -> List[List[Tuple[Optional[int], Optional[int]]]]:
        """First zero-/one-firing time per ``(run, processor)``.

        Scanned once per system and memoized on the protocol instance —
        ``outcome``, ``sticky_pair`` and ``conflicts`` all read the same
        table.  Under the packed kernels the scan is a union of same-state
        occurrence masks followed by one vectorized lowest-set-bit
        extraction over all run windows, instead of per-point
        set-membership tests.
        """
        table = self._first_times.get(system)
        if table is not None:
            return table
        num_runs = len(system.runs)
        n = system.n
        table = [
            [(None, None)] * n for _ in range(num_runs)
        ]  # type: List[List[Tuple[Optional[int], Optional[int]]]]
        kernel = system.effective_kernel()
        if kernel in (kernels.CHUNKED, kernels.BITSET):
            zeros = self.pair.zeros
            ones = self.pair.ones
            if kernel == kernels.CHUNKED:
                index = system.chunked_index()
                masks = [
                    (
                        index.states_mask(processor, zeros),
                        index.states_mask(processor, ones),
                    )
                    for processor in range(n)
                ]
            else:
                index = system.bitset_index()
                owners = index.view_owner
                zero_masks = [0] * n
                one_masks = [0] * n
                for view, gmask in index.view_masks.items():
                    owner = owners[view]
                    if view in zeros:
                        zero_masks[owner] |= gmask
                    if view in ones:
                        one_masks[owner] |= gmask
                masks = list(zip(zero_masks, one_masks))
            for processor, (zero_mask, one_mask) in enumerate(masks):
                zero_times = index.first_times(zero_mask)
                one_times = index.first_times(one_mask)
                for run_index in range(num_runs):
                    zero_time = zero_times[run_index]
                    one_time = one_times[run_index]
                    if zero_time is not None or one_time is not None:
                        table[run_index][processor] = (zero_time, one_time)
        else:
            for run_index, run in enumerate(system.runs):
                row = table[run_index]
                for processor in range(n):
                    zero_time: Optional[int] = None
                    one_time: Optional[int] = None
                    for time in range(system.horizon + 1):
                        view = run.view(processor, time)
                        if self.pair.decides_zero(view):
                            zero_time = time
                        if self.pair.decides_one(view):
                            one_time = time
                        if zero_time is not None or one_time is not None:
                            break
                    row[processor] = (zero_time, one_time)
        self._first_times[system] = table
        return table

    def decision_for(
        self, system: System, run_index: int, processor: int
    ) -> DecisionRecord:
        """``(value, time)`` of the processor's decision in a run, if any."""
        zero_time, one_time = self._firing_table(system)[run_index][processor]
        if zero_time is None and one_time is None:
            return None
        if zero_time is not None and one_time is not None:
            # Tie-break simultaneous firing in favour of 0 (see class doc).
            return (
                (0, zero_time) if zero_time <= one_time else (1, one_time)
            )
        if zero_time is not None:
            return (0, zero_time)
        return (1, one_time)  # type: ignore[arg-type]

    def outcome(self, system: System) -> ProtocolOutcome:
        """Decisions of every processor in every run of *system*."""
        result = ProtocolOutcome(self.name)
        for run_index, run in enumerate(system.runs):
            decisions: List[DecisionRecord] = [
                self.decision_for(system, run_index, processor)
                for processor in range(system.n)
            ]
            result.add(
                RunOutcome(
                    config=run.config,
                    pattern=run.pattern,
                    decisions=tuple(decisions),
                    horizon=system.horizon,
                )
            )
        return result

    def conflicts(self, system: System) -> List[Tuple[int, int, int]]:
        """Points ``(run_index, processor, time)`` where both decision rules
        first fired simultaneously (tie-broken to 0)."""
        found: List[Tuple[int, int, int]] = []
        table = self._firing_table(system)
        for run_index in range(len(system.runs)):
            row = table[run_index]
            for processor in range(system.n):
                zero_time, one_time = row[processor]
                if (
                    zero_time is not None
                    and one_time is not None
                    and zero_time == one_time
                ):
                    found.append((run_index, processor, zero_time))
        return found

    def assert_no_nonfaulty_conflicts(self, system: System) -> None:
        """Raise unless every simultaneous-firing point belongs to a faulty
        processor (Proposition 4.1(a) forbids nonfaulty conflicts)."""
        for run_index, processor, time in self.conflicts(system):
            run = system.runs[run_index]
            if run.is_nonfaulty(processor):
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
        :meth:`_firing_table`): evaluation caches key on the sticky
        pair's *token*, so phases of one process that both ask for it —
        a batch plan's prepare hook and its finalize-time ``run()`` —
        must see the same object.
        """
        memoized = self._sticky.get(system)
        if memoized is not None:
            return memoized
        zero_triggers: List[ViewId] = []
        one_triggers: List[ViewId] = []
        for run_index, run in enumerate(system.runs):
            for processor in range(system.n):
                record = self.decision_for(system, run_index, processor)
                if record is None:
                    continue
                value, time = record
                view = run.view(processor, time)
                (zero_triggers if value == 0 else one_triggers).append(view)
        all_states = list(system.occurring_views())
        sticky = DecisionPair(
            close_under_recall(zero_triggers, all_states, system.table),
            close_under_recall(one_triggers, all_states, system.table),
            name=self.pair.name,
        )
        self._sticky[system] = sticky
        return sticky


def pair_from_formulas(
    system: System,
    zero_formula: Callable[[int], Formula],
    one_formula: Callable[[int], Formula],
    name: str = "FIP",
    *,
    require_state_determined: bool = True,
) -> DecisionPair:
    """Build a decision pair from per-processor knowledge formulas.

    Args:
        system: The system over which the formulas are interpreted.
        zero_formula: ``i -> φ_i`` — processor ``i`` joins ``Z`` at states
            where ``φ_i`` holds.
        one_formula: Likewise for ``O``.
        name: Display name of the resulting pair.
        require_state_determined: Verify that each formula's truth is a
            function of the processor's local state (true for any formula of
            the form ``K_i ψ`` / ``B_i^S ψ``, which is what the paper's
            decision rules always use).  A violation raises
            :class:`~repro.errors.EvaluationError`.

    The trigger sets are closed under perfect recall, so the result is a
    legitimate "decides or has decided" pair even for non-monotone formulas.
    """
    zero_states: List[ViewId] = []
    one_states: List[ViewId] = []
    for which, factory, sink in (
        ("zero", zero_formula, zero_states),
        ("one", one_formula, one_states),
    ):
        for processor in range(system.n):
            truth = factory(processor).evaluate(system)
            if isinstance(truth, ChunkedAssignment) and require_state_determined:
                # Same subset test as the bitset branch, one sparse
                # popcount-free pass per state group over the limb-sliced
                # entry table, vectorized.
                index = system.chunked_index()
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
                continue
            if isinstance(truth, BitsetAssignment) and require_state_determined:
                # One subset test per distinct local state: the state's
                # occurrence mask is entirely inside the truth mask (holds
                # everywhere), disjoint from it (holds nowhere), or split —
                # which is exactly a state-determinism violation.
                index = system.bitset_index()
                mask = truth.mask
                owners = index.view_owner
                for view, gmask in index.view_masks.items():
                    if owners[view] != processor:
                        continue
                    overlap = mask & gmask
                    if overlap == gmask:
                        sink.append(view)
                    elif overlap:
                        raise EvaluationError(
                            f"{name}: {which}-formula for processor "
                            f"{processor} is not state-determined "
                            f"(state {view} evaluates both ways)"
                        )
                continue
            by_state: Dict[ViewId, bool] = {}
            for run_index, run in enumerate(system.runs):
                for time in range(system.horizon + 1):
                    view = run.view(processor, time)
                    value = truth.at(run_index, time)
                    if require_state_determined:
                        previous = by_state.get(view)
                        if previous is not None and previous != value:
                            raise EvaluationError(
                                f"{name}: {which}-formula for processor "
                                f"{processor} is not state-determined "
                                f"(state {view} evaluates both ways)"
                            )
                    by_state[view] = value
            sink.extend(view for view, value in by_state.items() if value)
    all_states = list(system.occurring_views())
    return DecisionPair(
        close_under_recall(zero_states, all_states, system.table),
        close_under_recall(one_states, all_states, system.table),
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
