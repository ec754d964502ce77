"""``DM90Waste``: a concrete early-stopping *simultaneous* BA protocol for
the crash mode, in the style of Dwork-Moses [DM90].

[DM90] showed that optimum SBA decides exactly when an initial value
becomes common knowledge, and that with crash failures this happens at time
``t + 1 - W`` where ``W`` is the run's *waste*: writing ``D(j)`` for the
number of processors whose failure has been *exposed* by round ``j`` (some
processor missed a message from them in a round ``<= j``),

    W  =  max_j  max(0, D(j) - j).

Intuitively, a round that exposes more failures than it costs brings the
inevitable clean round — and with it common knowledge — forward.

``DM90Waste`` implements the rule concretely: every processor floods the
values it has seen plus its delivery-evidence table; at each time ``k`` it
computes the waste visible to it and decides at the first ``k >= t + 1 -
W``, on 0 iff it has seen a 0.  The knowledge-level oracle
(:mod:`repro.protocols.sba_ck`) decides at the exact moment of common
knowledge; experiment E16 verifies that ``DM90Waste`` matches it decision-
for-decision at corresponding points of exhaustive crash systems — i.e.
that this concrete rule *is* the optimum SBA implementation, reproducing
the [DM90] headline inside this codebase.

Crash mode only: the waste computation reads silence as crash-and-gone,
which sending omissions can fake (the same reason ``P0opt``'s rule (b) is
crash-specific).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, NamedTuple, Optional, Tuple

from ..model.failures import ProcessorId
from .base import ConcreteProtocol, Message, State, broadcast

#: ((processor, round) -> senders it heard from), as a sorted tuple.
EvidenceTable = Tuple[Tuple[Tuple[ProcessorId, int], FrozenSet[ProcessorId]], ...]


class _WasteState(NamedTuple):
    processor: ProcessorId
    n: int
    t: int
    values_seen: FrozenSet[int]
    deliveries: EvidenceTable
    decided: Optional[int]
    time: int

    def deliveries_dict(self) -> Dict[Tuple[ProcessorId, int], FrozenSet[ProcessorId]]:
        return dict(self.deliveries)


def waste_from_deliveries(
    deliveries: Dict[Tuple[ProcessorId, int], FrozenSet[ProcessorId]],
    n: int,
    up_to_round: int,
) -> int:
    """``max_j max(0, D(j) - j)`` from a delivery-evidence table."""
    earliest: Dict[ProcessorId, int] = {}
    for (receiver, round_number), heard in deliveries.items():
        for processor in range(n):
            if processor == receiver or processor in heard:
                continue
            previous = earliest.get(processor)
            if previous is None or round_number < previous:
                earliest[processor] = round_number
    best = 0
    for j in range(1, up_to_round + 1):
        exposed = sum(1 for round_number in earliest.values() if round_number <= j)
        best = max(best, exposed - j)
    return best


class DM90Waste(ConcreteProtocol):
    """Waste-based optimum SBA for crash failures (see module docstring)."""

    name = "DM90Waste"

    def initial_state(
        self, processor: ProcessorId, n: int, t: int, initial_value: int
    ) -> State:
        return _WasteState(
            processor=processor,
            n=n,
            t=t,
            values_seen=frozenset((initial_value,)),
            deliveries=(),
            decided=None,
            time=0,
        )

    def messages(
        self, state: _WasteState, round_number: int
    ) -> Dict[ProcessorId, Message]:
        if state.decided is not None:
            return {}
        return broadcast(
            state.n,
            state.processor,
            ("dm90", state.values_seen, state.deliveries),
        )

    def transition(
        self,
        state: _WasteState,
        round_number: int,
        received: Dict[ProcessorId, Message],
    ) -> State:
        values = set(state.values_seen)
        deliveries = state.deliveries_dict()
        for payload in received.values():
            _tag, their_values, their_deliveries = payload
            values |= their_values
            for key, heard in their_deliveries:
                deliveries.setdefault(key, heard)
        deliveries[(state.processor, round_number)] = frozenset(received)

        decided = state.decided
        if decided is None:
            current_waste = waste_from_deliveries(
                deliveries, state.n, round_number
            )
            if round_number >= state.t + 1 - current_waste:
                decided = 0 if 0 in values else 1
        return _WasteState(
            processor=state.processor,
            n=state.n,
            t=state.t,
            values_seen=frozenset(values),
            deliveries=tuple(sorted(deliveries.items())),
            decided=decided,
            time=round_number,
        )

    def output(self, state: _WasteState) -> Optional[int]:
        return state.decided


def dm90_waste() -> DM90Waste:
    """Construct the waste-based SBA protocol."""
    return DM90Waste()
