"""``P0opt``: the optimal crash-mode EBA protocol of Section 2.2.

Each processor maintains what it knows of everyone's initial values and
broadcasts that table every round.  Decision rules:

* **decide 0** as soon as it learns that some processor had initial value 0
  (this is the fastest any correct EBA protocol can decide 0 — the fact
  ``∃0`` propagates at full speed);
* **decide 1** as soon as it knows that *nobody will ever know* ``∃0``,
  which in the crash mode happens exactly when

  (a) it knows all initial values are 1, or
  (b) it hears from the same set of processors in two consecutive rounds
      and still does not know of any 0.

After deciding, a processor communicates for ``halt_after`` more rounds
(default 1, per the paper) and then stops sending.

Theorem 6.2: ``P0opt`` makes the same decisions as the knowledge-level
``F^{Λ,2}`` at corresponding points in the crash mode, and both are optimal
EBA protocols there — regenerated as experiments E2 and E8.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, NamedTuple, Optional, Tuple

from ..model.failures import ProcessorId
from .base import ConcreteProtocol, Message, State, broadcast


class _OptState(NamedTuple):
    """Local state of a ``P0opt`` processor.

    ``known`` maps processors to the initial values this processor has
    learned; ``heard_last`` is the sender set of the most recent round
    (``None`` before round 1).
    """

    processor: ProcessorId
    n: int
    t: int
    known: Tuple[Tuple[ProcessorId, int], ...]
    heard_last: Optional[FrozenSet[ProcessorId]]
    decided: Optional[int]
    decided_at: Optional[int]
    time: int

    def known_dict(self) -> Dict[ProcessorId, int]:
        return dict(self.known)

    def knows_zero(self) -> bool:
        return any(value == 0 for _, value in self.known)

    def knows_all_ones(self) -> bool:
        return len(self.known) == self.n and all(
            value == 1 for _, value in self.known
        )


class P0OptProtocol(ConcreteProtocol):
    """Concrete, linear-message-size implementation of ``P0opt``."""

    def __init__(self, halt_after: Optional[int] = 1) -> None:
        """Args:
            halt_after: Rounds of communication after deciding before the
                processor stops sending; ``None`` means it never halts
                (useful when comparing against never-halting
                full-information protocols).
        """
        self.halt_after = halt_after
        self.name = "P0opt"

    def initial_state(
        self, processor: ProcessorId, n: int, t: int, initial_value: int
    ) -> State:
        return _OptState(
            processor=processor,
            n=n,
            t=t,
            known=((processor, initial_value),),
            heard_last=None,
            decided=0 if initial_value == 0 else None,
            decided_at=0 if initial_value == 0 else None,
            time=0,
        )

    def _halted(self, state: _OptState, round_number: int) -> bool:
        if self.halt_after is None or state.decided_at is None:
            return False
        return round_number > state.decided_at + self.halt_after

    def messages(
        self, state: _OptState, round_number: int
    ) -> Dict[ProcessorId, Message]:
        if self._halted(state, round_number):
            return {}
        return broadcast(state.n, state.processor, ("known", state.known))

    def transition(
        self,
        state: _OptState,
        round_number: int,
        received: Dict[ProcessorId, Message],
    ) -> State:
        known = state.known_dict()
        for payload in received.values():
            tag, entries = payload
            assert tag == "known"
            for processor, value in entries:
                known.setdefault(processor, value)
        heard_now = frozenset(received.keys())

        decided = state.decided
        decided_at = state.decided_at
        if decided is None:
            knows_zero = any(value == 0 for value in known.values())
            if knows_zero:
                decided = 0
            elif len(known) == state.n and all(
                value == 1 for value in known.values()
            ):
                decided = 1  # condition (a)
            elif (
                state.heard_last is not None
                and heard_now == state.heard_last
            ):
                decided = 1  # condition (b)
            if decided is not None:
                decided_at = round_number

        return _OptState(
            processor=state.processor,
            n=state.n,
            t=state.t,
            known=tuple(sorted(known.items())),
            heard_last=heard_now,
            decided=decided,
            decided_at=decided_at,
            time=round_number,
        )

    def output(self, state: _OptState) -> Optional[int]:
        return state.decided


def p0opt(halt_after: Optional[int] = 1) -> P0OptProtocol:
    """Construct ``P0opt`` (see :class:`P0OptProtocol` for *halt_after*)."""
    return P0OptProtocol(halt_after)
