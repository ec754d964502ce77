"""The protocols ``P0`` and ``P1`` (paper, Proposition 2.1; after [LF82]).

``P0``: when a processor first learns that some processor has an initial
value of 0, it decides 0, relays 0 to everyone in the next round, and halts;
if by time ``t + 1`` it has not learned of any 0, it decides 1 and halts.
All nonfaulty processors with initial value 0 decide at time 0.

``P1`` is the symmetric protocol with the roles of 0 and 1 exchanged.
Neither protocol dominates the other (a 0-heavy run favours ``P0``, a
1-heavy run favours ``P1``), which is the engine of the paper's proof that
no *optimum* EBA protocol exists — regenerated as experiment E1.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional

from ..core.values import other
from ..model.failures import ProcessorId
from .base import ConcreteProtocol, Message, State, broadcast


class _RaceState(NamedTuple):
    """Local state of a :class:`ValueRaceProtocol` processor."""

    processor: ProcessorId
    n: int
    t: int
    favored: int
    knows_favored: bool
    relayed: bool
    decided: Optional[int]
    time: int


class ValueRaceProtocol(ConcreteProtocol):
    """The common skeleton of ``P0`` / ``P1``.

    Parameterized by the *favored* value ``w``: decide ``w`` immediately on
    learning ``∃w`` (own value or a relay), relay once, halt; decide
    ``1 - w`` at time ``t + 1`` otherwise.
    """

    def __init__(self, favored: int) -> None:
        self.favored = favored
        self.name = f"P{favored}"

    def initial_state(
        self, processor: ProcessorId, n: int, t: int, initial_value: int
    ) -> State:
        knows = initial_value == self.favored
        return _RaceState(
            processor=processor,
            n=n,
            t=t,
            favored=self.favored,
            knows_favored=knows,
            relayed=False,
            decided=self.favored if knows else None,
            time=0,
        )

    def messages(
        self, state: _RaceState, round_number: int
    ) -> Dict[ProcessorId, Message]:
        if state.knows_favored and not state.relayed:
            return broadcast(state.n, state.processor, ("value", state.favored))
        return {}

    def transition(
        self,
        state: _RaceState,
        round_number: int,
        received: Dict[ProcessorId, Message],
    ) -> State:
        knows = state.knows_favored
        relayed = state.relayed
        decided = state.decided
        if knows and not relayed:
            relayed = True  # the relay just went out in this round
        if not knows and any(
            payload == ("value", state.favored) for payload in received.values()
        ):
            knows = True
            decided = state.favored
        if decided is None and round_number >= state.t + 1:
            decided = other(state.favored)
        return _RaceState(
            processor=state.processor,
            n=state.n,
            t=state.t,
            favored=state.favored,
            knows_favored=knows,
            relayed=relayed,
            decided=decided,
            time=round_number,
        )

    def output(self, state: _RaceState) -> Optional[int]:
        return state.decided


def p0() -> ValueRaceProtocol:
    """``P0``: race to decide 0; default to 1 at time ``t + 1``."""
    return ValueRaceProtocol(0)


def p1() -> ValueRaceProtocol:
    """``P1``: race to decide 1; default to 0 at time ``t + 1``."""
    return ValueRaceProtocol(1)
