"""``FloodSBA``: the classic ``t + 1``-round simultaneous baseline
(crash mode).

Every processor floods the set of initial values it has seen for ``t + 1``
rounds and then decides: 0 if it ever saw a 0, else 1.  With at most ``t``
crash failures all nonfaulty processors hold the same value set at time
``t + 1`` (the FloodSet argument: some round among ``1..t+1`` is free of new
crashes, after which the sets are equal and stay equal), so the decision is
simultaneous, agreed and valid.

This baseline is what the paper's introduction contrasts EBA against: EBA
protocols such as ``P0opt`` typically decide much earlier than any
simultaneous protocol — regenerated as experiment E12.

**Crash mode only.**  Under sending omissions a faulty processor can inject
its value to a single processor arbitrarily late, so plain flooding loses
agreement; :func:`repro.protocols.registry.concrete_protocol`, which
``outcome_for`` (and so ``repro-eba compare``) and ``repro-eba diagram``
call, rejects a FloodSBA run over any other pattern through the scenario
guard :func:`assert_crash_pattern`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, NamedTuple, Optional

from ..errors import UnsupportedModeError
from ..model.failures import FailureMode, FailurePattern, ProcessorId
from .base import ConcreteProtocol, Message, State, broadcast


def assert_crash_pattern(pattern: FailurePattern) -> None:
    """Reject omission patterns (FloodSBA's agreement argument needs
    crashes)."""
    mode = pattern.mode()
    if mode is not None and mode is not FailureMode.CRASH:
        raise UnsupportedModeError(
            "FloodSBA is only sound for crash failures; got an "
            f"{mode} pattern"
        )


class _FloodState(NamedTuple):
    processor: ProcessorId
    n: int
    t: int
    seen: FrozenSet[int]
    decided: Optional[int]
    time: int


class FloodSBA(ConcreteProtocol):
    """Flood value sets for ``t + 1`` rounds; decide simultaneously."""

    name = "FloodSBA"

    def initial_state(
        self, processor: ProcessorId, n: int, t: int, initial_value: int
    ) -> State:
        return _FloodState(
            processor=processor,
            n=n,
            t=t,
            seen=frozenset((initial_value,)),
            decided=None,
            time=0,
        )

    def messages(
        self, state: _FloodState, round_number: int
    ) -> Dict[ProcessorId, Message]:
        if round_number > state.t + 1:
            return {}
        return broadcast(state.n, state.processor, ("seen", state.seen))

    def transition(
        self,
        state: _FloodState,
        round_number: int,
        received: Dict[ProcessorId, Message],
    ) -> State:
        seen = set(state.seen)
        for payload in received.values():
            tag, values = payload
            assert tag == "seen"
            seen |= values
        decided = state.decided
        if decided is None and round_number >= state.t + 1:
            decided = 0 if 0 in seen else 1
        return _FloodState(
            processor=state.processor,
            n=state.n,
            t=state.t,
            seen=frozenset(seen),
            decided=decided,
            time=round_number,
        )

    def output(self, state: _FloodState) -> Optional[int]:
        return state.decided


def flood_sba() -> FloodSBA:
    """Construct the ``t + 1``-round simultaneous baseline."""
    return FloodSBA()
