"""Multivalued EBA protocols for the crash mode.

Generalizations of the paper's binary examples to an arbitrary finite value
domain, preserving their structure:

* :class:`MultiRace` — the ``P0`` generalization.  Value ``0`` (the domain
  minimum) plays the role binary 0 played: decide 0 immediately on learning
  of it and relay; otherwise flood value sets and decide ``min(seen)`` at
  time ``t + 1``.  Validity holds because a unanimous value is the only one
  ever seen; agreement holds by the FloodSet argument plus the binary-``P0``
  argument for the early 0-decisions.

* :class:`MultiOpt` — the ``P0opt`` generalization.  Decide ``min(seen)``
  early once the processor knows its value set can never shrink below its
  current minimum: (a) it has seen *every* processor's initial value, or
  (b) it heard from the same set of processors in two consecutive rounds
  (the crash-mode stability argument of Section 2.2: everything any live
  processor knows was in those messages, and crashed processors' hidden
  values can no longer circulate).  A seen domain minimum still decides
  immediately.

Both reduce exactly to ``P0`` / ``P0opt`` at ``domain_size = 2``
(modulo message encoding), which the test suite checks decision-for-
decision.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, NamedTuple, Optional, Tuple

from ..model.failures import ProcessorId
from ..protocols.base import ConcreteProtocol, Message, State, broadcast


class _MultiState(NamedTuple):
    processor: ProcessorId
    n: int
    t: int
    domain_size: int
    known: Tuple[Tuple[ProcessorId, int], ...]
    heard_last: Optional[FrozenSet[ProcessorId]]
    decided: Optional[int]
    decided_at: Optional[int]
    time: int

    def known_dict(self) -> Dict[ProcessorId, int]:
        return dict(self.known)

    def seen_values(self) -> FrozenSet[int]:
        return frozenset(value for _, value in self.known)


class _MultiBase(ConcreteProtocol):
    """Shared plumbing: flood per-processor value tables every round."""

    def __init__(self, domain_size: int, halt_after: Optional[int] = 1) -> None:
        self.domain_size = domain_size
        self.halt_after = halt_after

    def initial_state(
        self, processor: ProcessorId, n: int, t: int, initial_value: int
    ) -> State:
        decided = 0 if initial_value == 0 else None
        return _MultiState(
            processor=processor,
            n=n,
            t=t,
            domain_size=self.domain_size,
            known=((processor, initial_value),),
            heard_last=None,
            decided=decided,
            decided_at=0 if decided is not None else None,
            time=0,
        )

    def _halted(self, state: _MultiState, round_number: int) -> bool:
        if self.halt_after is None or state.decided_at is None:
            return False
        return round_number > state.decided_at + self.halt_after

    def messages(
        self, state: _MultiState, round_number: int
    ) -> Dict[ProcessorId, Message]:
        if self._halted(state, round_number):
            return {}
        return broadcast(state.n, state.processor, ("multi", state.known))

    def transition(
        self,
        state: _MultiState,
        round_number: int,
        received: Dict[ProcessorId, Message],
    ) -> State:
        known = state.known_dict()
        for payload in received.values():
            _tag, entries = payload
            for processor, value in entries:
                known.setdefault(processor, value)
        heard_now = frozenset(received)
        decided = state.decided
        decided_at = state.decided_at
        if decided is None:
            decided = self._decide(state, known, heard_now, round_number)
            if decided is not None:
                decided_at = round_number
        return _MultiState(
            processor=state.processor,
            n=state.n,
            t=state.t,
            domain_size=state.domain_size,
            known=tuple(sorted(known.items())),
            heard_last=heard_now,
            decided=decided,
            decided_at=decided_at,
            time=round_number,
        )

    def _decide(
        self,
        state: _MultiState,
        known: Dict[ProcessorId, int],
        heard_now: FrozenSet[ProcessorId],
        round_number: int,
    ) -> Optional[int]:
        raise NotImplementedError

    def output(self, state: _MultiState) -> Optional[int]:
        return state.decided


class MultiRace(_MultiBase):
    """The ``P0`` generalization (see module docstring)."""

    def __init__(self, domain_size: int, halt_after: Optional[int] = 1) -> None:
        super().__init__(domain_size, halt_after)
        self.name = f"MultiRace[{domain_size}]"

    def _decide(self, state, known, heard_now, round_number):
        values = set(known.values())
        if 0 in values:
            return 0
        if round_number >= state.t + 1:
            return min(values)
        return None


class MultiOpt(_MultiBase):
    """The ``P0opt`` generalization (see module docstring)."""

    def __init__(self, domain_size: int, halt_after: Optional[int] = 1) -> None:
        super().__init__(domain_size, halt_after)
        self.name = f"MultiOpt[{domain_size}]"

    def _decide(self, state, known, heard_now, round_number):
        values = set(known.values())
        if 0 in values:
            return 0
        if len(known) == state.n:
            return min(values)  # condition (a): all values seen
        if state.heard_last is not None and heard_now == state.heard_last:
            return min(values)  # condition (b): stable heard set
        if round_number >= state.t + 1:
            return min(values)
        return None


def multi_race(domain_size: int) -> MultiRace:
    """Construct the ``P0`` generalization for a value domain."""
    return MultiRace(domain_size)


def multi_opt(domain_size: int) -> MultiOpt:
    """Construct the ``P0opt`` generalization for a value domain."""
    return MultiOpt(domain_size)
