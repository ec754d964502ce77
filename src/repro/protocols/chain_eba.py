"""``ChainEBA``: a concrete, message-efficient implementation of the
0-chain protocol ``FIP(Z⁰, O⁰)`` for omission failures (Section 6.2).

Mechanics, following the proof of Proposition 6.4:

* every processor broadcasts every round (no halting before the horizon):
  its initial value's chain evidence, plus the set of processors it knows to
  be faulty;
* a processor with initial value 0 is itself a complete 1-member chain — it
  decides 0 at time 0 and broadcasts the chain ``(itself,)`` in round 1;
* a processor receiving in round ``k`` a chain of ``k`` distinct members
  ending at the sender — the sender not known faulty after merging this
  round's failure reports — *accepts* the 0: it decides 0 at time ``k`` and
  forwards the extended chain in round ``k + 1``;
* failure knowledge: a processor that misses an expected message marks the
  sender faulty (sound under sending omissions, where nonfaulty senders
  always deliver) and relays its known-faulty set every round;
* **decide 1** at the first round in which the processor learns of *no new
  failures* while having accepted no chain — the proof's witness for
  ``B_i^N ¬◇∃0*``.

With ``f`` actual failures some round ``m ≤ f + 1`` brings no new failure
news, so every nonfaulty processor decides by time ``f + 1``
(Proposition 6.4) — experiment E10.

This concrete protocol is a conservative implementation of the
knowledge-level :func:`repro.protocols.chain_fip.chain_pair`: the
knowledge-level one-rule can fire earlier (it tests the *exact* belief
``B_i^N ¬◇∃0*``, e.g. firing as soon as the processor knows all initial
values are 1 even while failure news keeps arriving).  Experiments compare
the two.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, NamedTuple, Optional, Tuple

from ..model.failures import ProcessorId
from .base import ConcreteProtocol, Message, State, broadcast

#: A chain payload: the ordered tuple of member processor ids.
Chain = Tuple[ProcessorId, ...]


class _ChainState(NamedTuple):
    processor: ProcessorId
    n: int
    t: int
    value: int
    known_faulty: FrozenSet[ProcessorId]
    accepted_chain: Optional[Chain]
    accepted_at: Optional[int]
    decided: Optional[int]
    time: int


class ChainEBA(ConcreteProtocol):
    """Concrete 0-chain EBA for the omission failure mode."""

    name = "ChainEBA"

    def initial_state(
        self, processor: ProcessorId, n: int, t: int, initial_value: int
    ) -> State:
        accepted: Optional[Chain] = None
        decided: Optional[int] = None
        accepted_at: Optional[int] = None
        if initial_value == 0:
            accepted = (processor,)
            accepted_at = 0
            decided = 0
        return _ChainState(
            processor=processor,
            n=n,
            t=t,
            value=initial_value,
            known_faulty=frozenset(),
            accepted_chain=accepted,
            accepted_at=accepted_at,
            decided=decided,
            time=0,
        )

    def messages(
        self, state: _ChainState, round_number: int
    ) -> Dict[ProcessorId, Message]:
        # Forward the accepted chain while it is still round-aligned: a
        # chain of L members is forwarded in round L (receivers then hold an
        # L+1-member chain).  Older chains are stale — every processor that
        # could validly extend them already has.
        chain: Optional[Chain] = None
        if (
            state.accepted_chain is not None
            and len(state.accepted_chain) == round_number
        ):
            chain = state.accepted_chain
        return broadcast(
            state.n,
            state.processor,
            ("chain-eba", chain, state.known_faulty),
        )

    def transition(
        self,
        state: _ChainState,
        round_number: int,
        received: Dict[ProcessorId, Message],
    ) -> State:
        known_faulty = set(state.known_faulty)
        # Silence from a processor proves it faulty (sending omissions):
        # everyone broadcasts every round until the horizon.
        for expected in range(state.n):
            if expected != state.processor and expected not in received:
                known_faulty.add(expected)
        for _, payload in received.items():
            _tag, _chain, reported_faulty = payload
            known_faulty |= reported_faulty

        accepted = state.accepted_chain
        accepted_at = state.accepted_at
        if accepted is None:
            for sender, payload in sorted(received.items()):
                _tag, chain, _reported = payload
                if chain is None:
                    continue
                if (
                    len(chain) == round_number
                    and chain[-1] == sender
                    and sender not in known_faulty
                    and state.processor not in chain
                    and len(set(chain)) == len(chain)
                ):
                    accepted = chain + (state.processor,)
                    accepted_at = round_number
                    break

        decided = state.decided
        if decided is None:
            if accepted is not None:
                decided = 0
            elif frozenset(known_faulty) == state.known_faulty:
                decided = 1  # no new failure news this round, no chain
        return _ChainState(
            processor=state.processor,
            n=state.n,
            t=state.t,
            value=state.value,
            known_faulty=frozenset(known_faulty),
            accepted_chain=accepted,
            accepted_at=accepted_at,
            decided=decided,
            time=round_number,
        )

    def output(self, state: _ChainState) -> Optional[int]:
        return state.decided


def chain_eba() -> ChainEBA:
    """Construct the concrete 0-chain EBA protocol."""
    return ChainEBA()
