"""Concrete protocol interface (paper, Section 2.3).

The paper models a protocol as a message-generation function, a state
transition function and an output function, all deterministic functions of
the processor's local state.  :class:`ConcreteProtocol` is that model as an
abstract class; :mod:`repro.sim.engine` executes instances round by round
under a failure pattern.

Concrete protocols are the "efficient implementations" of the paper's
knowledge-level protocols (e.g. ``P0opt`` implements ``F^{Λ,2}`` in the
crash mode with linear-size messages — Theorem 6.2).  Their outcomes use the
same :class:`~repro.core.outcomes.ProtocolOutcome` currency as the
knowledge-level protocols, so domination and specification checks apply
across the two layers.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Dict, Optional

from ..model.failures import ProcessorId

#: A concrete protocol's local state — hashable; the engine interns states
#: and never looks inside them.
State = Any

#: A message payload — opaque to the engine (``None`` entries are dropped).
Message = Any


class ConcreteProtocol(ABC):
    """A deterministic round-based protocol in the paper's formal model.

    Subclasses define the tuple ``(Q, σ_i, L, μ_ij, δ_i, O)`` of Section 2.3
    through four methods.  The engine guarantees:

    * :meth:`messages` receives a processor's state at time ``k - 1`` and
      the round ``k``, *before* any round-``k`` delivery;
    * :meth:`transition` is called with exactly the messages that survived
      the failure pattern;
    * :meth:`output` is consulted at every time ``0..horizon`` until it
      first returns a value, which is the processor's (irreversible)
      decision.

    States are hashable, and equal states behave identically: the engine
    folds every scenario of a batch over the protocol's own states.
    :meth:`initial_state` runs once per (n, processor, initial value),
    :meth:`messages` once per distinct (time, processor, n, state, decision
    so far), and :meth:`transition` and :meth:`output` once per distinct
    state and inbox — not once per processor per round.  That is exact
    because every function is a deterministic function of its state.  So
    a protocol must not count its calls or keep per-call state, and it
    must not mutate the states it is given.  A batch whose states cannot
    be hashed is rejected with :class:`~repro.errors.ConfigurationError`.

    Make states named tuples (:class:`typing.NamedTuple`): hashing and
    comparing one then run in C, and building one skips a frozen
    dataclass's per-field ``object.__setattr__`` — most of the engine's
    own work per transition.  Use one state class per protocol:
    NamedTuple equality is tuple equality, so states of two classes with
    equal fields compare (and intern) as equal.

    Faulty processors run the same code; the *pattern* drops their
    messages.  A processor that has halted simply returns no messages.
    """

    #: Display name used in outcomes, reports and tables.
    name: str = "concrete"

    @abstractmethod
    def initial_state(
        self, processor: ProcessorId, n: int, t: int, initial_value: int
    ) -> State:
        """``σ_i``: the state of *processor* at time 0."""

    @abstractmethod
    def messages(
        self, state: State, round_number: int
    ) -> Dict[ProcessorId, Message]:
        """``μ_ij``: messages to send in *round_number* (1-based).

        Returns a destination -> payload map.  Destinations not listed
        receive nothing; ``None`` payloads are treated as "no message".
        """

    @abstractmethod
    def transition(
        self,
        state: State,
        round_number: int,
        received: Dict[ProcessorId, Message],
    ) -> State:
        """``δ_i``: the state after *round_number* given delivered messages."""

    @abstractmethod
    def output(self, state: State) -> Optional[int]:
        """The output function: ``0``/``1`` once decided, else ``None``.

        Must be stable: once a state outputs a value, all successor states
        must output the same value (decisions are irreversible).
        """


def broadcast(
    n: int, sender: ProcessorId, payload: Message
) -> Dict[ProcessorId, Message]:
    """Helper: send *payload* to every other processor."""
    return {
        destination: payload for destination in range(n) if destination != sender
    }
