"""Failure modes, faulty behaviours and failure patterns.

This module implements Section 2.1 and 2.3 of the paper:

* **Crash failures** — a faulty processor obeys its protocol up to some round
  ``k``, sends an arbitrary subset of its required round-``k`` messages, and
  is silent in every later round.
* **(Sending-)omission failures** — a faulty processor obeys its protocol
  except that in each round it may omit an arbitrary subset of the messages
  it is required to send.  It still *receives* everything addressed to it.

A :class:`FailurePattern` records the faulty behaviour of every processor
that fails in a run; together with an initial configuration and a protocol it
uniquely determines the run (paper, Section 2.3).  Processors absent from the
pattern are *nonfaulty throughout the run* — the paper's chosen reading of
"nonfaulty" for EBA.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

from ..errors import ConfigurationError

ProcessorId = int


class FailureMode(Enum):
    """Failure modes: the paper's two, plus the [PT86] extensions.

    ``CRASH`` and ``OMISSION`` (= *sending* omissions) are the modes the
    paper analyzes.  ``RECEIVE_OMISSION`` (a faulty processor may fail to
    *receive* arbitrary messages) and ``GENERAL_OMISSION`` (both directions)
    are the Perry-Toueg modes the paper explicitly sets aside (Section 2.1);
    the simulator and adversaries support them so the ablation experiment
    E15 can measure which guarantees survive outside the analyzed modes.
    """

    CRASH = "crash"
    OMISSION = "omission"
    RECEIVE_OMISSION = "receive-omission"
    GENERAL_OMISSION = "general-omission"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class CrashBehavior:
    """A crash failure: obey the protocol, then die.

    Attributes:
        crash_round: The round ``k >= 1`` in which the processor crashes.  It
            obeys its protocol in all rounds ``< k`` and sends nothing in any
            round ``> k``.
        receivers: The subset of processors that still receive the crashing
            processor's round-``k`` message.  The paper allows an arbitrary
            (not necessarily strict) subset; our canonical enumerators use
            strict subsets only, because "crash in round ``k`` delivering to
            everyone" is observationally identical to "crash in round
            ``k + 1`` delivering to no one".
    """

    crash_round: int
    receivers: FrozenSet[ProcessorId]

    def __post_init__(self) -> None:
        if self.crash_round < 1:
            raise ConfigurationError(
                f"crash round must be >= 1, got {self.crash_round}"
            )
        object.__setattr__(self, "receivers", frozenset(self.receivers))

    def sends_to(self, receiver: ProcessorId, round_number: int) -> bool:
        """Whether the round-*round_number* message to *receiver* is sent."""
        if round_number < self.crash_round:
            return True
        if round_number == self.crash_round:
            return receiver in self.receivers
        return False

    def receives_from(self, sender: ProcessorId, round_number: int) -> bool:
        """Crash failures never drop incoming messages (the post-crash
        state is unobservable anyway)."""
        return True

    def is_visible_within(self, horizon: int, n: int, sender: ProcessorId) -> bool:
        """Whether this behaviour causes any omission within *horizon* rounds.

        A crash scheduled after the horizon (or one that delivers its full
        final round exactly at the horizon) is indistinguishable from being
        nonfaulty in any run truncated at *horizon*.
        """
        others = n - 1
        if self.crash_round > horizon:
            return False
        if self.crash_round == horizon:
            delivered = len(self.receivers - {sender})
            return delivered < others
        return True


@dataclass(frozen=True)
class OmissionBehavior:
    """A sending-omission failure: drop selected messages, stay alive.

    Attributes:
        omissions: Maps a round number to the set of destination processors
            whose message is omitted in that round.  Rounds not present omit
            nothing.  Stored canonically as a sorted tuple of
            ``(round, frozenset)`` pairs with empty sets dropped, so equal
            behaviours compare and hash equal.
    """

    omissions: Tuple[Tuple[int, FrozenSet[ProcessorId]], ...]

    def __init__(
        self, omissions: Mapping[int, Iterable[ProcessorId]] | Iterable[Tuple[int, Iterable[ProcessorId]]]
    ) -> None:
        if isinstance(omissions, Mapping):
            items = omissions.items()
        else:
            items = list(omissions)
        canonical: Dict[int, FrozenSet[ProcessorId]] = {}
        for round_number, receivers in items:
            if round_number < 1:
                raise ConfigurationError(
                    f"omission round must be >= 1, got {round_number}"
                )
            receivers = frozenset(receivers)
            if round_number in canonical:
                raise ConfigurationError(
                    f"duplicate omission entry for round {round_number}"
                )
            if receivers:
                canonical[round_number] = receivers
        object.__setattr__(
            self,
            "omissions",
            tuple(sorted(canonical.items())),
        )

    def omitted(self, round_number: int) -> FrozenSet[ProcessorId]:
        """The set of destinations omitted in *round_number*."""
        for entry_round, receivers in self.omissions:
            if entry_round == round_number:
                return receivers
        return frozenset()

    def sends_to(self, receiver: ProcessorId, round_number: int) -> bool:
        """Whether the round-*round_number* message to *receiver* is sent."""
        return receiver not in self.omitted(round_number)

    def receives_from(self, sender: ProcessorId, round_number: int) -> bool:
        """Sending-omission failures receive everything (paper, §2.1)."""
        return True

    def is_visible_within(self, horizon: int, n: int, sender: ProcessorId) -> bool:
        """Whether any omission actually lands within *horizon* rounds."""
        for entry_round, receivers in self.omissions:
            if entry_round <= horizon and (receivers - {sender}):
                return True
        return False


@dataclass(frozen=True)
class ReceiveOmissionBehavior:
    """A receive-omission failure [PT86]: drop selected *incoming* messages.

    Attributes:
        omissions: Maps a round number to the set of *senders* whose
            message the faulty processor fails to receive in that round.
            Canonicalized like :class:`OmissionBehavior`.
    """

    omissions: Tuple[Tuple[int, FrozenSet[ProcessorId]], ...]

    def __init__(
        self,
        omissions: Mapping[int, Iterable[ProcessorId]]
        | Iterable[Tuple[int, Iterable[ProcessorId]]],
    ) -> None:
        canonical = _canonical_omissions(omissions)
        object.__setattr__(self, "omissions", canonical)

    def missed(self, round_number: int) -> FrozenSet[ProcessorId]:
        """The senders whose round-*round_number* message is not received."""
        for entry_round, senders in self.omissions:
            if entry_round == round_number:
                return senders
        return frozenset()

    def sends_to(self, receiver: ProcessorId, round_number: int) -> bool:
        """Receive-omission processors send everything."""
        return True

    def receives_from(self, sender: ProcessorId, round_number: int) -> bool:
        """Whether the round-*round_number* message from *sender* arrives."""
        return sender not in self.missed(round_number)

    def is_visible_within(self, horizon: int, n: int, owner: ProcessorId) -> bool:
        """Whether any receive omission lands within *horizon* rounds.

        Note: a receive omission is only "visible" indirectly — through the
        faulty processor's subsequent (incomplete) relays — but it is a
        genuine deviation, so any in-horizon miss counts.
        """
        for entry_round, senders in self.omissions:
            if entry_round <= horizon and (senders - {owner}):
                return True
        return False


@dataclass(frozen=True)
class GeneralOmissionBehavior:
    """A general-omission failure [PT86]: drop messages in both directions.

    Attributes:
        send_omissions: round -> destinations whose outgoing message is
            dropped.
        receive_omissions: round -> senders whose incoming message is
            dropped.
    """

    send_omissions: Tuple[Tuple[int, FrozenSet[ProcessorId]], ...]
    receive_omissions: Tuple[Tuple[int, FrozenSet[ProcessorId]], ...]

    def __init__(
        self,
        send_omissions: Mapping[int, Iterable[ProcessorId]]
        | Iterable[Tuple[int, Iterable[ProcessorId]]] = (),
        receive_omissions: Mapping[int, Iterable[ProcessorId]]
        | Iterable[Tuple[int, Iterable[ProcessorId]]] = (),
    ) -> None:
        object.__setattr__(
            self, "send_omissions", _canonical_omissions(send_omissions)
        )
        object.__setattr__(
            self, "receive_omissions", _canonical_omissions(receive_omissions)
        )

    def _lookup(
        self,
        entries: Tuple[Tuple[int, FrozenSet[ProcessorId]], ...],
        round_number: int,
    ) -> FrozenSet[ProcessorId]:
        for entry_round, processors in entries:
            if entry_round == round_number:
                return processors
        return frozenset()

    def sends_to(self, receiver: ProcessorId, round_number: int) -> bool:
        return receiver not in self._lookup(self.send_omissions, round_number)

    def receives_from(self, sender: ProcessorId, round_number: int) -> bool:
        return sender not in self._lookup(
            self.receive_omissions, round_number
        )

    def is_visible_within(self, horizon: int, n: int, owner: ProcessorId) -> bool:
        for entries in (self.send_omissions, self.receive_omissions):
            for entry_round, processors in entries:
                if entry_round <= horizon and (processors - {owner}):
                    return True
        return False


def _canonical_omissions(
    omissions: Mapping[int, Iterable[ProcessorId]]
    | Iterable[Tuple[int, Iterable[ProcessorId]]],
) -> Tuple[Tuple[int, FrozenSet[ProcessorId]], ...]:
    """Sorted, empty-set-free canonical form shared by the omission
    behaviours."""
    if isinstance(omissions, Mapping):
        items = omissions.items()
    else:
        items = list(omissions)
    canonical: Dict[int, FrozenSet[ProcessorId]] = {}
    for round_number, processors in items:
        if round_number < 1:
            raise ConfigurationError(
                f"omission round must be >= 1, got {round_number}"
            )
        if round_number in canonical:
            raise ConfigurationError(
                f"duplicate omission entry for round {round_number}"
            )
        processors = frozenset(processors)
        if processors:
            canonical[round_number] = processors
    return tuple(sorted(canonical.items()))


FaultyBehavior = object  # union documented below; kept loose for typing simplicity


def behavior_mode(behavior: FaultyBehavior) -> FailureMode:
    """Classify a behaviour object into its failure mode."""
    if isinstance(behavior, CrashBehavior):
        return FailureMode.CRASH
    if isinstance(behavior, OmissionBehavior):
        return FailureMode.OMISSION
    if isinstance(behavior, ReceiveOmissionBehavior):
        return FailureMode.RECEIVE_OMISSION
    if isinstance(behavior, GeneralOmissionBehavior):
        return FailureMode.GENERAL_OMISSION
    raise ConfigurationError(f"unknown faulty behaviour: {behavior!r}")


@dataclass(frozen=True)
class FailurePattern:
    """The complete faulty behaviour of all processors that fail in a run.

    Attributes:
        behaviors: Maps each *faulty* processor to its behaviour.  Processors
            not listed are nonfaulty throughout the run.  Stored canonically
            as a sorted tuple for hashability.
    """

    behaviors: Tuple[Tuple[ProcessorId, FaultyBehavior], ...] = field(default=())

    def __init__(
        self,
        behaviors: Mapping[ProcessorId, FaultyBehavior]
        | Iterable[Tuple[ProcessorId, FaultyBehavior]] = (),
    ) -> None:
        if isinstance(behaviors, Mapping):
            items = list(behaviors.items())
        else:
            items = list(behaviors)
        seen = set()
        for processor, behavior in items:
            if processor in seen:
                raise ConfigurationError(
                    f"processor {processor} listed faulty twice"
                )
            seen.add(processor)
            behavior_mode(behavior)  # validates the behaviour type
        object.__setattr__(
            self, "behaviors", tuple(sorted(items, key=lambda kv: kv[0]))
        )

    @cached_property
    def faulty(self) -> FrozenSet[ProcessorId]:
        """The set of processors that are faulty in this pattern (computed
        on first read and kept outside the fields)."""
        return frozenset(processor for processor, _ in self.behaviors)

    def behavior_of(self, processor: ProcessorId) -> Optional[FaultyBehavior]:
        """The behaviour of *processor*, or ``None`` if it is nonfaulty."""
        for candidate, behavior in self.behaviors:
            if candidate == processor:
                return behavior
        return None

    def nonfaulty(self, n: int) -> FrozenSet[ProcessorId]:
        """The set of nonfaulty processors in an ``n``-processor system."""
        return frozenset(range(n)) - self.faulty

    def num_faulty(self) -> int:
        """How many processors fail under this pattern."""
        return len(self.behaviors)

    def delivered(
        self, sender: ProcessorId, receiver: ProcessorId, round_number: int
    ) -> bool:
        """Whether *sender*'s round-*round_number* message reaches *receiver*.

        A message arrives iff the sender's behaviour sends it **and** the
        receiver's behaviour receives it; nonfaulty processors do both
        unconditionally.  (Receive-side filtering only matters for the
        [PT86] extension modes — the paper's crash and sending-omission
        behaviours never drop incoming messages.)  Self-delivery is vacuous
        (a processor always knows its own state) and reported as ``True``.
        """
        if sender == receiver:
            return True
        sender_behavior = self.behavior_of(sender)
        if sender_behavior is not None and not sender_behavior.sends_to(
            receiver, round_number
        ):
            return False
        receiver_behavior = self.behavior_of(receiver)
        if receiver_behavior is not None and not receiver_behavior.receives_from(
            sender, round_number
        ):
            return False
        return True

    def validate(self, n: int, t: int) -> "FailurePattern":
        """Check this pattern against system parameters and return it.

        Raises:
            ConfigurationError: if more than ``t`` processors fail or a
                faulty processor id is outside ``range(n)``.
        """
        if self.num_faulty() > t:
            raise ConfigurationError(
                f"{self.num_faulty()} faulty processors but t={t}"
            )
        for processor, _ in self.behaviors:
            if not 0 <= processor < n:
                raise ConfigurationError(
                    f"faulty processor id {processor} outside range(0, {n})"
                )
        return self

    def mode(self) -> Optional[FailureMode]:
        """The failure mode of this pattern, ``None`` when failure-free.

        Mixed-mode patterns are rejected at construction time by
        :func:`make_pattern`; a pattern built directly from behaviours of
        different modes reports the mode of its first behaviour.
        """
        if not self.behaviors:
            return None
        return behavior_mode(self.behaviors[0][1])

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if not self.behaviors:
            return "FailurePattern(failure-free)"
        def entries(pairs):
            return ";".join(
                f"r{round_number}-{sorted(processors)}"
                for round_number, processors in pairs
            )

        parts = []
        for processor, behavior in self.behaviors:
            if isinstance(behavior, CrashBehavior):
                parts.append(
                    f"p{processor}:crash@r{behavior.crash_round}"
                    f"->{sorted(behavior.receivers)}"
                )
            elif isinstance(behavior, OmissionBehavior):
                parts.append(f"p{processor}:omit[{entries(behavior.omissions)}]")
            elif isinstance(behavior, ReceiveOmissionBehavior):
                parts.append(
                    f"p{processor}:recv-omit[{entries(behavior.omissions)}]"
                )
            else:
                parts.append(
                    f"p{processor}:gen-omit["
                    f"send:{entries(behavior.send_omissions)}|"
                    f"recv:{entries(behavior.receive_omissions)}]"
                )
        return f"FailurePattern({', '.join(parts)})"


#: The failure-free pattern, shared for convenience.
NO_FAILURES = FailurePattern(())

#: One round's deliveries: per receiver, the senders whose message reaches
#: it, ascending.
DeliveryRow = Tuple[Tuple[ProcessorId, ...], ...]


def delivery_row(
    pattern: FailurePattern, n: int, round_number: int
) -> DeliveryRow:
    """Every message of the round arrives but those a faulty processor of
    *pattern* fails to send or to receive."""
    dropped = [set() for _ in range(n)]
    for faulty, behavior in pattern.behaviors:
        for other in range(n):
            if other == faulty:
                continue
            if not behavior.sends_to(other, round_number):
                dropped[other].add(faulty)
            if not behavior.receives_from(other, round_number):
                dropped[faulty].add(other)
    return tuple(
        tuple(
            [
                sender
                for sender in range(n)
                if sender != receiver and sender not in missed
            ]
        )
        for receiver, missed in enumerate(dropped)
    )


def make_pattern(
    behaviors: Mapping[ProcessorId, FaultyBehavior],
    *,
    n: int,
    t: int,
    mode: Optional[FailureMode] = None,
) -> FailurePattern:
    """Build and fully validate a failure pattern.

    Args:
        behaviors: Faulty processor -> behaviour mapping.
        n: Number of processors in the system.
        t: Maximum number of faulty processors.
        mode: If given, every behaviour must belong to this failure mode.

    Returns:
        The validated :class:`FailurePattern`.
    """
    pattern = FailurePattern(behaviors).validate(n, t)
    if mode is not None:
        for _, behavior in pattern.behaviors:
            if behavior_mode(behavior) is not mode:
                raise ConfigurationError(
                    f"behaviour {behavior!r} is not a {mode} behaviour"
                )
    return pattern


def _truncate_behavior(
    behavior: FaultyBehavior, horizon: int
) -> FaultyBehavior:
    """*behavior* with every entry after *horizon* removed."""
    if isinstance(behavior, CrashBehavior):
        return behavior
    if isinstance(behavior, OmissionBehavior):
        return OmissionBehavior(
            [(r, s) for r, s in behavior.omissions if r <= horizon]
        )
    if isinstance(behavior, ReceiveOmissionBehavior):
        return ReceiveOmissionBehavior(
            [(r, s) for r, s in behavior.omissions if r <= horizon]
        )
    if isinstance(behavior, GeneralOmissionBehavior):
        return GeneralOmissionBehavior(
            [(r, s) for r, s in behavior.send_omissions if r <= horizon],
            [(r, s) for r, s in behavior.receive_omissions if r <= horizon],
        )
    raise ConfigurationError(f"unknown faulty behaviour: {behavior!r}")


def truncate_pattern(
    pattern: FailurePattern, horizon: int, n: int
) -> FailurePattern:
    """Restrict *pattern* to its observable prefix of length *horizon*.

    Deliveries in rounds ``1..horizon`` are identical under the original
    and the truncated pattern, and processors whose behaviour causes no
    omission within the horizon (``is_visible_within``) are dropped
    entirely — so truncating a canonical horizon-``h+1`` adversary pattern
    always lands on a canonical horizon-``h`` pattern (or ``NO_FAILURES``).
    The streaming monitor looks a live scenario up this way: its run in
    the horizon-``h`` cell is the run of the truncated pattern.
    """
    surviving = []
    for processor, behavior in pattern.behaviors:
        if not behavior.is_visible_within(horizon, n, processor):
            continue
        surviving.append((processor, _truncate_behavior(behavior, horizon)))
    if not surviving:
        return NO_FAILURES
    return FailurePattern(surviving)
