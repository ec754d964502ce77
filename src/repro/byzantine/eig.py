"""Byzantine failures and Exponential Information Gathering (EIG).

The paper handles crash and omission failures and *conjectures* (Sections
2.1 and 7) that its techniques extend to Byzantine failures, where faulty
processors may behave arbitrarily — in particular, **lie**.  This module
provides the classical Byzantine substrate so that conjecture has something
executable to stand next to:

* a Byzantine execution loop: faulty processors' outgoing messages pass
  through an adversarial *strategy* that may forge arbitrary payloads per
  destination (equivocation included);
* the EIG protocol ([PSL80]-style, ``t + 1`` rounds): each processor grows
  a tree of claims — the entry at path ``(p_1, ..., p_k)`` is "``p_k`` said
  that ``p_{k-1}`` said that … ``p_1``'s value was ``v``" — and resolves it
  bottom-up by strict majority with a default;
* adversary strategies: silence, seeded random lying, and two-faced
  equivocation.

Classical facts reproduced by experiment E19 and the tests: EIG achieves
Byzantine agreement whenever ``n > 3t`` (e.g. ``n = 4, t = 1``), and the
bound is sharp — with ``n = 3, t = 1`` an equivocating traitor defeats the
protocol, the concrete face of the three-generals impossibility.

The module is self-contained on purpose: Byzantine *knowledge* semantics
(local states as claim-histories rather than truthful views) is a different
Kripke construction from the truthful-view systems in :mod:`repro.model`,
and conflating them would silently break the paper's theorems.  Here we
stay at the execution level, where the paper's conjecture lives.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError

ProcessorId = int
#: A claim path (p_1, ..., p_k): "p_k said that ... p_1's value was v".
Path = Tuple[ProcessorId, ...]
#: One round's payload: claimed values for every path of one tree level.
Claims = Dict[Path, int]

#: The value used when a strict majority does not exist.
DEFAULT_VALUE = 0


class ByzantineStrategy(ABC):
    """An adversarial sender: forges the outgoing claim maps arbitrarily."""

    name: str = "byzantine"

    @abstractmethod
    def corrupt(
        self,
        sender: ProcessorId,
        round_number: int,
        honest: Claims,
        destinations: Sequence[ProcessorId],
    ) -> Dict[ProcessorId, Optional[Claims]]:
        """Return per-destination payloads (``None`` = send nothing).

        *honest* is what the protocol would have sent; the strategy may
        return it, drop it, or fabricate anything with the same key shape.
        """


class HonestStrategy(ByzantineStrategy):
    """A 'Byzantine' processor that happens to behave (baseline/control)."""

    name = "honest"

    def corrupt(self, sender, round_number, honest, destinations):
        return {destination: honest for destination in destinations}


class SilentStrategy(ByzantineStrategy):
    """Send nothing, ever (Byzantine subsumes crash)."""

    name = "silent"

    def corrupt(self, sender, round_number, honest, destinations):
        return {destination: None for destination in destinations}


class RandomLiarStrategy(ByzantineStrategy):
    """Replace every claimed value with a seeded coin flip, independently
    per destination (inconsistent lying)."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.name = f"random-liar[{seed}]"

    def corrupt(self, sender, round_number, honest, destinations):
        payloads: Dict[ProcessorId, Optional[Claims]] = {}
        for destination in destinations:
            rng = random.Random(
                f"{self.seed}:{sender}:{round_number}:{destination}"
            )
            payloads[destination] = {
                path: rng.randint(0, 1) for path in honest
            }
        return payloads


class EquivocateStrategy(ByzantineStrategy):
    """Two-faced lying: claim *value_low* to the lower half of the
    destinations and *value_high* to the rest — the classic split that
    defeats three generals."""

    def __init__(self, value_low: int = 0, value_high: int = 1) -> None:
        self.value_low = value_low
        self.value_high = value_high
        self.name = f"equivocate[{value_low}/{value_high}]"

    def corrupt(self, sender, round_number, honest, destinations):
        ordered = sorted(destinations)
        half = (len(ordered) + 1) // 2
        payloads: Dict[ProcessorId, Optional[Claims]] = {}
        for index, destination in enumerate(ordered):
            value = self.value_low if index < half else self.value_high
            payloads[destination] = {path: value for path in honest}
        return payloads


@dataclass
class ByzantineResult:
    """Outcome of one Byzantine EIG execution.

    Attributes:
        values: Initial values, indexed by processor.
        faulty: The Byzantine processors.
        strategy_names: Per faulty processor, the strategy used.
        decisions: Final decisions (the faulty processors' entries are the
            outputs their — honestly executed — resolution step produced;
            meaningless for the adversary but recorded for completeness).
    """

    values: Tuple[int, ...]
    faulty: FrozenSet[ProcessorId]
    strategy_names: Dict[ProcessorId, str]
    decisions: Tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.values)

    def nonfaulty_decisions(self) -> List[int]:
        return [
            self.decisions[processor]
            for processor in range(self.n)
            if processor not in self.faulty
        ]

    def agreement_holds(self) -> bool:
        """All non-Byzantine processors decided the same value."""
        return len(set(self.nonfaulty_decisions())) <= 1

    def validity_holds(self) -> bool:
        """If the non-Byzantine processors were unanimous, they decided
        their common value."""
        nonfaulty_values = {
            self.values[processor]
            for processor in range(self.n)
            if processor not in self.faulty
        }
        if len(nonfaulty_values) != 1:
            return True
        (value,) = nonfaulty_values
        return all(
            decision == value for decision in self.nonfaulty_decisions()
        )


@lru_cache(maxsize=None)
def _tree_levels(n: int, t: int) -> Tuple[Tuple[Path, ...], ...]:
    """The paths of an ``(n, t)`` EIG tree, level by level.

    Level ``k`` lists every path of ``k`` distinct processors, the
    children of each level-``k - 1`` path contiguous and ascending, so
    the ``n - k + 1`` children of the ``i``-th path of level ``k - 1``
    are slice ``i`` of level ``k``.  The tree stops at ``t + 1`` levels
    or when a path holds every processor.
    """
    levels: List[Tuple[Path, ...]] = [((),)]
    for _ in range(min(t + 1, n)):
        levels.append(
            tuple(
                path + (child,)
                for path in levels[-1]
                for child in range(n)
                if child not in path
            )
        )
    return tuple(levels)


@lru_cache(maxsize=None)
def _positions(n: int, t: int) -> Dict[Path, int]:
    """Each path's index within its level of :func:`_tree_levels`."""
    return {
        path: index
        for level in _tree_levels(n, t)
        for index, path in enumerate(level)
    }


@lru_cache(maxsize=None)
def _relays(n: int, t: int) -> Tuple[Tuple[Dict[Path, Path], ...], ...]:
    """Per round ``r`` (index ``r - 1``) and sender, the level-``r - 1``
    paths of the ``(n, t)`` tree that do not name the sender, each mapped
    to the path a receiver stores its claim under."""
    levels = _tree_levels(n, t)
    return tuple(
        tuple(
            {
                path: path + (sender,)
                for path in (levels[k] if k < len(levels) else ())
                if sender not in path
            }
            for sender in range(n)
        )
        for k in range(t + 1)
    )


def _majority(ones: int, size: int) -> int:
    """The strict-majority value of *size* binary children, *ones* of
    them 1; the default on a tie."""
    if 2 * ones > size:
        return 1
    if 2 * ones < size:
        return 0
    return DEFAULT_VALUE


class EIGTree:
    """One processor's exponential-information-gathering tree."""

    def __init__(self, n: int, t: int) -> None:
        self.n = n
        self.t = t
        self.claims: Dict[Path, int] = {}

    def store(self, path: Path, value: int) -> None:
        if value not in (0, 1):
            value = DEFAULT_VALUE  # malformed claims collapse to default
        self.claims[path] = value

    def resolve(self, path: Path = ()) -> int:
        """Bottom-up strict-majority resolution (``newval`` in [Lynch]).

        A leaf (``t + 1`` processors, or all ``n``) resolves to its
        claim, the default if none arrived; an inner path to the strict
        majority of its children, the default on a tie.  The leaves
        below *path* are one contiguous slice of the last level, and each
        level up folds consecutive runs of ``n - k`` children.
        """
        levels = _tree_levels(self.n, self.t)
        try:
            position = _positions(self.n, self.t)[path]
        except KeyError:
            raise ConfigurationError(
                f"{path!r} is not a path of the n={self.n}, t={self.t} "
                "EIG tree"
            ) from None
        depth = len(levels) - 1
        width = len(levels[depth]) // len(levels[len(path)])
        claims = self.claims
        values = [
            claims.get(leaf, DEFAULT_VALUE)
            for leaf in levels[depth][position * width:(position + 1) * width]
        ]
        for k in range(depth - 1, len(path) - 1, -1):
            size = self.n - k
            values = [
                _majority(sum(values[start:start + size]), size)
                for start in range(0, len(values), size)
            ]
        return values[0]


def run_eig(
    values: Sequence[int],
    strategies: Dict[ProcessorId, ByzantineStrategy],
    t: int,
) -> ByzantineResult:
    """Execute EIG for ``t + 1`` rounds under a Byzantine adversary.

    Args:
        values: Initial (binary) values.
        strategies: Byzantine processor -> lying strategy; at most *t*.
        t: The fault bound the protocol is configured for.
    """
    n = len(values)
    if n < 2:
        raise ConfigurationError("need n >= 2 processors")
    if len(strategies) > t:
        raise ConfigurationError(
            f"{len(strategies)} Byzantine processors exceeds t={t}"
        )
    for processor in strategies:
        if not 0 <= processor < n:
            raise ConfigurationError(
                f"Byzantine processor id {processor} outside range(0, {n})"
            )
    for value in values:
        if value not in (0, 1):
            raise ConfigurationError(f"initial values must be binary: {value}")

    trees = [EIGTree(n, t) for _ in range(n)]
    relays = _relays(n, t)
    # Level-0 claim: each processor's own value, under the empty path.
    outgoing: List[Claims] = [{(): values[processor]} for processor in range(n)]

    for round_number in range(1, t + 2):
        inboxes: List[Dict[ProcessorId, Claims]] = [dict() for _ in range(n)]
        for sender in range(n):
            destinations = [p for p in range(n) if p != sender]
            honest = outgoing[sender]
            if sender in strategies:
                payloads = strategies[sender].corrupt(
                    sender, round_number, honest, destinations
                )
            else:
                payloads = {
                    destination: honest for destination in destinations
                }
            for destination in destinations:
                payload = payloads.get(destination)
                if payload is not None:
                    inboxes[destination][sender] = payload

        next_outgoing: List[Claims] = [dict() for _ in range(n)]
        for receiver in range(n):
            # This round's level of the receiver's tree, in arrival order:
            # what it relays next round.
            received_level: Claims = {}
            # Following [Lynch], every processor also "delivers to itself":
            # its own honest relay decorates the paths ending in its own
            # label.  (Even a Byzantine processor's tree gets its honest
            # self-view — only its *outgoing* messages lie.)
            deliveries = dict(inboxes[receiver])
            deliveries[receiver] = outgoing[receiver]
            for sender, payload in deliveries.items():
                children = relays[round_number - 1][sender]
                for path, value in payload.items():
                    # A well-formed round-r payload carries level-(r-1)
                    # paths of distinct processors excluding the sender;
                    # anything else is adversarial noise and is dropped.
                    child = children.get(path)
                    if child is None:
                        continue
                    # Malformed claims collapse to default, as in store.
                    received_level[child] = (
                        value if value in (0, 1) else DEFAULT_VALUE
                    )
            trees[receiver].claims.update(received_level)
            next_outgoing[receiver] = received_level
        outgoing = next_outgoing

    decisions = tuple(tree.resolve(()) for tree in trees)
    return ByzantineResult(
        values=tuple(values),
        faulty=frozenset(strategies),
        strategy_names={
            processor: strategy.name
            for processor, strategy in strategies.items()
        },
        decisions=decisions,
    )
