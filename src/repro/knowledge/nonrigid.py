"""Nonrigid sets of processors (paper, Section 3.1).

A *nonrigid set* ``S`` assigns to every point ``(r, m)`` a subset of the
processors.  The two instances the paper uses everywhere are:

* ``N`` — the nonfaulty processors (time-independent per run under the
  paper's EBA convention), and
* ``N ∧ A`` — nonfaulty processors whose current local state lies in a
  decision set ``A``.

Every nonrigid set computes a ``(runs, width, n)`` membership array from
the system's :class:`~repro.model.partition.SystemArrays` in one
vectorized pass, memoized on the system by cache key; the evaluators'
member limbs, the Corollary 3.3 components and the per-point member
matrix (read by explanations) all derive from it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import FrozenSet, List

import numpy as np

from ..core.decision_sets import DecisionPair
from ..model.partition import SystemArrays
from ..model.system import System


class NonrigidSet(ABC):
    """A function from points of a system to processor subsets."""

    @abstractmethod
    def cache_key(self) -> object:
        """Stable key identifying this set for evaluation caching."""

    @abstractmethod
    def _membership(self, arrays: SystemArrays) -> np.ndarray:
        """``(runs, width, n)`` bool: ``p`` ∈ S at ``(run, time)``."""

    def membership(self, system: System) -> np.ndarray:
        """The memoized membership array over *system* (read-only)."""
        return system.cached_nonrigid(
            self.cache_key(), lambda: self._membership(system.arrays())
        )

    def members_matrix(self, system: System) -> List[List[FrozenSet[int]]]:
        """The memoized member matrix ``matrix[run_index][time]``."""
        return system.cached_nonrigid(
            (self.cache_key(), "matrix"),
            lambda: _members_matrix(self.membership(system)),
        )

    def members(self, system: System, run_index: int, time: int) -> FrozenSet[int]:
        """``S(r, m)`` for the point ``(run_index, time)``."""
        return self.members_matrix(system)[run_index][time]

    def contains(
        self, system: System, run_index: int, time: int, processor: int
    ) -> bool:
        """Whether *processor* belongs to ``S(r, m)``."""
        return bool(self.membership(system)[run_index, time, processor])

    def always_empty(self, system: System) -> bool:
        """Whether ``S`` is empty at every point of *system*."""
        return not self.membership(system).any()


def _members_matrix(member: np.ndarray) -> List[List[FrozenSet[int]]]:
    """Per point, the frozenset of member processors (one shared frozenset
    per distinct membership row)."""
    runs, width, n = member.shape
    codes = (member.astype(np.int64) << np.arange(n, dtype=np.int64)).sum(
        axis=2
    )
    distinct, inverse = np.unique(codes.ravel(), return_inverse=True)
    sets = np.empty(distinct.size, dtype=object)
    sets[:] = [
        frozenset(p for p in range(n) if code >> p & 1)
        for code in distinct.tolist()
    ]
    return sets[inverse].reshape(runs, width).tolist()


def _constant(arrays: SystemArrays, processors) -> np.ndarray:
    """Membership of the same processors at every point."""
    row = np.zeros(arrays.n, dtype=bool)
    row[list(processors)] = True
    return np.broadcast_to(row, (arrays.num_runs, arrays.width, arrays.n))


class Nonfaulty(NonrigidSet):
    """The nonrigid set ``N`` of nonfaulty processors.

    Under the paper's convention for EBA a processor is nonfaulty in a run
    iff it follows the protocol throughout, so membership is constant over
    time within each run.
    """

    def cache_key(self) -> object:
        return ("nonrigid", "N")

    def _membership(self, arrays: SystemArrays) -> np.ndarray:
        return np.broadcast_to(
            arrays.nonfaulty[:, None, :],
            (arrays.num_runs, arrays.width, arrays.n),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "N"


class Everyone(NonrigidSet):
    """The constant nonrigid set of all processors (rigid ``G = {1..n}``)."""

    def cache_key(self) -> object:
        return ("nonrigid", "everyone")

    def _membership(self, arrays: SystemArrays) -> np.ndarray:
        return _constant(arrays, range(arrays.n))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "ALL"


class ConstantSet(NonrigidSet):
    """A rigid set: the same fixed group ``G`` at every point."""

    def __init__(self, processors: FrozenSet[int]) -> None:
        self.processors = frozenset(processors)

    def cache_key(self) -> object:
        return ("nonrigid", "const", tuple(sorted(self.processors)))

    def _membership(self, arrays: SystemArrays) -> np.ndarray:
        return _constant(arrays, self.processors)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"G{sorted(self.processors)}"


class NonfaultyAndDeciding(NonrigidSet):
    """The nonrigid set ``N ∧ A`` for a decision set ``A`` (paper, §4).

    ``(N ∧ A)(r, m) = { i : i ∈ N(r, m) and r_i(m) ∈ A_i }`` where ``A`` is
    either the zero- or the one-set of a :class:`DecisionPair`.
    """

    def __init__(self, pair: DecisionPair, which: str) -> None:
        if which not in ("zeros", "ones"):
            raise ValueError(f"which must be 'zeros' or 'ones', got {which!r}")
        self.pair = pair
        self.which = which
        self._states = pair.zeros if which == "zeros" else pair.ones

    def cache_key(self) -> object:
        return ("nonrigid", "N-and", self.pair.token, self.which)

    def _membership(self, arrays: SystemArrays) -> np.ndarray:
        deciding = arrays.view_flags(self._states)[arrays.views]
        return deciding & arrays.nonfaulty[:, None, :]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        symbol = "Z" if self.which == "zeros" else "O"
        return f"(N∧{symbol}[{self.pair.name}])"


#: Shared instance of ``N`` — the common case.
NONFAULTY = Nonfaulty()

#: Shared instance of the all-processors rigid set.
EVERYONE = Everyone()


def nonfaulty_and_zeros(pair: DecisionPair) -> NonrigidSet:
    """``N ∧ Z`` for a decision pair."""
    return NonfaultyAndDeciding(pair, "zeros")


def nonfaulty_and_ones(pair: DecisionPair) -> NonrigidSet:
    """``N ∧ O`` for a decision pair."""
    return NonfaultyAndDeciding(pair, "ones")
