"""Admission gate and per-query budgets for the daemon.

Requests that can neither run nor wait are **rejected at admission**
(the 429 analog: ``queue_full`` with the bound that was hit) instead of
accumulating unboundedly.  Each connection's thread runs its own
requests; :class:`AdmissionGate` lets ``--workers`` of them run at once
and at most ``--max-queue`` more wait, in arrival order.  It keeps the
``serve_queue_depth`` gauge (requests waiting for a slot) current,
counts rejections as ``serve_rejected_<cause>`` (``queue_full``,
``shutdown``), and :meth:`AdmissionGate.close` is the drain's half:
later requests are rejected, running and waiting ones finish.

:class:`QueryBudget` carries the per-query limit: ``max_points`` bounds
the size of the cell a query may evaluate over, checked against the
cell's point count before it is built, so it bounds the build's time
and memory too.  It resolves from ``REPRO_SERVE_MAX_POINTS`` when not
given.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

from .. import obs
from ..errors import ConfigurationError, ReproError

__all__ = [
    "BudgetExceeded",
    "QueryBudget",
    "AdmissionGate",
    "DEFAULT_MAX_POINTS",
    "DEFAULT_MAX_QUEUE",
]

MAX_POINTS_ENV = "REPRO_SERVE_MAX_POINTS"
MAX_QUEUE_ENV = "REPRO_SERVE_MAX_QUEUE"

#: Default point-count budget: generous enough for every experiment cell
#: in the suite (E9's heavy cell is ~1.2M points) while still bounding a
#: hostile ``(n, t, horizon)`` request.
DEFAULT_MAX_POINTS = 4_000_000

#: Default bound on requests waiting for a slot.
DEFAULT_MAX_QUEUE = 64


class BudgetExceeded(ReproError):
    """A query's cell is over its point-count budget."""

    def __init__(self, limit: str, message: str) -> None:
        super().__init__(message)
        self.limit = limit


def _env_positive(name: str, default: int) -> int:
    """*name* from the environment as a positive ``int``."""
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value <= 0:
        raise ConfigurationError(
            f"{name} must be an integer >= 1, got {raw!r}"
        )
    return value


@dataclass(frozen=True)
class QueryBudget:
    """The per-query limit the daemon enforces before evaluation."""

    max_points: int = DEFAULT_MAX_POINTS

    @staticmethod
    def resolve(max_points: Optional[int] = None) -> "QueryBudget":
        """The explicit argument, else ``REPRO_SERVE_MAX_POINTS``."""
        if max_points is None:
            max_points = _env_positive(MAX_POINTS_ENV, DEFAULT_MAX_POINTS)
        if max_points < 1:
            raise ConfigurationError(
                f"need max_points >= 1, got {max_points}"
            )
        return QueryBudget(max_points=max_points)

    def check_points(self, points: int, descriptor: str) -> None:
        """Reject a system too large for this query's budget."""
        if points > self.max_points:
            raise BudgetExceeded(
                "max_points",
                f"{descriptor} has {points} points, over the "
                f"{self.max_points}-point budget",
            )


class AdmissionGate:
    """At most *slots* requests run at once; at most *max_depth* wait.

    A request that finds a free slot and nobody waiting runs at once;
    otherwise it waits behind earlier arrivals, and :meth:`leave` hands
    the leaving request's slot straight to the oldest waiter.
    """

    def __init__(self, slots: int, max_depth: Optional[int] = None) -> None:
        if max_depth is None:
            max_depth = _env_positive(MAX_QUEUE_ENV, DEFAULT_MAX_QUEUE)
        if slots < 1:
            raise ConfigurationError(f"need slots >= 1, got {slots}")
        if max_depth < 1:
            raise ConfigurationError(f"need max_depth >= 1, got {max_depth}")
        self.slots = slots
        self.max_depth = max_depth
        self._lock = threading.Lock()
        self._running = 0
        #: One locked lock per waiting request, oldest first; releasing
        #: it is that request's turn.
        self._waiting: Deque[threading.Lock] = deque()
        self._closed = False
        self.admitted = 0
        self.rejected = 0
        # Exported from the start, not from the first request that waits.
        obs.gauge("serve_queue_depth", 0)

    def __len__(self) -> int:
        with self._lock:
            return len(self._waiting)

    @property
    def closed(self) -> bool:
        return self._closed

    def enter(self) -> Optional[float]:
        """Take a slot, waiting for it in arrival order.

        Returns the seconds waited, or ``None`` when the request is
        rejected: the gate is closed, or *max_depth* requests wait.
        """
        with self._lock:
            if self._closed:
                self.rejected += 1
                obs.count("serve_rejected_shutdown")
                return None
            if self._running < self.slots and not self._waiting:
                self._running += 1
                self.admitted += 1
                return 0.0
            if len(self._waiting) >= self.max_depth:
                self.rejected += 1
                obs.count("serve_rejected_queue_full")
                return None
            self.admitted += 1
            turn = threading.Lock()
            turn.acquire()
            self._waiting.append(turn)
            obs.gauge("serve_queue_depth", len(self._waiting))
        began = time.perf_counter()
        turn.acquire()
        return time.perf_counter() - began

    def leave(self) -> None:
        """Give up a slot: to the oldest waiter, if any."""
        with self._lock:
            if self._waiting:
                self._waiting.popleft().release()
                obs.gauge("serve_queue_depth", len(self._waiting))
            else:
                self._running -= 1

    def close(self) -> None:
        """Reject every later :meth:`enter`; waiting requests keep
        their turn, so the daemon finishes them before exiting."""
        with self._lock:
            self._closed = True

    def snapshot(self) -> dict:
        """Depth/bound/admission tallies for ``stats`` and ``healthz``."""
        with self._lock:
            return {
                "depth": len(self._waiting),
                "max_depth": self.max_depth,
                "admitted": self.admitted,
                "rejected": self.rejected,
                "closed": self._closed,
            }
