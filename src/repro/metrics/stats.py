"""Decision-time and message-complexity statistics.

Summaries over :class:`~repro.core.outcomes.ProtocolOutcome` objects and
:class:`~repro.sim.trace.Trace` lists, used by the experiment harness to
print the paper-style comparison rows (who decides when, by how much one
protocol beats another, how many messages each costs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.outcomes import ProtocolOutcome
from ..sim.trace import Trace


@dataclass(frozen=True)
class DecisionTimeStats:
    """Distribution summary of nonfaulty decision times.

    Attributes:
        protocol_name: Whose decisions were summarized.
        count: Number of (run, nonfaulty processor) decision samples.
        undecided: Samples with no decision within the horizon.
        mean: Mean decision time over decided samples (``None`` if none).
        maximum / minimum: Extremes over decided samples.
        histogram: time -> number of decisions at that time.
    """

    protocol_name: str
    count: int
    undecided: int
    mean: Optional[float]
    maximum: Optional[int]
    minimum: Optional[int]
    histogram: Tuple[Tuple[int, int], ...]

    def histogram_dict(self) -> Dict[int, int]:
        return dict(self.histogram)


def decision_time_stats(outcome: ProtocolOutcome) -> DecisionTimeStats:
    """Summarize nonfaulty decision times of *outcome*."""
    times = np.array(outcome.decision_times(), dtype=np.int64)
    undecided = outcome.undecided_count()
    moments, counts = np.unique(times, return_counts=True)
    decided = int(times.size)
    return DecisionTimeStats(
        protocol_name=outcome.name,
        count=decided + undecided,
        undecided=undecided,
        mean=(int(times.sum()) / decided) if decided else None,
        maximum=int(moments[-1]) if decided else None,
        minimum=int(moments[0]) if decided else None,
        histogram=tuple(zip(moments.tolist(), counts.tolist())),
    )


@dataclass(frozen=True)
class MessageStats:
    """Message-complexity summary over a set of traces."""

    protocol_name: str
    runs: int
    total_sent: int
    total_delivered: int
    mean_sent_per_run: float

    @property
    def mean_delivered_per_run(self) -> float:
        return self.total_delivered / self.runs if self.runs else 0.0


def message_stats(traces: Sequence[Trace]) -> MessageStats:
    """Summarize message complexity of concrete-protocol traces."""
    total_sent = sum(trace.total_sent() for trace in traces)
    total_delivered = sum(trace.total_delivered() for trace in traces)
    runs = len(traces)
    return MessageStats(
        protocol_name=traces[0].protocol_name if traces else "-",
        runs=runs,
        total_sent=total_sent,
        total_delivered=total_delivered,
        mean_sent_per_run=total_sent / runs if runs else 0.0,
    )


def mean_decision_gap(
    slower: ProtocolOutcome, faster: ProtocolOutcome
) -> Optional[float]:
    """Mean (slower - faster) decision-time gap over shared samples.

    Only (run, processor) samples decided under *both* protocols
    contribute; a positive value means *faster* really is faster on
    average.
    """
    rows = faster.scenarios.rows_in(slower.scenarios)
    present = rows >= 0
    width = min(faster.scenarios.width, slower.scenarios.width)
    fast = faster.time[present, :width]
    slow = slower.time[rows[present], :width]
    gaps = (slow - fast)[
        faster.nonfaulty[present, :width] & (fast >= 0) & (slow >= 0)
    ]
    return int(gaps.sum()) / int(gaps.size) if gaps.size else None


def per_time_cumulative_share(
    outcome: ProtocolOutcome, max_time: int
) -> List[float]:
    """Fraction of nonfaulty decisions made by each time ``0..max_time``.

    The decision-time CDF used by the EBA-vs-SBA comparison figure
    (experiment E12).
    """
    times = np.array(outcome.decision_times(), dtype=np.int64)
    total = int(times.size) + outcome.undecided_count()
    if total == 0:
        return [0.0] * (max_time + 1)
    reached = np.searchsorted(
        np.sort(times), np.arange(max_time + 1), side="right"
    )
    return [count / total for count in reached.tolist()]
