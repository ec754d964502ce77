"""Per-point oracles for the evaluators that read the view-id matrix.

Production computes nonrigid membership, Corollary 3.3 components and
FIP first decisions in vectorized passes over a system's
:class:`~repro.model.partition.SystemArrays`.  The functions here are the
per-point walks over the object graph (runs, the same-state index, the
view table) that those passes replaced, kept as the differential oracle:

* :func:`state_index`, :func:`scenario_index` — the per-point and
  per-run walks that ``System.same_state_points`` and
  ``System.run_index_for`` replace;
* :func:`members_matrix` — the member-matrix scatters of ``N``,
  ``EVERYONE``, constant sets and ``N ∧ A``;
* :func:`components` — the Corollary 3.3 union-find over the same-state
  index;
* :func:`first_times`, :func:`decision_for`, :func:`conflicts`,
  :func:`sticky_pair` — the reference firing-table scan of
  ``FIP(Z, O)`` and what it derives.

:func:`verdict_digest` is the served verdict digest as first written,
one JSON token per point, which ``repro.serve.session.verdict_digest``
renders from the packed bits instead.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.core.decision_sets import DecisionPair, close_under_recall
from repro.knowledge.nonrigid import (
    ConstantSet,
    Everyone,
    Nonfaulty,
    NonfaultyAndDeciding,
    NonrigidSet,
)

Matrix = List[List[FrozenSet[int]]]


# -- indexes ------------------------------------------------------------------


def state_index(system) -> Dict[int, List[Tuple[int, int]]]:
    """View id -> the points holding it, both in scan order (run, time,
    processor)."""
    index: Dict[int, List[Tuple[int, int]]] = {}
    for run_index, run in enumerate(system.runs):
        for time, row in enumerate(run.views):
            for view in row:
                index.setdefault(view, []).append((run_index, time))
    return index


def scenario_index(system) -> Dict[tuple, int]:
    """``(config, pattern)`` -> run index."""
    return {run.scenario_key(): index for index, run in enumerate(system.runs)}


# -- nonrigid membership ------------------------------------------------------


def members_matrix(system, nonrigid: NonrigidSet) -> Matrix:
    """``matrix[run][time]``: the members of *nonrigid* at each point."""
    width = system.horizon + 1
    if isinstance(nonrigid, Nonfaulty):
        return [[run.nonfaulty] * width for run in system.runs]
    if isinstance(nonrigid, Everyone):
        everyone = frozenset(range(system.n))
        return [[everyone] * width for _ in system.runs]
    if isinstance(nonrigid, ConstantSet):
        return [[nonrigid.processors] * width for _ in system.runs]
    if isinstance(nonrigid, NonfaultyAndDeciding):
        # Each occurring view in A deposits its nonfaulty owner at the
        # view's occurrence points.
        pair = nonrigid.pair
        states = pair.zeros if nonrigid.which == "zeros" else pair.ones
        empty: FrozenSet[int] = frozenset()
        matrix = [[empty] * width for _ in system.runs]
        for view, points in state_index(system).items():
            if view not in states:
                continue
            owner = system.table.info(view).processor
            for run_index, time in points:
                if owner in system.runs[run_index].nonfaulty:
                    row = matrix[run_index]
                    row[time] = row[time] | frozenset((owner,))
        return matrix
    raise TypeError(f"no oracle for {nonrigid!r}")


# -- Corollary 3.3 components -------------------------------------------------


class UnionFind:
    """Minimal union-find over run indices (path halving + union by size)."""

    def __init__(self, size: int) -> None:
        self.parent = list(range(size))
        self.size = [1] * size

    def find(self, item: int) -> int:
        parent = self.parent
        while parent[item] != item:
            parent[item] = parent[parent[item]]
            item = parent[item]
        return item

    def union(self, a: int, b: int) -> None:
        root_a, root_b = self.find(a), self.find(b)
        if root_a == root_b:
            return
        if self.size[root_a] < self.size[root_b]:
            root_a, root_b = root_b, root_a
        self.parent[root_b] = root_a
        self.size[root_a] += self.size[root_b]


def components(system, nonrigid: NonrigidSet) -> List[int]:
    """Per-run component representative of the S-□-reachability relation,
    ``-1`` for runs with no ``S`` occurrence.

    Walks the same-state index, linking every run in a view's occurrence
    list — restricted to points where the view's owner is a member — to
    the first such run.
    """
    members = members_matrix(system, nonrigid)
    uf = UnionFind(len(system.runs))
    has_occurrence = [False] * len(system.runs)
    for view, points in state_index(system).items():
        owner = system.table.info(view).processor
        anchor = -1
        for run_index, time in points:
            if owner in members[run_index][time]:
                has_occurrence[run_index] = True
                if anchor < 0:
                    anchor = run_index
                else:
                    uf.union(anchor, run_index)
    return [
        uf.find(run_index) if has_occurrence[run_index] else -1
        for run_index in range(len(system.runs))
    ]


# -- FIP(Z, O) ----------------------------------------------------------------

FirstTimes = List[List[Tuple[Optional[int], Optional[int]]]]


def first_times(system, pair: DecisionPair) -> FirstTimes:
    """Per ``(run, processor)``: the zero/one firing times at the first
    time either set is entered (``None`` for a set not entered then)."""
    table: FirstTimes = []
    for run in system.runs:
        row = []
        for processor in range(system.n):
            zero_time: Optional[int] = None
            one_time: Optional[int] = None
            for time in range(system.horizon + 1):
                view = run.view(processor, time)
                if pair.decides_zero(view):
                    zero_time = time
                if pair.decides_one(view):
                    one_time = time
                if zero_time is not None or one_time is not None:
                    break
            row.append((zero_time, one_time))
        table.append(row)
    return table


def decision_for(times: FirstTimes, run_index: int, processor: int):
    """The first decision ``(value, time)``, ties won by 0, or ``None``."""
    zero_time, one_time = times[run_index][processor]
    if zero_time is not None:
        return (0, zero_time)
    if one_time is not None:
        return (1, one_time)
    return None


def conflicts(times: FirstTimes) -> List[Tuple[int, int, int]]:
    """``(run, processor, time)`` where both sets are first entered at once."""
    return [
        (run_index, processor, zero_time)
        for run_index, row in enumerate(times)
        for processor, (zero_time, one_time) in enumerate(row)
        if zero_time is not None and zero_time == one_time
    ]


def sticky_pair(system, pair: DecisionPair) -> Tuple[frozenset, frozenset]:
    """The zero and one sets of the "decides or has decided" pair: the
    first-decision views, closed under recall over the view table."""
    times = first_times(system, pair)
    zero_triggers, one_triggers = [], []
    for run_index, run in enumerate(system.runs):
        for processor in range(system.n):
            record = decision_for(times, run_index, processor)
            if record is not None:
                value, time = record
                sink = zero_triggers if value == 0 else one_triggers
                sink.append(run.view(processor, time))
    states = list(system.occurring_views())
    return (
        close_under_recall(zero_triggers, states, system.table),
        close_under_recall(one_triggers, states, system.table),
    )


# -- served verdict digest ----------------------------------------------------


def verdict_digest(truth) -> str:
    """SHA-256 of the compact JSON of the assignment's per-run rows."""
    blob = json.dumps(truth.to_rows(), separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
