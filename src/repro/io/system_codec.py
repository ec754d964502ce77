"""Materialize an enumerated system from its stored arrays.

A cached exhaustive cell is stored as one versioned ``.npz`` — its
:class:`~repro.model.partition.SystemArrays`, built arrays-first by
:mod:`repro.model.fastbuild` and validated on every load
(:meth:`~repro.model.partition.SystemArrays.validate`).
:func:`system_from_arrays` turns those arrays into the
:class:`~repro.model.system.System` object graph that simulation and
explanation read; the system keeps the arrays, which the evaluators
read.  The result equals a fresh
:func:`~repro.model.system.build_system` of the cell: same run order,
same scenarios, same view ids and :class:`~repro.model.views.ViewTable`
entries, same state and scenario indexes (``tests/test_system_codec.py``
checks this across all three exhaustive modes).

Nothing is re-simulated:

* each :class:`~repro.model.views.ViewInfo` is read off the view's first
  occurrence — its owner's initial value in that run, and the senders
  delivered to the owner in that round with their views one time
  earlier;
* the state index comes from one stable argsort of the view-id matrix;
* runs of one failure pattern share its nonfaulty set and per-round
  delivery tuples.
"""

from __future__ import annotations

import gc
import itertools
from typing import List

import numpy as np

from ..errors import ConfigurationError
from ..model.adversary import exhaustive_adversary
from ..model.config import all_configurations
from ..model.failures import FailureMode
from ..model.partition import SystemArrays
from ..model.runs import Run
from ..model.system import System
from ..model.views import ViewInfo, ViewTable


def system_from_arrays(arrays: SystemArrays) -> System:
    """The :class:`System` stored as *arrays*.

    *arrays* must be an exhaustive cell that passed
    :meth:`SystemArrays.validate`; the materializer relies on the
    invariants it checks.
    """
    # Hundreds of thousands of acyclic objects are allocated below; the
    # cyclic collector's passes over them would double the wall time.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _materialize(arrays)
    finally:
        if enabled:
            gc.enable()


def _materialize(arrays: SystemArrays) -> System:
    mode = FailureMode(arrays.mode)
    n, horizon, width = arrays.n, arrays.horizon, arrays.width
    configs = list(all_configurations(n))
    patterns = list(
        exhaustive_adversary(mode, n, arrays.t, horizon).patterns()
    )
    if arrays.num_runs != len(configs) * len(patterns):
        raise ConfigurationError(
            f"{arrays.num_runs} runs stored, the cell has "
            f"{len(configs)} x {len(patterns)}"
        )
    # Positions of the raveled (runs, width, n) view matrix, grouped by
    # view id; within a group in scan order, so a group's first position
    # is the view's first occurrence.
    flat = arrays.views.reshape(-1)
    order = np.argsort(flat, kind="stable")
    ends = np.cumsum(np.bincount(flat, minlength=arrays.num_views))
    starts = np.concatenate(([0], ends[:-1]))
    table = _view_table(arrays, order[starts])

    points = np.fromiter(
        itertools.product(range(arrays.num_runs), range(width)),
        dtype=object,
        count=arrays.num_points,
    )
    members = points[order // n].tolist()
    state_index = {
        view: members[start:end]
        for view, (start, end) in enumerate(
            zip(starts.tolist(), ends.tolist())
        )
    }

    rows = list(map(tuple, arrays.views.reshape(-1, n).tolist()))
    per_pattern = []
    processors = range(n)
    for pattern, nonfaulty, rounds in zip(
        patterns,
        arrays.nonfaulty[: len(patterns)].tolist(),
        arrays.deliveries[: len(patterns)].tolist(),
    ):
        per_pattern.append(
            (
                pattern,
                frozenset(p for p in processors if nonfaulty[p]),
                [
                    tuple(
                        frozenset(
                            s for s in processors if s != receiver and heard[s]
                        )
                        for receiver, heard in enumerate(per_receiver)
                    )
                    for per_receiver in rounds
                ],
            )
        )
    runs: List[Run] = []
    scenario_index = {}
    for config in configs:
        for pattern, nonfaulty, deliveries in per_pattern:
            base = len(runs) * width
            scenario_index[(config, pattern)] = len(runs)
            runs.append(
                Run(
                    config=config,
                    pattern=pattern,
                    horizon=horizon,
                    views=rows[base : base + width],
                    nonfaulty=nonfaulty,
                    deliveries=list(deliveries),
                )
            )
    return System(
        n,
        arrays.t,
        horizon,
        runs,
        table,
        mode,
        indexes=(state_index, scenario_index),
        arrays=arrays,
    )


def _view_table(arrays: SystemArrays, first) -> ViewTable:
    """The interned table, each view read off its first occurrence
    (*first*: its position in the raveled view matrix, per view id)."""
    n = arrays.n
    run, rest = np.divmod(first, arrays.width * n)
    time, owner = np.divmod(rest, n)
    values = arrays.init[run, owner].tolist()
    heard_from: List[tuple] = [()] * arrays.num_views
    nodes = np.flatnonzero(time > 0)
    if nodes.size:
        node_run, node_owner = run[nodes], owner[nodes]
        node_round = time[nodes] - 1
        delivered = arrays.deliveries[node_run, node_round, node_owner]
        delivered[np.arange(nodes.size), node_owner] = False
        carried = arrays.views[node_run, node_round]
        for view, senders, seen in zip(
            nodes.tolist(), delivered.tolist(), carried.tolist()
        ):
            heard_from[view] = tuple(
                [(s, seen[s]) for s in range(n) if senders[s]]
            )
    infos = [
        ViewInfo(
            view_id=view,
            processor=processor,
            time=depth,
            initial_value=value,
            previous=None if previous < 0 else previous,
            heard_from=heard,
        )
        for view, (processor, depth, value, previous, heard) in enumerate(
            zip(
                owner.tolist(),
                time.tolist(),
                values,
                arrays.prev.tolist(),
                heard_from,
            )
        )
    ]
    return ViewTable.from_infos(infos)
