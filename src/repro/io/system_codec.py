"""Wrap a built cell as a system and build any system's object graph.

Every system is built arrays-first (:mod:`repro.model.fastbuild`).
:func:`system_from_arrays` wraps an exhaustive cell's
:class:`~repro.model.partition.SystemArrays` as a
:class:`~repro.model.system.System` without building anything: the
evaluators read the arrays, and the object graph that simulation and
explanation read — the :class:`~repro.model.runs.Run` list and the
:class:`~repro.model.views.ViewTable` — is built by the functions below
the first time something reads it (``System.runs``, ``System.table``),
for an exhaustive cell and for a restricted system alike.  What they build
equals the object-graph build that ``tests/oracles.py`` keeps as the
reference: same run order, same scenarios, same view ids and
``ViewTable`` entries (``tests/test_system_codec.py`` and
``tests/test_fastbuild.py`` check this across all three exhaustive
modes, in every access order, and on random restricted systems).

Nothing is re-simulated:

* each :class:`~repro.model.views.ViewInfo` is read off the view's first
  occurrence — its owner's initial value in that run, and the senders
  delivered to the owner in that round with their views one time
  earlier;
* runs of one failure pattern share its nonfaulty set and per-round
  delivery tuples.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..collector import gc_paused
from ..model.adversary import exhaustive_adversary
from ..model.config import InitialConfiguration, all_configurations
from ..model.failures import FailureMode, FailurePattern
from ..model.partition import SystemArrays
from ..model.runs import Run
from ..model.system import System
from ..model.views import ViewInfo, ViewTable


def system_from_arrays(arrays: SystemArrays) -> System:
    """The :class:`System` held in *arrays*, as a view over them.

    *arrays* must be an exhaustive cell as
    :func:`~repro.model.fastbuild.build_arrays` builds it.  Arrays whose
    run count is not the cell's configurations times patterns (a
    restricted system's) raise :class:`~repro.errors.ConfigurationError`.
    """
    mode = FailureMode(arrays.mode)
    n, t, horizon = arrays.n, arrays.t, arrays.horizon
    return System(
        arrays,
        configs=list(all_configurations(n)),
        patterns=list(exhaustive_adversary(mode, n, t, horizon).patterns()),
    )


def cell_runs(
    arrays: SystemArrays,
    configs: Sequence[InitialConfiguration],
    patterns: Sequence[FailurePattern],
) -> List[Run]:
    """Every run of the cell, in run order (configurations outer)."""
    n, width = arrays.n, arrays.width
    processors = range(n)
    with gc_paused():
        per_pattern = [
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
            for pattern, nonfaulty, rounds in zip(
                patterns,
                arrays.nonfaulty[: len(patterns)].tolist(),
                arrays.deliveries[: len(patterns)].tolist(),
            )
        ]
        rows = list(map(tuple, arrays.views.reshape(-1, n).tolist()))
        runs: List[Run] = []
        for config in configs:
            for pattern, nonfaulty, deliveries in per_pattern:
                base = len(runs) * width
                runs.append(
                    Run(
                        config=config,
                        pattern=pattern,
                        horizon=arrays.horizon,
                        views=rows[base : base + width],
                        nonfaulty=nonfaulty,
                        deliveries=list(deliveries),
                    )
                )
    return runs


def view_table(arrays: SystemArrays) -> ViewTable:
    """The cell's interned table, each view read off its first occurrence."""
    n = arrays.n
    # Ids are numbered by first appearance in scan order, so a position
    # holds a view's first occurrence iff it exceeds every id before it.
    scan = arrays.views.reshape(-1)
    seen = np.maximum.accumulate(scan)
    first = np.flatnonzero(np.concatenate(([True], scan[1:] > seen[:-1])))
    run, rest = np.divmod(first, arrays.width * n)
    time, owner = np.divmod(rest, n)
    values = arrays.init[run, owner].tolist()
    heard_from: List[tuple] = [()] * arrays.num_views
    nodes = np.flatnonzero(time > 0)
    with gc_paused():
        if nodes.size:
            node_run, node_owner = run[nodes], owner[nodes]
            node_round = time[nodes] - 1
            delivered = arrays.deliveries[node_run, node_round, node_owner]
            delivered[np.arange(nodes.size), node_owner] = False
            carried = arrays.views[node_run, node_round]
            for view, senders, seen_views in zip(
                nodes.tolist(), delivered.tolist(), carried.tolist()
            ):
                heard_from[view] = tuple(
                    [(s, seen_views[s]) for s in range(n) if senders[s]]
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
