"""A cell's arrays, and the vectorized passes the evaluators run on them.

:class:`SystemArrays` is a system's compact, numpy-native form (view-id
matrix, per-view owner/time/parent, initial values, nonfaulty sets,
delivery tensors).  It is the one stored form of a cached cell: one
versioned ``.npz`` per cell, managed by
:class:`~repro.model.provider.SystemProvider`, over which
:mod:`repro.io.system_codec` wraps the ``System``.

The module-level passes read those arrays: Corollary 3.3 reachability
components (:func:`reachability_labels`, :func:`component_holds`) and
the first-firing scan of a decision pair (:func:`first_fire_times`,
:func:`fired_views`).
"""

from __future__ import annotations

import json
from typing import Iterable, List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from .adversary import exhaustive_adversary
from .failures import FailureMode

#: Format stamp of the stored ``.npz`` cell.
ARRAYS_VERSION = 1


# -- run-level passes ------------------------------------------------------


def component_holds(labels, phi):
    """Per run, whether run-level *phi* (bool per run) holds throughout
    the run's component.

    *labels* are component labels that are run indices (as
    :func:`reachability_labels` gives them); label ``-1`` (no member
    occurrence in the run) is vacuously true — the contract of
    :func:`repro.knowledge.semantics.eval_continual_common_components`.
    """
    labels = np.asarray(labels, dtype=np.int64)
    labelled = labels >= 0
    failed = np.zeros(labels.size, dtype=bool)
    failed[labels[labelled & ~np.asarray(phi, dtype=bool)]] = True
    holds = ~labelled
    holds[labelled] = ~failed[labels[labelled]]
    return holds


def sorted_unique(values):
    """The distinct values of *values*, ascending (``np.unique``'s output).

    Sorts and drops repeats: numpy 2's bare 1-D ``np.unique`` takes a
    hash path that is 25–30x slower on large integer arrays.  Takes
    :func:`row_keys` too, which lists distinct rows without the
    row-wise form of ``np.unique``, whose first call imports
    ``numpy.ma``.
    """
    ordered = np.sort(np.asarray(values).ravel())
    if ordered.size > 1:
        keep = np.empty(ordered.size, dtype=bool)
        keep[0] = True
        keep[1:] = ordered[1:] != ordered[:-1]
        ordered = ordered[keep]
    return ordered


def row_keys(rows):
    """One void scalar per row of a 2-D array, equal where the rows are.

    Sorting, ``np.unique`` and ``!=`` then treat each row as one value,
    ordered by its bytes.
    """
    rows = np.ascontiguousarray(rows)
    return rows.view(
        np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))
    ).ravel()


def reachability_labels(num_runs: int, runs, nodes, num_nodes: int):
    """Connected components of a run/node incidence (Corollary 3.3).

    Incidence ``k`` joins run ``runs[k]`` to node ``nodes[k]`` (a local
    state, or a state group); two runs are connected when they share a
    node.  Min-label propagation with pointer jumping: a sweep hands each
    node the smallest label of its runs and each run the smallest label
    of its nodes, then every label jumps to its label's label until
    stable; sweeps repeat until one changes nothing.  Returns per-run
    labels — each component labelled by its smallest run — with ``-1``
    for runs on no incidence.
    """
    runs = np.asarray(runs, dtype=np.int64)
    nodes = np.asarray(nodes, dtype=np.int64)
    labels = np.arange(num_runs, dtype=np.int64)
    node_min = np.empty(num_nodes, dtype=np.int64)
    while runs.size:
        node_min.fill(num_runs)
        np.minimum.at(node_min, nodes, labels[runs])
        swept = labels.copy()
        np.minimum.at(swept, runs, node_min[nodes])
        jumped = swept[swept]
        while (jumped != swept).any():
            swept = jumped
            jumped = swept[swept]
        if (swept == labels).all():
            break
        labels = swept
    touched = np.zeros(num_runs, dtype=bool)
    touched[runs] = True
    labels[~touched] = -1
    return labels


def first_fire_times(views, zero_flags, one_flags):
    """First decisions of a decision pair, read off a view-id matrix.

    *views* is ``(runs, width, n)``; the owner of a view decides 0 (1)
    where *zero_flags* (*one_flags*), indexed by view id, is set.
    Returns ``(value, time, tie)``, each ``(runs, n)``: the value of the
    processor's first decision (``-1`` if it never enters either set;
    ``0`` when both are first entered at once), its time, and whether
    both sets were first entered at that time.
    """
    runs, width, n = views.shape
    fz = np.full((runs, n), width, dtype=np.int64)
    fo = np.full((runs, n), width, dtype=np.int64)
    for level in range(width - 1, -1, -1):
        column = views[:, level]
        fz[zero_flags[column]] = level
        fo[one_flags[column]] = level
    time = np.minimum(fz, fo)
    value = np.where(fz <= fo, 0, 1).astype(np.int8)
    value[time == width] = -1
    return value, time, (fz == fo) & (time < width)


def fired_views(views, value, time) -> Tuple[List[int], List[int]]:
    """The distinct views at which decisions of *value* / *time* (from
    :func:`first_fire_times` over *views*) fire: ``(zero, one)`` sorted
    trigger lists."""
    at = np.take_along_axis(
        views, np.minimum(time, views.shape[1] - 1)[:, None, :], axis=1
    )[:, 0, :]
    return (
        sorted_unique(at[value == 0]).tolist(),
        sorted_unique(at[value == 1]).tolist(),
    )


# -- the stored cell --------------------------------------------------------


class SystemArrays:
    """An enumerated system as numpy arrays (what the builder emits).

    Attributes:

    * ``views`` — ``(runs, horizon+1, n)`` int32, the view id at point
      ``(run, time)`` for each processor; position ``run * width + time``
      is the chunked kernel's bit layout.
    * ``owner`` / ``vtime`` / ``prev`` — per view id: owning processor,
      depth, and the owner's view one round earlier (``-1`` at time 0).
    * ``init`` — ``(runs, n)`` int8 initial values.
    * ``nonfaulty`` — ``(runs, n)`` bool membership matrix.
    * ``deliveries`` — ``(runs, horizon, n, n)`` bool;
      ``deliveries[r, m-1, receiver, sender]`` says the round-``m``
      message arrived (diagonal forced true — self-delivery is vacuous).
    * ``occurs`` — per view id, whether it occurs at any point.
    """

    __slots__ = (
        "mode",
        "n",
        "t",
        "horizon",
        "num_runs",
        "width",
        "num_views",
        "views",
        "owner",
        "vtime",
        "prev",
        "init",
        "nonfaulty",
        "deliveries",
        "occurs",
        "_time_levels",
    )

    def __init__(
        self,
        *,
        mode: str,
        n: int,
        t: int,
        horizon: int,
        num_views: int,
        views,
        owner,
        vtime,
        prev,
        init,
        nonfaulty,
        deliveries,
        occurs,
    ) -> None:
        self.mode = mode
        self.n = n
        self.t = t
        self.horizon = horizon
        self.width = horizon + 1
        self.num_runs = len(views)
        self.num_views = num_views
        self.views = views
        self.owner = owner
        self.vtime = vtime
        self.prev = prev
        self.init = init
        self.nonfaulty = nonfaulty
        self.deliveries = deliveries
        self.occurs = occurs
        self._time_levels: Optional[List[object]] = None

    # -- npz round-trip ----------------------------------------------------

    def save(self, path: str) -> None:
        """Write the cell as one uncompressed ``.npz``.

        Deflating the members took longer than building the cell does;
        :meth:`load` reads compressed files as well."""
        meta = json.dumps(
            {
                "arrays_version": ARRAYS_VERSION,
                "mode": self.mode,
                "n": self.n,
                "t": self.t,
                "horizon": self.horizon,
                "num_views": self.num_views,
            }
        )
        np.savez(
            path,
            meta=np.frombuffer(meta.encode("utf-8"), dtype=np.uint8),
            views=self.views,
            owner=self.owner,
            vtime=self.vtime,
            prev=self.prev,
            init=self.init,
            nonfaulty=self.nonfaulty,
            deliveries=self.deliveries,
            occurs=self.occurs,
        )

    @classmethod
    def load(cls, path: str) -> "SystemArrays":
        """Read a cell written by :meth:`save`; raises on a version
        mismatch (:meth:`validate` checks the rest)."""
        with np.load(path, allow_pickle=False) as bundle:
            meta = json.loads(bytes(bundle["meta"]).decode("utf-8"))
            if meta.get("arrays_version") != ARRAYS_VERSION:
                raise ConfigurationError(
                    f"{path} has arrays_version "
                    f"{meta.get('arrays_version')!r}, need {ARRAYS_VERSION}"
                )
            return cls(
                mode=meta["mode"],
                n=meta["n"],
                t=meta["t"],
                horizon=meta["horizon"],
                num_views=meta["num_views"],
                views=bundle["views"],
                owner=bundle["owner"],
                vtime=bundle["vtime"],
                prev=bundle["prev"],
                init=bundle["init"],
                nonfaulty=bundle["nonfaulty"],
                deliveries=bundle["deliveries"],
                occurs=bundle["occurs"],
            )

    def validate(self, mode: str, n: int, t: int, horizon: int) -> None:
        """Raise :class:`ConfigurationError` unless these arrays are the
        exhaustive cell ``(mode, n, t, horizon)``.

        Vectorized checks, so a foreign or tampered file fails closed
        instead of answering for another cell: the meta against the
        request; every array's shape and dtype; view ids in range, owned
        by their column's processor, at their row's time, chained to the
        owner's previous view, all occurring, numbered by first
        appearance; the runs laid out as the exhaustive enumeration lays
        them out (configurations outer, patterns inner — ``2**n`` times
        the pattern count); and the ids an exact interning of the runs'
        states.  Arrays that pass are the cell ``fastbuild`` builds.
        """
        from . import fastbuild

        found = (self.mode, self.n, self.t, self.horizon)
        if found != (mode, n, t, horizon):
            raise ConfigurationError(
                f"arrays hold cell {found}, need {(mode, n, t, horizon)}"
            )
        # Raises for a cell no exhaustive enumeration covers.
        exhaustive_adversary(FailureMode(mode), n, t, horizon)
        deliveries, nonfaulty = fastbuild.pattern_tensors(
            FailureMode(mode), n, t, horizon
        )
        configs = 1 << n
        runs = configs * len(deliveries)
        width, num_views = horizon + 1, self.num_views
        for name, shape, dtype in (
            ("views", (runs, width, n), np.int32),
            ("owner", (num_views,), np.int32),
            ("vtime", (num_views,), np.int16),
            ("prev", (num_views,), np.int32),
            ("init", (runs, n), np.int8),
            ("nonfaulty", (runs, n), np.bool_),
            ("deliveries", (runs, horizon, n, n), np.bool_),
            ("occurs", (num_views,), np.bool_),
        ):
            array = getattr(self, name)
            if array.shape != shape or array.dtype != dtype:
                raise ConfigurationError(
                    f"{name} is {array.dtype}{array.shape}, "
                    f"need {np.dtype(dtype)}{shape}"
                )
        ids = self.views
        if ids.min() < 0 or ids.max() >= num_views:
            raise ConfigurationError("view id out of range")
        if (self.owner[ids] != np.arange(n)).any():
            raise ConfigurationError("view owned by the wrong processor")
        if (self.vtime[ids] != np.arange(width)[:, None]).any():
            raise ConfigurationError("view at the wrong time")
        if (self.prev[ids[:, 0]] != -1).any() or (
            self.prev[ids[:, 1:]] != ids[:, :-1]
        ).any():
            raise ConfigurationError("view not chained to its predecessor")
        # Dense first-appearance ids: in scan order every id is one already
        # seen (at most the running maximum) or the next new one.
        scan = ids.ravel()
        running = np.maximum.accumulate(scan)
        if (
            scan[0] != 0
            or running[-1] != num_views - 1
            or (scan[1:] > running[:-1] + 1).any()
        ):
            raise ConfigurationError("ids not numbered by first appearance")
        if not self.occurs.all():
            raise ConfigurationError("occurs misses an occurring view")
        procs = np.arange(n)
        deliveries[:, :, procs, procs] = True
        values = (np.arange(configs)[:, None] >> (n - 1 - procs)) & 1
        if (
            (self.init.reshape(configs, -1, n) != values[:, None, :]).any()
            or (self.nonfaulty.reshape(configs, -1, n) != nonfaulty).any()
            or (
                self.deliveries.reshape((configs,) + deliveries.shape)
                != deliveries
            ).any()
        ):
            raise ConfigurationError(
                "runs not in the exhaustive enumeration's order"
            )
        # The ids intern the runs' states: all occurrences of a view hold
        # one state (the initial value at time 0, else the views
        # delivered one round earlier), and distinct views of one owner,
        # time and predecessor hold distinct states.
        value = np.zeros(num_views, dtype=np.int8)
        value[ids[:, 0]] = self.init
        delivered = self.deliveries.copy()
        delivered[:, :, procs, procs] = False
        senders = (ids[:, :-1, None, :] + 1) * delivered
        heard = np.zeros((num_views, n), dtype=np.int32)
        heard[ids[:, 1:]] = senders
        if (value[ids[:, 0]] != self.init).any() or (
            heard[ids[:, 1:]] != senders
        ).any():
            raise ConfigurationError("a view id holds two states")
        states = np.column_stack(
            (self.owner, self.vtime, self.prev, value, heard)
        )
        if len(sorted_unique(row_keys(states))) != num_views:
            raise ConfigurationError("a state holds two view ids")

    # -- run-level facts ---------------------------------------------------

    def nonfaulty_of(self, run_index: int) -> List[int]:
        """The nonfaulty processors of one run."""
        row = self.nonfaulty[run_index]
        return [p for p in range(self.n) if row[p]]

    # -- recall closure ----------------------------------------------------

    def view_flags(self, views: Iterable[int]):
        """Membership in *views* as a flag per view id of this cell.

        Ids the cell does not number (a pair built over a larger shared
        :class:`~repro.model.views.ViewTable`) are ignored: no point of
        the cell holds them.
        """
        ids = np.fromiter(views, dtype=np.int64)
        flags = np.zeros(self.num_views, dtype=bool)
        flags[ids[(ids >= 0) & (ids < self.num_views)]] = True
        return flags

    def recall_closure(self, trigger_views: Iterable[int]) -> List[int]:
        """Occurring views closed under recall over the triggers.

        Same contract as
        :func:`repro.core.decision_sets.close_under_recall`: a view is
        in the closure iff it or any ancestor (through ``prev``) is a
        trigger.  Vectorized by time level — each level ORs in its
        parents' already-final flags.
        """
        closed = self.view_flags(trigger_views)
        if self._time_levels is None:
            self._time_levels = [
                np.flatnonzero(self.vtime == level)
                for level in range(self.width)
            ]
        for level in range(1, self.width):
            level_views = self._time_levels[level]
            if level_views.size == 0:
                continue
            parents = self.prev[level_views]
            closed[level_views] |= closed[parents]
        return np.flatnonzero(closed & self.occurs).tolist()
