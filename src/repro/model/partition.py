"""Limb-block partitions: in-kernel sharding for the chunked evaluator.

The execution engine used to shard E9 at *run* level: every worker held
the full :class:`~repro.model.system.System` (385k heavy ``Run`` objects
on the Proposition 6.3 cell — ~20s just to unpickle) and scanned its
slice of views point by point.  The chunked kernel, meanwhile, already
organizes the same information as flat limb arrays and sparse per-state
group tables.  This module closes that gap with two pieces:

* :class:`SystemArrays` — a system's compact, numpy-native form
  (view-id matrix, per-view owner/time/parent, initial values, nonfaulty
  sets, delivery tensors).  It carries everything the sharded knowledge
  sweeps need, and it is the one stored form of a cached cell: one
  versioned ``.npz`` per cell, managed by
  :class:`~repro.model.provider.SystemProvider`, over which
  :mod:`repro.io.system_codec` wraps the ``System``.  Scenario
  lookup (``run_index_of``) matches the *observable* run content —
  initial values, nonfaulty set, delivery tensor — which identifies a
  run uniquely under the canonical adversaries.

* :class:`LimbBlockPartition` — the chunked index's per-processor group
  tables (``idx`` / ``val`` / ``starts``; see
  :class:`~repro.model.chunked.ChunkedIndex`) cut into **limb blocks**:
  contiguous limb ranges, each owning every state group whose first
  entry falls inside it (a group always stays whole — its trailing
  entries may spill past the block edge, which only affects balance,
  never correctness).  A :class:`LimbBlock` descriptor is tiny and
  JSON-serializable, so shard parameters stay checkpointable while the
  heavy tables travel to forked workers copy-on-write through the worker
  context.  Per-block sweeps (believes verdicts, reachability-component
  labels, decision-state masks) are vectorized gather/segmented-reduce
  passes; per-block results are merged at the stage barrier
  (:func:`merge_component_labels` folds block-local component labels
  with a union-find over the conflicting representatives only).

Everything here is deliberately :class:`System`-free: the E9 batch plan
runs entirely on arrays, and the verdicts are bit-identical to the
monolithic evaluation because both reduce to the same group tables.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs, trace
from ..errors import ConfigurationError, EvaluationError
from .adversary import exhaustive_adversary
from .chunked import LIMB_BITS, LIMB_MASK, _bits_to_limbs, group_tables
from .failures import FailureMode

#: Target group-table entries per limb block when no explicit shard size
#: is requested; blocks are balanced by entry count, not limb count.
DEFAULT_BLOCK_ENTRIES = 1 << 18

#: Hard cap on blocks per partition (shard-id explosion guard).
MAX_BLOCKS = 64

#: Format stamp of the stored ``.npz`` cell.
ARRAYS_VERSION = 1


# -- run-level mask helpers -------------------------------------------------


def run_mask_to_limbs(mask: int, num_runs: int, width: int):
    """Spread a run-level bit mask to a point-level limb buffer.

    Bit ``r`` of *mask* becomes the full ``width``-bit window of run
    ``r`` — the limb form of a run-level truth assignment.
    """
    nlimbs = max(1, (num_runs * width + LIMB_BITS - 1) // LIMB_BITS)
    data = mask.to_bytes((num_runs + 7) // 8 or 1, "little")
    bits = np.unpackbits(
        np.frombuffer(data, dtype=np.uint8), bitorder="little"
    )[:num_runs]
    return _bits_to_limbs(np.repeat(bits, width), nlimbs)


def bools_to_mask(values) -> int:
    """Pack a boolean array into a run-level int mask."""
    packed = np.packbits(np.asarray(values, dtype=bool), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def component_holds(labels, phi):
    """Per run, whether run-level *phi* (bool per run) holds throughout
    the run's component.

    *labels* are component labels that are run indices (as
    :func:`reachability_labels` and :func:`merge_component_labels`
    give them); label ``-1`` (no member occurrence in the run) is
    vacuously true — the contract of
    :func:`repro.knowledge.semantics.eval_continual_common_components`.
    """
    labels = np.asarray(labels, dtype=np.int64)
    labelled = labels >= 0
    failed = np.zeros(labels.size, dtype=bool)
    failed[labels[labelled & ~np.asarray(phi, dtype=bool)]] = True
    holds = ~labelled
    holds[labelled] = ~failed[labels[labelled]]
    return holds


def cbox_mask_from_labels(labels, phi: int, num_runs: int) -> int:
    """Run-level ``C□`` mask from component labels and run-level φ
    (both masks: bit ``r`` is run ``r``)."""
    data = phi.to_bytes((num_runs + 7) // 8 or 1, "little")
    phi_bits = np.unpackbits(
        np.frombuffer(data, dtype=np.uint8), bitorder="little"
    )[:num_runs]
    return bools_to_mask(component_holds(labels, phi_bits))


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

    # -- shape -------------------------------------------------------------

    @property
    def num_points(self) -> int:
        return self.num_runs * self.width

    @property
    def nlimbs(self) -> int:
        return max(1, (self.num_points + LIMB_BITS - 1) // LIMB_BITS)

    @property
    def tail(self) -> int:
        rem = self.num_points % LIMB_BITS
        return LIMB_MASK if rem == 0 else (1 << rem) - 1

    # -- run-level facts ---------------------------------------------------

    def exists_mask(self, value: int) -> int:
        """Run-level mask of the paper's ∃value."""
        return bools_to_mask((self.init == value).any(axis=1))

    def nonfaulty_mask(self, processor: int) -> int:
        """Run-level mask of runs where *processor* is nonfaulty."""
        return bools_to_mask(self.nonfaulty[:, processor])

    def nonfaulty_of(self, run_index: int) -> List[int]:
        """The nonfaulty processors of one run."""
        row = self.nonfaulty[run_index]
        return [p for p in range(self.n) if row[p]]

    def view_at(self, run_index: int, time: int, processor: int) -> int:
        return int(self.views[run_index][time][processor])

    # -- scenario lookup ---------------------------------------------------

    def run_index_of(self, config, pattern) -> int:
        """The unique run matching ``(config, pattern)`` by content.

        Matches the observable run description — initial values,
        nonfaulty set and the full delivery tensor — which determines
        the run uniquely under the canonical enumerations (a behaviour
        is recoverable from the messages it drops).  Zero or multiple
        matches raise, so a content collision can never silently pick a
        wrong run.
        """
        n = self.n
        values = list(config.values)
        nonfaulty = pattern.nonfaulty(n)
        nf_row = [p in nonfaulty for p in range(n)]
        deliv = [
            [
                [
                    s == r or pattern.delivered(s, r, m + 1)
                    for s in range(n)
                ]
                for r in range(n)
            ]
            for m in range(self.horizon)
        ]
        hits = (
            (self.init == np.array(values, dtype=np.int8)).all(axis=1)
            & (self.nonfaulty == np.array(nf_row, dtype=bool)).all(axis=1)
            & (self.deliveries == np.array(deliv, dtype=bool))
            .reshape(self.num_runs, -1)
            .all(axis=1)
        )
        matches = np.flatnonzero(hits).tolist()
        if len(matches) != 1:
            raise EvaluationError(
                f"scenario lookup matched {len(matches)} runs "
                f"(config={config}, pattern={pattern})"
            )
        return int(matches[0])

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

    # -- trigger scans -----------------------------------------------------

    def first_fire_triggers(
        self,
        zeros: Iterable[int],
        ones: Iterable[int],
        run_range: Tuple[int, int],
    ) -> Tuple[List[int], List[int]]:
        """First-firing trigger views of a pair over a run range.

        The views at which each ``(run, processor)`` of the range first
        enters either set, zero winning simultaneous firings — the
        :func:`first_fire_times` scan that
        :class:`~repro.protocols.fip.FullInformationProtocol` reads its
        decisions from.
        """
        start, stop = run_range
        block = self.views[start:stop]
        value, time, _ = first_fire_times(
            block, self.view_flags(zeros), self.view_flags(ones)
        )
        return fired_views(block, value, time)

    def first_decision(
        self, run_index: int, processor: int, zeros, ones
    ) -> Optional[Tuple[int, int]]:
        """First decision of *processor* in one run (0 wins ties)."""
        column = self.views[run_index, :, processor]
        value, time, _ = first_fire_times(
            column[None, :, None],
            self.view_flags(zeros),
            self.view_flags(ones),
        )
        if value[0, 0] < 0:
            return None
        return (int(value[0, 0]), int(time[0, 0]))


# -- limb blocks ------------------------------------------------------------


@dataclass(frozen=True)
class LimbBlock:
    """Picklable descriptor of one limb block of a partition.

    ``limb_lo``/``limb_hi`` delimit the block's limb range; a block owns
    every state group whose *first* entry limb falls in the range (the
    group's spans per processor are resolved against the partition's
    tables, which travel to workers copy-on-write — the descriptor
    itself stays a few ints so shard parameters remain JSON-sized).
    """

    block_id: int
    limb_lo: int
    limb_hi: int
    groups: int
    entries: int

    def to_params(self) -> Dict[str, int]:
        """JSON form embedded in shard parameters (checkpoint binding)."""
        return {
            "block": self.block_id,
            "limb_lo": self.limb_lo,
            "limb_hi": self.limb_hi,
            "groups": self.groups,
            "entries": self.entries,
        }


class LimbBlockPartition:
    """Group tables of a chunked index, cut into limb blocks.

    Built from :class:`SystemArrays` (vectorized, no :class:`System`
    required — the exec path).  Per-processor tables mirror the index:
    ``idx[p]`` limb indices, ``val[p]`` limb values, ``starts[p]`` group
    boundaries, ``gv[p]`` the view id behind each group.  Blocks
    partition groups by first entry limb, balanced by entry count.
    """

    def __init__(
        self,
        *,
        n: int,
        num_runs: int,
        width: int,
        num_views: int,
        tables: List[Dict[str, Any]],
        num_blocks: Optional[int] = None,
        target_entries: Optional[int] = None,
        arrays: Optional[SystemArrays] = None,
    ) -> None:
        self.n = n
        self.num_runs = num_runs
        self.width = width
        self.num_views = num_views
        self.num_points = num_runs * width
        self.nlimbs = max(1, (self.num_points + LIMB_BITS - 1) // LIMB_BITS)
        rem = self.num_points % LIMB_BITS
        self.tail = LIMB_MASK if rem == 0 else (1 << rem) - 1
        self.tables = tables
        self.arrays = arrays
        self.total_entries = sum(table["entries"] for table in tables)
        self._span_cache: Dict[Tuple[int, int], Any] = {}
        self.blocks: List[LimbBlock] = self._make_blocks(
            num_blocks, target_entries
        )

    # -- factories ---------------------------------------------------------

    @classmethod
    def from_arrays(
        cls,
        arrays: SystemArrays,
        *,
        num_blocks: Optional[int] = None,
        target_entries: Optional[int] = None,
    ) -> "LimbBlockPartition":
        """Build group tables directly from the view-id matrix."""
        with obs.stage("limb_partition_build"), trace.span(
            "limb_partition_build", runs=arrays.num_runs
        ):
            return cls(
                n=arrays.n,
                num_runs=arrays.num_runs,
                width=arrays.width,
                num_views=arrays.num_views,
                tables=group_tables(arrays.views),
                num_blocks=num_blocks,
                target_entries=target_entries,
                arrays=arrays,
            )

    # -- block layout ------------------------------------------------------

    def _make_blocks(
        self,
        num_blocks: Optional[int],
        target_entries: Optional[int],
    ) -> List[LimbBlock]:
        if num_blocks is None:
            target = target_entries or DEFAULT_BLOCK_ENTRIES
            num_blocks = (self.total_entries + target - 1) // target
        num_blocks = max(1, min(MAX_BLOCKS, int(num_blocks)))
        weights = np.zeros(self.nlimbs + 1, dtype=np.int64)
        for table in self.tables:
            if table["entries"]:
                sizes = np.diff(table["starts"])
                np.add.at(weights, table["first_limb"], sizes)
        csum = np.cumsum(weights)
        total = int(csum[-1])
        cuts = {0, self.nlimbs}
        for k in range(1, num_blocks):
            target_weight = total * k / num_blocks
            cut = int(np.searchsorted(csum, target_weight, side="left"))
            cuts.add(min(cut + 1, self.nlimbs))
        bounds = sorted(cuts)
        blocks: List[LimbBlock] = []
        for block_id, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            groups = 0
            entries = 0
            for processor in range(self.n):
                gids = self._block_groups(processor, lo, hi)
                groups += int(gids.size)
                entries += self._entry_count(processor, gids)
            blocks.append(
                LimbBlock(
                    block_id=block_id,
                    limb_lo=lo,
                    limb_hi=hi,
                    groups=groups,
                    entries=entries,
                )
            )
        return blocks

    def _entry_count(self, processor: int, gids) -> int:
        starts = np.asarray(self.tables[processor]["starts"])
        return int((starts[gids + 1] - starts[gids]).sum()) if gids.size else 0

    def _block_groups(self, processor: int, lo: int, hi: int):
        """Group ids of *processor* whose first entry limb ∈ [lo, hi)."""
        first_limb = self.tables[processor]["first_limb"]
        key = (processor, -1)
        cached = self._span_cache.get(key)
        if cached is None:
            order = np.argsort(first_limb, kind="stable")
            cached = (order, np.asarray(first_limb)[order])
            self._span_cache[key] = cached
        order, sorted_limbs = cached
        s, e = np.searchsorted(sorted_limbs, [lo, hi])
        return np.sort(order[s:e])

    def _block_entries(self, processor: int, block_id: int):
        """``(gids, entry_sel, local_starts)`` for one (processor, block).

        ``entry_sel`` gathers the block's entries out of the flat table;
        ``local_starts`` delimits groups within the gathered entries
        (``reduceat`` boundaries).  Cached — workers build each pair
        once.
        """
        key = (processor, block_id)
        cached = self._span_cache.get(key)
        if cached is not None:
            return cached
        block = self.blocks[block_id]
        gids = self._block_groups(processor, block.limb_lo, block.limb_hi)
        starts = self.tables[processor]["starts"]
        counts = starts[gids + 1] - starts[gids]
        total = int(counts.sum())
        if total == 0:
            cached = (gids, np.zeros(0, np.int64), np.zeros(0, np.int64))
        else:
            offsets = np.concatenate(([0], np.cumsum(counts)[:-1])).astype(
                np.int64
            )
            base = np.repeat(starts[gids], counts)
            intra = np.arange(total, dtype=np.int64) - np.repeat(
                offsets, counts
            )
            cached = (gids, base + intra, offsets)
        self._span_cache[key] = cached
        return cached

    def block_descriptors(self) -> List[Dict[str, int]]:
        """JSON descriptors of every block (shard parameters)."""
        return [block.to_params() for block in self.blocks]

    # -- member masks ------------------------------------------------------

    def nonfaulty_limbs(self, processor: int):
        """Point-level limbs where *processor* is nonfaulty (N member)."""
        if self.arrays is None:
            raise ConfigurationError(
                "nonfaulty_limbs needs a partition built from SystemArrays"
            )
        return run_mask_to_limbs(
            self.arrays.nonfaulty_mask(processor),
            self.num_runs,
            self.width,
        )

    # -- per-block sweeps --------------------------------------------------

    def believes_true_views(
        self, processor: int, block_id: int, pmask, phi
    ) -> List[int]:
        """Views of the block whose group passes ``B_p^S φ``.

        A group passes iff no member point (``val ∧ pmask``) violates φ
        — vacuously true with no member occurrence, exactly the
        reference semantics.
        """
        gids, entry_sel, local_starts = self._block_entries(
            processor, block_id
        )
        # Sweep size per (processor, block): entry count is a property of
        # the partition layout, so this histogram is identical whether the
        # plan runs monolithic or sharded (the merge-parity tests rely on
        # it).
        obs.observe("partition_sweep_entries", len(entry_sel))
        table = self.tables[processor]
        if gids.size == 0 or entry_sel.size == 0:
            return [int(v) for v in np.asarray(table["gv"])[gids]]
        ent_idx = table["idx"][entry_sel]
        ent_val = table["val"][entry_sel]
        bad = (ent_val & pmask[ent_idx] & ~phi[ent_idx]) != 0
        grp_bad = np.bitwise_or.reduceat(bad, local_starts)
        return np.asarray(table["gv"])[gids[~grp_bad]].tolist()

    def component_labels(
        self, block_id: int, state_flags, nf_limbs: List[object]
    ) -> Tuple[List[int], List[int]]:
        """Block-local reachability components of ``N ∧ Z``.

        ``state_flags`` marks the decision views Z (bool per view id);
        ``nf_limbs[p]`` is processor
        *p*'s nonfaulty point mask.  Two runs are connected when some
        block group with its view in Z has nonfaulty-owner occurrences
        in both.  Returns ``(runs, reps)``: the touched runs and each
        one's block-local component representative (its component's
        minimum touched run) — merged across blocks by
        :func:`merge_component_labels` at the stage barrier.
        """
        pairs_group: List[Any] = []
        pairs_run: List[Any] = []
        group_base = 0
        for processor in range(self.n):
            gids, entry_sel, local_starts = self._block_entries(
                processor, block_id
            )
            table = self.tables[processor]
            if gids.size == 0:
                group_base += int(np.asarray(table["gv"]).size)
                continue
            gv = np.asarray(table["gv"])
            in_z = state_flags[gv[gids]]
            if not in_z.any():
                group_base += int(gv.size)
                continue
            z_gids = gids[in_z]
            starts = table["starts"]
            counts = starts[z_gids + 1] - starts[z_gids]
            total = int(counts.sum())
            offsets = np.concatenate(([0], np.cumsum(counts)[:-1])).astype(
                np.int64
            )
            base = np.repeat(starts[z_gids], counts)
            intra = np.arange(total, dtype=np.int64) - np.repeat(
                offsets, counts
            )
            sel = base + intra
            ent_idx = table["idx"][sel]
            ent_val = table["val"][sel]
            rel = ent_val & nf_limbs[processor][ent_idx]
            grp_of_entry = np.repeat(z_gids, counts)
            nz = np.flatnonzero(rel)
            if nz.size == 0:
                group_base += int(gv.size)
                continue
            rel = rel[nz]
            ent_idx = ent_idx[nz]
            grp_of_entry = grp_of_entry[nz]
            unpacked = np.unpackbits(
                rel.astype("<u8").view(np.uint8), bitorder="little"
            ).astype(bool)
            bit_pos = (
                ent_idx[:, None] * LIMB_BITS
                + np.arange(LIMB_BITS, dtype=np.int64)
            ).ravel()[unpacked]
            runs = bit_pos // self.width
            groups = np.repeat(grp_of_entry, LIMB_BITS)[unpacked]
            pairs_group.append(groups + group_base)
            pairs_run.append(runs)
            group_base += int(gv.size)
        if not pairs_group:
            obs.observe("partition_component_runs", 0)
            return [], []
        # Each view occurs at most once per run, so the (group, run)
        # incidences are distinct.
        labels = reachability_labels(
            self.num_runs,
            np.concatenate(pairs_run),
            np.concatenate(pairs_group),
            group_base,
        )
        runs = np.flatnonzero(labels >= 0)
        obs.observe("partition_component_runs", int(runs.size))
        return runs.tolist(), labels[runs].tolist()

    def probe_believes(
        self, processor: int, view: int, pmask, phi
    ) -> bool:
        """``B_p^S φ`` verdict at one local state (group lookup)."""
        table = self.tables[processor]
        gv = table["gv"]
        key = (processor, -2)
        cached = self._span_cache.get(key)
        if cached is None:
            order = np.argsort(gv, kind="stable")
            cached = (order, np.asarray(gv)[order])
            self._span_cache[key] = cached
        order, sorted_gv = cached
        pos = int(np.searchsorted(sorted_gv, view))
        if pos >= sorted_gv.size or int(sorted_gv[pos]) != view:
            raise EvaluationError(
                f"view {view} is not a state of processor {processor}"
            )
        g = int(order[pos])
        starts = table["starts"]
        s, e = int(starts[g]), int(starts[g + 1])
        span = table["idx"][s:e]
        bad = (table["val"][s:e] & pmask[span] & ~phi[span]) != 0
        return not bool(bad.any())

    def state_flags(self, states: Iterable[int]):
        """Z as a per-view-id flag vector."""
        flags = np.zeros(self.num_views, dtype=bool)
        state_list = np.asarray(sorted(set(states)), dtype=np.int64)
        if state_list.size:
            flags[state_list] = True
        return flags


def merge_component_labels(
    num_runs: int, block_results: Sequence[Tuple[Sequence[int], Sequence[int]]]
):
    """Fold per-block ``(runs, reps)`` partitions into global labels.

    The barrier merge: each block contributes a partition of its touched
    runs; a run touched by several blocks welds its blocks' components
    together.  Only the *conflicting representatives* go through the
    union-find (a handful per stage), everything else is vectorized.
    Returns per-run labels with ``-1`` for runs with no occurrence —
    the same partition the monolithic component scan produces (label
    values may differ; only the partition matters).
    """
    parent: Dict[int, int] = {}

    def find(node: int) -> int:
        parent.setdefault(node, node)
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    def union(a: int, b: int) -> None:
        root_a, root_b = find(a), find(b)
        if root_a != root_b:
            parent[root_b] = root_a

    labels = np.full(num_runs, -1, dtype=np.int64)
    for runs, reps in block_results:
        if not len(runs):
            continue
        runs_arr = np.asarray(runs, dtype=np.int64)
        reps_arr = np.asarray(reps, dtype=np.int64)
        existing = labels[runs_arr]
        fresh = existing < 0
        labels[runs_arr[fresh]] = reps_arr[fresh]
        clash = ~fresh
        if clash.any():
            pairs = sorted_unique(
                row_keys(np.stack([existing[clash], reps_arr[clash]], axis=1))
            )
            for a, b in pairs.view(np.int64).reshape(-1, 2).tolist():
                union(int(a), int(b))
    touched = np.flatnonzero(labels >= 0)
    if touched.size:
        distinct = sorted_unique(labels[touched])
        mapping = {int(label): find(int(label)) for label in distinct}
        lookup = np.vectorize(mapping.__getitem__, otypes=[np.int64])
        labels[touched] = lookup(labels[touched])
    return labels
