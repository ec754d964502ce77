"""Systems: the full set of runs used to interpret knowledge formulas.

A *system* ``R`` (paper, Section 2.3) is a set of runs; knowledge at a point
``(r, m)`` quantifies over all points of the system at which the processor
has the same local state.  This module provides:

* :class:`System` — the enumerated run set for one ``(n, t, mode, horizon)``
  together with its :class:`~repro.model.partition.SystemArrays`, from
  which the knowledge evaluators' indexes are built (a system loaded
  from its arrays builds its ``Run`` objects and view table only when
  something reads them), and
* :class:`TruthAssignment` — a boolean valuation of all points of a system,
  the working currency of the formula evaluator.

Systems are immutable after construction; evaluation results are cached on
the system keyed by formula cache keys (see :mod:`repro.knowledge.formulas`).
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from typing import Callable, Container, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs, trace
from ..errors import ConfigurationError, EvaluationError
from . import kernels
from .adversary import Adversary
from .config import InitialConfiguration, all_configurations
from .failures import FailureMode, FailurePattern, ProcessorId, truncate_pattern
from .runs import Run, build_run
from .views import ViewId, ViewTable

Point = Tuple[int, int]  # (run index, time)
ScenarioKey = Tuple[InitialConfiguration, FailurePattern]


def _chunked():
    """The chunked-kernel module, imported lazily to avoid a cycle
    (:mod:`repro.model.chunked` subclasses :class:`TruthAssignment`)."""
    from . import chunked

    return chunked


def _codec():
    """The arrays codec, which builds a loaded system's object graph
    (imported lazily: it imports this module)."""
    from ..io import system_codec

    return system_codec


def _mask_bits(mask: int, nbits: int) -> np.ndarray:
    """The low *nbits* bits of *mask* as a bool array (bit ``i`` at ``i``).

    One ``to_bytes`` + ``unpackbits`` pass: linear in the mask length,
    where shifting the mask once per run would be quadratic.
    """
    data = mask.to_bytes((nbits + 7) // 8, "little")
    return np.unpackbits(
        np.frombuffer(data, dtype=np.uint8), count=nbits, bitorder="little"
    ).view(bool)


def _bits_mask(bits) -> int:
    """Inverse of :func:`_mask_bits`: pack a bool array into an int mask."""
    packed = np.packbits(np.asarray(bits, dtype=bool), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def _pack_rows(rows: Sequence[Sequence[bool]], width: int) -> int:
    """Pack per-run boolean rows into one point-indexed bitmask."""
    return _bits_mask(np.asarray(rows, dtype=bool).reshape(len(rows) * width))


class TruthAssignment:
    """A boolean valuation over every point of a system.

    This class doubles as the **reference kernel**: values live in one list
    of booleans per run (indexed by time ``0..horizon``).  The default
    **bitset kernel** stores the same valuation packed into a single
    integer (:class:`BitsetAssignment`); the **chunked kernel** stores it
    as a 64-bit limb array (:class:`repro.model.chunked.ChunkedAssignment`),
    which is what huge systems resolve to.  The class factories
    ``constant`` / ``from_predicate`` / ``from_rows`` / ``from_run_levels``
    build whichever representation ``System.effective_kernel`` selects, so
    evaluator code is written against this shared interface.  Every kind
    reads out as one ``(runs, width)`` bool array (:meth:`bits`), from
    which rows, run levels, cross-kind equality and coercion derive.

    Instances are treated as immutable by the evaluator; helpers that
    derive new assignments always allocate.
    """

    __slots__ = ("values",)

    def __init__(self, values: List[List[bool]]) -> None:
        self.values = values

    # -- kernel-dispatching factories --------------------------------------

    @staticmethod
    def constant(system: "System", value: bool) -> "TruthAssignment":
        kernel = system.effective_kernel()
        if kernel == kernels.BITSET:
            return BitsetAssignment.constant(system, value)
        if kernel == kernels.CHUNKED:
            return _chunked().ChunkedAssignment.constant(system, value)
        return TruthAssignment(
            [[value] * (system.horizon + 1) for _ in range(len(system.runs))]
        )

    @staticmethod
    def from_predicate(
        system: "System", predicate: Callable[[int, int], bool]
    ) -> "TruthAssignment":
        """Build from a ``(run_index, time) -> bool`` predicate."""
        rows = [
            [
                bool(predicate(run_index, time))
                for time in range(system.horizon + 1)
            ]
            for run_index in range(len(system.runs))
        ]
        return TruthAssignment.from_rows(system, rows)

    @staticmethod
    def from_states(
        system: "System", processor: int, states: Container[ViewId]
    ) -> "TruthAssignment":
        """Truth at ``(r, m)`` iff the processor's local state there ∈ *states*.

        Under the packed kernels this is a union of precomputed same-state
        occurrence masks — no per-point predicate calls.
        """
        kernel = system.effective_kernel()
        if kernel == kernels.BITSET:
            index = system.bitset_index()
            owners = index.view_owner
            mask = 0
            for view, gmask in index.view_masks.items():
                if owners[view] == processor and view in states:
                    mask |= gmask
            return BitsetAssignment(mask, index.num_runs, index.width)
        if kernel == kernels.CHUNKED:
            cindex = system.chunked_index()
            return cindex.wrap(cindex.states_mask(processor, states))
        return TruthAssignment.from_predicate(
            system,
            lambda run_index, time: system.runs[run_index].view(
                processor, time
            )
            in states,
        )

    @staticmethod
    def from_rows(
        system: "System", rows: List[List[bool]]
    ) -> "TruthAssignment":
        """Build from explicit per-run boolean rows."""
        kernel = system.effective_kernel()
        if kernel == kernels.BITSET:
            return BitsetAssignment(
                _pack_rows(rows, system.horizon + 1),
                len(system.runs),
                system.horizon + 1,
            )
        if kernel == kernels.CHUNKED:
            return _chunked().ChunkedAssignment.from_rows(system, rows)
        return TruthAssignment(rows)

    @staticmethod
    def from_run_levels(
        system: "System", run_levels: Sequence[bool]
    ) -> "TruthAssignment":
        """Build a run-level assignment (same truth at every time of a run)."""
        width = system.horizon + 1
        kernel = system.effective_kernel()
        if kernel == kernels.BITSET:
            bits = np.repeat(np.asarray(run_levels, dtype=bool), width)
            return BitsetAssignment(_bits_mask(bits), len(system.runs), width)
        if kernel == kernels.CHUNKED:
            return _chunked().ChunkedAssignment.from_run_levels(
                system, run_levels
            )
        return TruthAssignment(
            [[bool(value)] * width for value in run_levels]
        )

    # -- point access ------------------------------------------------------

    def at(self, run_index: int, time: int) -> bool:
        return self.values[run_index][time]

    def count_true(self) -> int:
        return sum(sum(1 for v in row if v) for row in self.values)

    def bits(self) -> np.ndarray:
        """The valuation as a ``(runs, width)`` bool array, indexed
        ``[run, time]``: the one read every kind provides (the packed
        kernels unpack their bits, this kernel copies its rows)."""
        return np.array(self.values, dtype=bool)

    def to_rows(self) -> List[List[bool]]:
        """Per-run boolean rows, indexed ``[run][time]`` (a fresh list)."""
        return self.bits().tolist()

    def run_levels(self) -> List[bool]:
        """Time-0 truth per run (exact for run-level assignments)."""
        return self.bits()[:, 0].tolist()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruthAssignment):
            return NotImplemented
        return np.array_equal(self.bits(), other.bits())

    def __hash__(self) -> int:  # pragma: no cover - not hashed in practice
        return hash(tuple(tuple(row) for row in self.values))

    # -- pointwise algebra -------------------------------------------------

    def negate(self) -> "TruthAssignment":
        return TruthAssignment([[not v for v in row] for row in self.values])

    def conjoin(self, other: "TruthAssignment") -> "TruthAssignment":
        return TruthAssignment(
            [
                [a and b for a, b in zip(row_a, row_b)]
                for row_a, row_b in zip(self.values, other.values)
            ]
        )

    def disjoin(self, other: "TruthAssignment") -> "TruthAssignment":
        return TruthAssignment(
            [
                [a or b for a, b in zip(row_a, row_b)]
                for row_a, row_b in zip(self.values, other.values)
            ]
        )

    def implies(self, other: "TruthAssignment") -> "TruthAssignment":
        return TruthAssignment(
            [
                [(not a) or b for a, b in zip(row_a, row_b)]
                for row_a, row_b in zip(self.values, other.values)
            ]
        )

    def is_valid(self) -> bool:
        """True when the assignment holds at *every* point (the paper's
        ``R |= φ``)."""
        return all(all(row) for row in self.values)


class BitsetAssignment(TruthAssignment):
    """Bitset-kernel truth assignment: one integer, one bit per point.

    The point ``(run_index, time)`` maps to bit ``run_index * width +
    time`` where ``width = horizon + 1``, so each run occupies one
    contiguous ``width``-bit block.  Boolean algebra is word-wide integer
    arithmetic on arbitrary-precision ints — a ``conjoin`` over a
    1360-run system is a single C-level ``&`` instead of ~5400 list
    operations.  The knowledge evaluators in
    :mod:`repro.knowledge.semantics` recognize this representation and
    switch to group AND-reductions over the
    :class:`BitsetIndex` of the system.
    """

    __slots__ = ("mask", "num_runs", "width", "full")

    def __init__(self, mask: int, num_runs: int, width: int) -> None:
        self.mask = mask
        self.num_runs = num_runs
        self.width = width
        self.full = (1 << (num_runs * width)) - 1

    # -- factories ---------------------------------------------------------

    @staticmethod
    def constant(system: "System", value: bool) -> "BitsetAssignment":
        width = system.horizon + 1
        num_runs = len(system.runs)
        mask = (1 << (num_runs * width)) - 1 if value else 0
        return BitsetAssignment(mask, num_runs, width)

    def _replace(self, mask: int) -> "BitsetAssignment":
        """Same shape, different mask (already truncated to ``full``)."""
        clone = BitsetAssignment.__new__(BitsetAssignment)
        clone.mask = mask
        clone.num_runs = self.num_runs
        clone.width = self.width
        clone.full = self.full
        return clone

    # -- point access ------------------------------------------------------

    @property
    def values(self) -> List[List[bool]]:
        """Materialized per-run rows (compat with row-oriented readers)."""
        return self.to_rows()

    def at(self, run_index: int, time: int) -> bool:
        return bool((self.mask >> (run_index * self.width + time)) & 1)

    def count_true(self) -> int:
        return self.mask.bit_count()

    def bits(self) -> np.ndarray:
        return _mask_bits(self.mask, self.num_runs * self.width).reshape(
            self.num_runs, self.width
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BitsetAssignment):
            return (
                self.mask == other.mask
                and self.num_runs == other.num_runs
                and self.width == other.width
            )
        return super().__eq__(other)

    def __hash__(self) -> int:  # pragma: no cover - not hashed in practice
        return hash((self.mask, self.num_runs, self.width))

    # -- pointwise algebra -------------------------------------------------

    def _mask_of(self, other: "TruthAssignment") -> int:
        if isinstance(other, BitsetAssignment):
            return other.mask
        return _bits_mask(other.bits())

    def negate(self) -> "BitsetAssignment":
        return self._replace(self.full & ~self.mask)

    def conjoin(self, other: "TruthAssignment") -> "BitsetAssignment":
        return self._replace(self.mask & self._mask_of(other))

    def disjoin(self, other: "TruthAssignment") -> "BitsetAssignment":
        return self._replace(self.mask | self._mask_of(other))

    def implies(self, other: "TruthAssignment") -> "BitsetAssignment":
        return self._replace(
            (self.full & ~self.mask) | self._mask_of(other)
        )

    def is_valid(self) -> bool:
        return self.mask == self.full


class BitsetIndex:
    """Dense same-state group index powering the bitset kernel.

    Precomputed once per system (lazily, on the first bitset evaluation)
    from the group tables of the system's view-id matrix
    (:func:`repro.model.chunked.group_tables`), each group's mask
    assembled from its limb entries:

    * ``groups[p]`` — for each distinct local state of processor ``p``, the
      bitmask of the points sharing that state.  ``K_p φ`` is then one
      subset test (``phi & group == group``) per distinct state, broadcast
      by OR-ing the group mask into the result;
    * ``col0`` — the time-0 column (one bit per run), from which any time
      column is a shift; the temporal operators sweep columns instead of
      points;
    * ``member_masks`` — per nonrigid-set cache key, the per-processor
      bitmask of points where the processor is a member (computed on demand
      by :mod:`repro.knowledge.semantics` and memoized here);
    * ``view_masks`` / ``view_owner`` — each occurring view's mask and
      owning processor, for decision-state extraction.
    """

    __slots__ = (
        "num_runs",
        "width",
        "full",
        "col0",
        "run_block",
        "groups",
        "view_masks",
        "view_owner",
        "member_masks",
    )

    def __init__(self, system: "System") -> None:
        width = system.horizon + 1
        num_runs = len(system.runs)
        self.num_runs = num_runs
        self.width = width
        self.full = (1 << (num_runs * width)) - 1
        column = np.zeros((num_runs, width), dtype=bool)
        column[:, 0] = True
        self.col0 = _bits_mask(column)
        self.run_block = (1 << width) - 1
        self.groups: List[List[int]] = []
        self.view_masks: Dict[ViewId, int] = {}
        self.view_owner: Dict[ViewId, int] = {}
        tables = _chunked().group_tables(system.arrays().views)
        for processor, table in enumerate(tables):
            masks = _group_masks(table)
            views = table["gv"].tolist()
            self.groups.append(masks)
            self.view_masks.update(zip(views, masks))
            self.view_owner.update(dict.fromkeys(views, processor))
        self.member_masks: Dict[object, List[int]] = {}

    def position(self, run_index: int, time: int) -> int:
        """Bit position of the point ``(run_index, time)``."""
        return run_index * self.width + time

    def spread_run_levels(self, run_bits: int) -> int:
        """Broadcast a col0-aligned per-run bit to the run's full window.

        ``run_bits`` has at most one bit per ``width``-block (positions
        ``run_index * width``); multiplying by the all-ones block replicates
        each into ``width`` consecutive bits with no carry overlap.
        """
        return run_bits * self.run_block


#: Groups with more limb entries than this are assembled through one
#: dense buffer instead of entry by entry (each OR would copy the
#: growing mask).
_DENSE_GROUP_ENTRIES = 32


def _group_masks(table) -> List[int]:
    """Each group of a processor's group table as one point mask.

    A group with few limb entries ORs its limbs' bits shifted into
    place; a wider group is its limb span laid out densely and read as
    one little-endian integer.
    """
    idx, val, starts = table["idx"], table["val"], table["starts"]
    shifts = (idx << 6).tolist()
    values = val.tolist()
    bounds = starts.tolist()
    masks: List[int] = []
    for start, stop in zip(bounds[:-1], bounds[1:]):
        if stop - start <= _DENSE_GROUP_ENTRIES:
            mask = values[start] << shifts[start]
            for k in range(start + 1, stop):
                mask |= values[k] << shifts[k]
            masks.append(mask)
            continue
        span = idx[start:stop]
        low = int(span[0])
        dense = np.zeros(int(span[-1]) - low + 1, dtype="<u8")
        dense[span - low] = val[start:stop]
        masks.append(int.from_bytes(dense.tobytes(), "little") << (low << 6))
    return masks


class System:
    """An enumerated system of full-information runs.

    Attributes:
        n: Number of processors.
        t: Fault bound used during enumeration.
        mode: Failure mode of the adversary (``None`` for a purely
            failure-free system).
        horizon: Times ``0..horizon`` exist in every run.
        runs: The runs, one per scenario of the grid ``configs ×
            patterns`` (configurations outer); a read-only sequence.
        table: The shared view-interning table.

    The system also carries its
    :class:`~repro.model.partition.SystemArrays` (:meth:`arrays`), which
    the evaluators' per-point structures — group tables, nonrigid
    membership, reachability components, FIP decisions — are computed
    from.  A system loaded from its arrays
    (:func:`repro.io.system_codec.system_from_arrays`) is a view over
    them: its run list, view table and state index are each built whole
    on first read (one ``materialize_system`` stage per structure) and
    then kept, so formula evaluation never builds them.
    """

    def __init__(
        self,
        n: int,
        t: int,
        horizon: int,
        runs: Optional[Sequence[Run]],
        table: Optional[ViewTable],
        mode: Optional[FailureMode],
        *,
        configs: Sequence[InitialConfiguration] = (),
        patterns: Sequence[FailurePattern] = (),
        arrays=None,
    ) -> None:
        """*runs* — one per scenario of *configs* × *patterns*, in grid
        order; ``None`` (with *table* ``None``) for a system whose
        object graph is built from *arrays* on first read.
        *arrays* — the system's
        :class:`~repro.model.partition.SystemArrays`, when the caller
        has them (the provider hands over the arrays it loaded or
        built); otherwise :meth:`arrays` projects the runs once."""
        self.n = n
        self.t = t
        self.horizon = horizon
        self.mode = mode
        self._configs = tuple(configs)
        self._patterns = tuple(patterns)
        self._num_runs = len(self._configs) * len(self._patterns)
        if not self._num_runs:
            raise ConfigurationError("a system needs at least one run")
        if runs is not None and len(runs) != self._num_runs:
            raise ConfigurationError("runs do not match the scenario grid")
        # The object graph: given, or built on first read (see _built).
        self._runs: Optional[List[Run]] = None if runs is None else list(runs)
        self._table = table
        self._state_order: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._arrays = arrays
        self._ranks: Optional[Tuple[Dict, Dict]] = None
        self._formula_cache: Dict[object, TruthAssignment] = {}
        self._nonrigid_cache: Dict[object, object] = {}
        self._components_cache: Dict[object, List[int]] = {}
        self._bitset_index: Optional[BitsetIndex] = None
        self._chunked_index: Optional[object] = None
        self._noted_kernels: set = set()

    # -- object graph ------------------------------------------------------

    def _built(self, name: str, build: Callable[[], object]):
        """The structure kept in attribute *name*, built by *build* on
        first call (one ``materialize_system`` stage).  It is built whole
        into a local and published by one assignment, so concurrent
        readers see it absent or complete."""
        value = getattr(self, name)
        if value is None:
            with obs.stage("materialize_system"), trace.span(
                "materialize_system",
                structure=name.lstrip("_"),
                runs=self._num_runs,
            ):
                value = build()
            setattr(self, name, value)
        return value

    @property
    def runs(self) -> Sequence[Run]:
        """The runs, in scenario-grid order."""
        runs = self._runs
        return _LazyRuns(self) if runs is None else runs

    @property
    def table(self) -> ViewTable:
        """The view-interning table."""
        return self._built(
            "_table", lambda: _codec().view_table(self._arrays)
        )

    def _run_list(self) -> List[Run]:
        return self._built(
            "_runs",
            lambda: _codec().cell_runs(
                self._arrays, self._configs, self._patterns
            ),
        )

    def _state_positions(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(order, bounds)``: positions in the raveled ``(runs, width,
        n)`` view matrix grouped by view id, each group in scan order
        (one stable argsort), and the groups' boundaries by id."""
        flat = self.arrays().views.reshape(-1)
        return self._built(
            "_state_order",
            lambda: (
                np.argsort(flat, kind="stable"),
                np.concatenate(([0], np.cumsum(np.bincount(flat)))),
            ),
        )

    # -- structure ---------------------------------------------------------

    def num_points(self) -> int:
        return self._num_runs * (self.horizon + 1)

    def same_state_points(self, view: ViewId) -> List[Point]:
        """All points at which the view's owner has exactly this state,
        in run order."""
        order, bounds = self._state_positions()
        if not 0 <= view < len(bounds) - 1:
            return []
        cells = order[bounds[view] : bounds[view + 1]] // self.n
        run_indexes, times = np.divmod(cells, self.horizon + 1)
        return list(zip(run_indexes.tolist(), times.tolist()))

    def run_index_for(
        self, config: InitialConfiguration, pattern: FailurePattern
    ) -> int:
        """Index of the run determined by a scenario (config, pattern):
        the configuration's rank times the pattern count plus the
        pattern's rank."""
        ranks = self._ranks
        if ranks is None:
            ranks = self._ranks = (
                {config: rank for rank, config in enumerate(self._configs)},
                {pattern: rank for rank, pattern in enumerate(self._patterns)},
            )
        configs, patterns = ranks
        try:
            return configs[config] * len(patterns) + patterns[pattern]
        except KeyError:
            raise EvaluationError(
                f"scenario not present in system: {config} / {pattern}"
            ) from None

    def scenarios(self) -> List[ScenarioKey]:
        """The (config, pattern) pairs of all runs, in run order."""
        return [
            (config, pattern)
            for config in self._configs
            for pattern in self._patterns
        ]

    def occurring_views(self) -> Iterator[ViewId]:
        """All view ids that occur at some point of the system, in id
        order."""
        return iter(np.flatnonzero(self.arrays().occurs).tolist())

    def effective_kernel(self) -> str:
        """The kernel evaluations on this system actually use.

        Resolves :func:`repro.model.kernels.active_kernel` against the
        system's size through the pure
        :func:`repro.model.kernels.resolve_selection` rule: beyond
        :data:`~repro.model.kernels.BITSET_POINT_LIMIT` points every
        single-integer mask operation costs O(mask length), so a
        ``bitset`` selection is *upgraded* to the ``chunked`` limb-array
        kernel, which keeps packed semantics with O(limbs touched)
        algebra.  (This replaces the old silent fall back to the
        reference layout.)  Explicit ``chunked`` and ``reference``
        selections are honoured at any size.  Every distinct resolution
        is reported once per system through
        :func:`repro.model.kernels.note_selection` — visible as
        ``kernel_selected_*`` counters and in ``repro-eba stats``.
        """
        requested = kernels.active_kernel()
        selected = kernels.resolve_selection(requested, self.num_points())
        if (requested, selected) not in self._noted_kernels:
            self._noted_kernels.add((requested, selected))
            kernels.note_selection(
                self.describe(), self.num_points(), requested, selected
            )
        return selected

    def describe(self) -> str:
        """Compact one-line descriptor (used by the kernel-selection log)."""
        mode = self.mode.value if self.mode is not None else "none"
        return (
            f"{mode} n={self.n} t={self.t} h={self.horizon} "
            f"runs={self._num_runs}"
        )

    def arrays(self):
        """The system's :class:`~repro.model.partition.SystemArrays`.

        Handed over by the provider for cached cells; any other system
        is projected once, with
        :meth:`~repro.model.partition.SystemArrays.from_system`, on
        first use.
        """
        arrays = self._arrays
        if arrays is None:
            from .partition import SystemArrays

            arrays = SystemArrays.from_system(self)
            self._arrays = arrays
        return arrays

    def bitset_index(self) -> BitsetIndex:
        """The dense same-state group index (built lazily, then shared)."""
        index = self._bitset_index
        if index is None:
            with obs.stage("bitset_index"), trace.span(
                "bitset_index", runs=self._num_runs
            ):
                index = BitsetIndex(self)
            self._bitset_index = index
        return index

    def chunked_index(self):
        """The limb-sliced group index (built lazily, then shared).

        The constructor only lays out the limb geometry; the group
        tables are built on the first knowledge sweep (see
        :class:`repro.model.chunked.ChunkedIndex`), so temporal-only
        workloads never pay for them.
        """
        index = self._chunked_index
        if index is None:
            with trace.span("chunked_index", runs=self._num_runs):
                index = _chunked().ChunkedIndex(self)
            self._chunked_index = index
        return index

    # -- caches ------------------------------------------------------------

    def cached_evaluation(
        self, key: object, compute: Callable[[], TruthAssignment]
    ) -> TruthAssignment:
        """Memoize a formula evaluation under *key*.

        Keys are qualified by the kernel this system *resolves* to
        (:meth:`effective_kernel`, three-valued), so assignments of
        different representations never alias each other in the cache —
        including across the automatic bitset→chunked upgrade boundary
        and mid-process :func:`~repro.model.kernels.use_kernel` switches.
        """
        key = (self.effective_kernel(), key)
        existing = self._formula_cache.get(key)
        if existing is not None:
            obs.count("formula_cache_hits")
            return existing
        obs.count("formula_cache_misses")
        with obs.stage("formula_eval"), trace.span(
            "formula_eval", key=_short_key(key)
        ):
            result = compute()
        self._formula_cache[key] = result
        return result

    def cached_nonrigid(self, key: object, compute: Callable[[], object]):
        """Memoize a nonrigid set's membership (array or member matrix)
        under *key*."""
        existing = self._nonrigid_cache.get(key)
        if existing is not None:
            return existing
        result = compute()
        self._nonrigid_cache[key] = result
        return result

    def cached_components(
        self, key: object, compute: Callable[[], List[int]]
    ) -> List[int]:
        """Memoize a run-component labelling under *key*.

        Component labellings depend only on the system and a nonrigid set,
        never on the evaluation kernel.  Callers must treat the returned
        list as read-only.
        """
        existing = self._components_cache.get(key)
        if existing is not None:
            obs.count("components_cache_hits")
            return existing
        obs.count("components_cache_misses")
        result = compute()
        self._components_cache[key] = result
        return result

    def clear_caches(self) -> None:
        """Drop all memoized evaluations and lazy indexes (mainly for
        tests and benchmarks that time a cold evaluation)."""
        self._formula_cache.clear()
        self._nonrigid_cache.clear()
        self._components_cache.clear()
        self._bitset_index = None
        self._chunked_index = None


class _LazyRuns(SequenceABC):
    """The runs of a system whose object graph is not built yet.

    ``len`` is the run count; indexing or iterating builds the whole
    list once and keeps it on the system.
    """

    __slots__ = ("_system",)

    def __init__(self, system: System) -> None:
        self._system = system

    def __len__(self) -> int:
        return self._system._num_runs

    def __getitem__(self, index):
        return self._system._run_list()[index]

    def __iter__(self) -> Iterator[Run]:
        return iter(self._system._run_list())


def _short_key(key: object, limit: int = 96) -> str:
    """A bounded textual form of a structural cache key for span labels."""
    text = repr(key)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def build_system(
    adversary: Adversary,
    *,
    configs: Optional[Iterable[InitialConfiguration]] = None,
    table: Optional[ViewTable] = None,
) -> System:
    """Enumerate the system of full-information runs for *adversary*.

    Args:
        adversary: Supplies ``(n, t, horizon)`` and the failure patterns.
        configs: Initial configurations to include; defaults to all ``2**n``.
        table: View table to intern into; defaults to a fresh one.  Supplying
            a shared table lets several systems (e.g. crash and omission
            variants of the same parameters) share state ids.

    Returns:
        The enumerated :class:`System`.
    """
    n, t, horizon = adversary.n, adversary.t, adversary.horizon
    if table is None:
        table = ViewTable()
    if configs is None:
        config_list = list(all_configurations(n))
    else:
        config_list = list(configs)
        for config in config_list:
            if config.n != n:
                raise ConfigurationError(
                    f"configuration {config} has n={config.n}, expected {n}"
                )
    patterns = list(adversary.patterns())
    for pattern in patterns:
        pattern.validate(n, t)
    for items in (config_list, patterns):
        if len(set(items)) != len(items):
            raise ConfigurationError("duplicate scenario in system")
    scenarios = [
        (config, pattern)
        for config in config_list
        for pattern in patterns
    ]
    views_before = len(table)
    with obs.stage("build_system"), trace.span(
        "build_system",
        mode=None if adversary.mode is None else adversary.mode.value,
        n=n,
        t=t,
        horizon=horizon,
        scenarios=len(scenarios),
    ) as build_span:
        with trace.span("enumerate_runs", scenarios=len(scenarios)):
            runs = [
                build_run(config, pattern, horizon, table)
                for config, pattern in scenarios
            ]
        obs.count("runs_built", len(runs))
        with trace.span("index_system", runs=len(runs)):
            system = System(
                n,
                t,
                horizon,
                runs,
                table,
                adversary.mode,
                configs=config_list,
                patterns=patterns,
            )
        build_span.set("views_interned", len(table) - views_before)
    obs.count("views_interned", len(table) - views_before)
    return system


def _remap_run_prefix(
    old_run: Run,
    old_table: ViewTable,
    new_table: ViewTable,
    memo: Dict[ViewId, ViewId],
) -> List[Tuple[ViewId, ...]]:
    """Re-intern *old_run*'s view rows into *new_table*, time-major.

    *memo* maps old view ids to new ones and is shared across all runs of
    an extension, so views common to several prefixes are translated once.
    Walking rows oldest-first guarantees every referenced id (the owner's
    previous view, the senders' carried views — all one time step earlier)
    is already in the memo when an unseen view arrives, and reproduces the
    exact first-appearance interning order of a fresh build.

    Extended runs sharing a prefix share its row tuples.
    """
    rows: List[Tuple[ViewId, ...]] = []
    for row in old_run.views:
        new_row = []
        for old_id in row:
            new_id = memo.get(old_id)
            if new_id is None:
                info = old_table.info(old_id)
                if info.previous is None:
                    new_id = new_table.leaf(info.processor, info.initial_value)
                else:
                    new_id = new_table.intern_node(
                        memo[info.previous],
                        tuple((s, memo[sv]) for s, sv in info.heard_from),
                    )
                memo[old_id] = new_id
            new_row.append(new_id)
        rows.append(tuple(new_row))
    return rows


def extend_system(system: System, adversary: Adversary) -> System:
    """Grow *system* by one round: the horizon-``h+1`` system of *adversary*.

    Instead of re-simulating every scenario from time 0, each new scenario
    is resolved to the horizon-``h`` run it shares its first ``h`` rounds
    with — the run of the *truncated* pattern (see
    :func:`repro.model.failures.truncate_pattern`) — whose view rows are
    re-interned into the new table and extended by a single round.  The
    per-scenario cost is one round of message filtering plus an amortized
    prefix remap (each distinct horizon-``h`` run is remapped once, however
    many extended scenarios share it), instead of ``h+1`` rounds of
    simulation.

    The result is **identical** to ``build_system(adversary)`` — same run
    order, same view-id assignment, same deliveries — because scenarios are
    walked in the fresh builder's enumeration order and views are interned
    time-major per run, which is exactly the fresh builder's
    first-appearance order (scenarios sharing a truncation have identical
    prefix rows, so re-interning them is a no-op past the first).

    Returns a **new** :class:`System`; *system* and its caches are left
    untouched.  When *system* carries a built chunked index, the new
    system's index is pre-seeded via
    :meth:`repro.model.chunked.ChunkedIndex.extend_points`.
    """
    n, t, new_horizon = adversary.n, adversary.t, adversary.horizon
    if (n, t) != (system.n, system.t):
        raise ConfigurationError(
            f"adversary is (n={n}, t={t}) but system is "
            f"(n={system.n}, t={system.t})"
        )
    if new_horizon != system.horizon + 1:
        raise ConfigurationError(
            f"can only extend horizon {system.horizon} to "
            f"{system.horizon + 1}, adversary has horizon {new_horizon}"
        )
    if adversary.mode is not system.mode:
        raise ConfigurationError(
            f"adversary mode {adversary.mode} != system mode {system.mode}"
        )
    patterns = list(adversary.patterns())
    for pattern in patterns:
        pattern.validate(n, t)
    config_list = list(all_configurations(n))
    # Everything that depends only on the pattern — its observable
    # truncation, who hears whom in the new round, the nonfaulty set — is
    # hoisted out of the config loop: each pattern recurs once per
    # configuration, so computing these per scenario would redo the work
    # ``len(config_list)`` times over.
    per_pattern = []
    for pattern in patterns:
        truncated = truncate_pattern(pattern, system.horizon, n)
        senders_by_receiver = [
            tuple(
                sender
                for sender in range(n)
                if sender != receiver
                and pattern.delivered(sender, receiver, new_horizon)
            )
            for receiver in range(n)
        ]
        per_pattern.append(
            (pattern, truncated, senders_by_receiver, pattern.nonfaulty(n))
        )
    table = ViewTable()
    memo: Dict[ViewId, ViewId] = {}
    prefix_cache: Dict[int, List[Tuple[ViewId, ...]]] = {}
    old_table = system.table
    runs: List[Run] = []
    with obs.stage("extend_system"), trace.span(
        "extend_system",
        mode=None if adversary.mode is None else adversary.mode.value,
        n=n,
        t=t,
        horizon=new_horizon,
        scenarios=len(config_list) * len(patterns),
    ) as build_span:
        for config in config_list:
            for pattern, truncated, senders_by_receiver, nonfaulty in (
                per_pattern
            ):
                try:
                    old_index = system.run_index_for(config, truncated)
                except EvaluationError:
                    raise ConfigurationError(
                        f"cannot extend: scenario {config} / {truncated} "
                        f"(truncation of {pattern}) not in the base system"
                    ) from None
                rows = prefix_cache.get(old_index)
                if rows is None:
                    rows = _remap_run_prefix(
                        system.runs[old_index], old_table, table, memo
                    )
                    prefix_cache[old_index] = rows
                current = rows[-1]
                delivered_per_receiver: List[FrozenSet[ProcessorId]] = []
                next_views: List[ViewId] = []
                for receiver in range(n):
                    heard: Dict[ProcessorId, ViewId] = {
                        sender: current[sender]
                        for sender in senders_by_receiver[receiver]
                    }
                    delivered_per_receiver.append(frozenset(heard))
                    next_views.append(table.extend(current[receiver], heard))
                runs.append(
                    Run(
                        config=config,
                        pattern=pattern,
                        horizon=new_horizon,
                        views=rows + [tuple(next_views)],
                        nonfaulty=nonfaulty,
                        deliveries=system.runs[old_index].deliveries
                        + [tuple(delivered_per_receiver)],
                    )
                )
        obs.count("runs_extended", len(runs))
        with trace.span("index_system", runs=len(runs)):
            new_system = System(
                n,
                t,
                new_horizon,
                runs,
                table,
                adversary.mode,
                configs=config_list,
                patterns=patterns,
            )
        build_span.set("views_interned", len(table))
        build_span.set("prefix_runs_reused", len(prefix_cache))
    obs.count("views_interned", len(table))
    old_chunked = system._chunked_index
    if old_chunked is not None:
        new_system._chunked_index = old_chunked.extend_points(new_system)
    return new_system
