"""Systems: the full set of runs used to interpret knowledge formulas.

A *system* ``R`` (paper, Section 2.3) is a set of runs; knowledge at a point
``(r, m)`` quantifies over all points of the system at which the processor
has the same local state.  This module provides:

* :class:`System` — the enumerated run set for one ``(n, t, mode, horizon)``
  as a view over its :class:`~repro.model.partition.SystemArrays`, from
  which the knowledge evaluators' indexes are built (the ``Run`` objects
  and view table are built from the arrays only when something reads
  them);
* :func:`build_system` — the system of an adversary, built arrays-first
  by :mod:`repro.model.fastbuild`, optionally over a configuration
  subset; and
* :class:`TruthAssignment` (defined with the limb kernel in
  :mod:`repro.model.chunked`) — a boolean valuation of all points of a
  system, the working currency of the formula evaluator.

Systems are immutable after construction; evaluation results are cached on
the system keyed by formula cache keys (see :mod:`repro.knowledge.formulas`).
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs, trace
from ..errors import ConfigurationError, EvaluationError
from .adversary import (
    Adversary,
    ExhaustiveCrashAdversary,
    ExhaustiveOmissionAdversary,
    ExhaustiveReceiveOmissionAdversary,
)
from .chunked import ChunkedIndex, TruthAssignment
from .config import InitialConfiguration, all_configurations
from .failures import FailureMode, FailurePattern
from .fastbuild import build_arrays
from .runs import Run
from .views import ViewId, ViewTable

Point = Tuple[int, int]  # (run index, time)
ScenarioKey = Tuple[InitialConfiguration, FailurePattern]


def _codec():
    """The arrays codec, which builds a system's object graph (imported
    lazily: it imports this module)."""
    from ..io import system_codec

    return system_codec


class System:
    """An enumerated system of full-information runs, as a view over its
    arrays.

    Attributes:
        n: Number of processors.
        t: Fault bound used during enumeration.
        mode: Failure mode of the adversary.
        horizon: Times ``0..horizon`` exist in every run.
        runs: The runs, one per scenario of the grid ``configs ×
            patterns`` (configurations outer); a read-only sequence.
        table: The shared view-interning table.

    The evaluators' per-point structures — group tables, nonrigid
    membership, reachability components, FIP decisions — are computed
    from the system's :class:`~repro.model.partition.SystemArrays`
    (:meth:`arrays`).  Its run list, view table and state index are
    each built whole from the arrays on first read (one
    ``materialize_system`` stage per structure) and then kept, so
    formula evaluation never builds them.
    """

    def __init__(
        self,
        arrays,
        *,
        configs: Sequence[InitialConfiguration],
        patterns: Sequence[FailurePattern],
    ) -> None:
        """*arrays* — the system's
        :class:`~repro.model.partition.SystemArrays`, one run per
        scenario of *configs* × *patterns* in grid order (configurations
        outer)."""
        self.n = arrays.n
        self.t = arrays.t
        self.horizon = arrays.horizon
        self.mode = FailureMode(arrays.mode)
        self._configs = tuple(configs)
        self._patterns = tuple(patterns)
        self._num_runs = len(self._configs) * len(self._patterns)
        if arrays.num_runs != self._num_runs:
            raise ConfigurationError(
                f"{arrays.num_runs} runs stored, the scenario grid has "
                f"{len(self._configs)} x {len(self._patterns)}"
            )
        # The object graph, built on first read (see _built).
        self._runs: Optional[List[Run]] = None
        self._table: Optional[ViewTable] = None
        self._state_order: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._arrays = arrays
        self._ranks: Optional[Tuple[Dict, Dict]] = None
        self._scenario_index = None
        self._formula_cache: Dict[object, TruthAssignment] = {}
        self._nonrigid_cache: Dict[object, object] = {}
        self._components_cache: Dict[object, List[int]] = {}
        self._chunked_index: Optional[ChunkedIndex] = None

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
        return list(self.scenario_index().keys)

    def scenario_index(self):
        """The :class:`~repro.core.outcomes.ScenarioIndex` of the
        scenario grid (built on first use, then shared by every outcome
        over the system)."""
        index = self._scenario_index
        if index is None:
            from ..core.outcomes import ScenarioIndex

            index = self._scenario_index = ScenarioIndex.grid(
                self._configs, self._patterns, self.n
            )
            index.check_distinct()
        return index

    def occurring_views(self) -> Iterator[ViewId]:
        """All view ids that occur at some point of the system, in id
        order."""
        return iter(np.flatnonzero(self.arrays().occurs).tolist())

    def describe(self) -> str:
        """Compact one-line descriptor of the cell."""
        return (
            f"{self.mode.value} n={self.n} t={self.t} h={self.horizon} "
            f"runs={self._num_runs}"
        )

    def arrays(self):
        """The system's :class:`~repro.model.partition.SystemArrays`."""
        return self._arrays

    def chunked_index(self) -> ChunkedIndex:
        """The limb-sliced group index (built lazily, then shared).

        The constructor only lays out the limb geometry; the group
        tables are built on the first knowledge sweep (see
        :class:`repro.model.chunked.ChunkedIndex`), so temporal-only
        workloads never pay for them.
        """
        index = self._chunked_index
        if index is None:
            with trace.span("chunked_index", runs=self._num_runs):
                index = ChunkedIndex(self)
            self._chunked_index = index
        return index

    # -- caches ------------------------------------------------------------

    def cached_evaluation(
        self, key: object, compute: Callable[[], TruthAssignment]
    ) -> TruthAssignment:
        """Memoize a formula evaluation under *key*."""
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

        Component labellings depend only on the system and a nonrigid
        set.  Callers must treat the returned list as read-only.
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


#: Adversaries whose patterns are exactly their cell's digit tables.
_EXHAUSTIVE = (
    ExhaustiveCrashAdversary,
    ExhaustiveOmissionAdversary,
    ExhaustiveReceiveOmissionAdversary,
)


def build_system(
    adversary: Adversary,
    *,
    configs: Optional[Iterable[InitialConfiguration]] = None,
) -> System:
    """The system of full-information runs for *adversary*, built
    arrays-first (:func:`repro.model.fastbuild.build_arrays`).

    An exhaustive adversary's deliveries are read off the digit tables of
    its cell; any other adversary's, a subclass of an exhaustive one
    included, off its pattern list.

    Args:
        adversary: Supplies ``(n, t, horizon)``, the mode and the failure
            patterns, in run order.
        configs: Initial configurations to include; defaults to all
            ``2**n``.

    Raises:
        ConfigurationError: for a pattern outside ``(n, t)``, a
            configuration of another size, or an empty or repeated
            pattern or configuration list.
    """
    n, t, horizon = adversary.n, adversary.t, adversary.horizon
    patterns = list(adversary.patterns())
    config_list = (
        list(all_configurations(n)) if configs is None else list(configs)
    )
    exhaustive = type(adversary) in _EXHAUSTIVE
    arrays = build_arrays(
        adversary.mode,
        n,
        t,
        horizon,
        patterns=None if exhaustive else patterns,
        configs=config_list,
    )
    obs.count("views_interned", arrays.num_views)
    return System(arrays, configs=config_list, patterns=patterns)
