"""Systems: the full set of runs used to interpret knowledge formulas.

A *system* ``R`` (paper, Section 2.3) is a set of runs; knowledge at a point
``(r, m)`` quantifies over all points of the system at which the processor
has the same local state.  This module provides:

* :class:`System` — the enumerated run set for one ``(n, t, mode, horizon)``
  together with its :class:`~repro.model.partition.SystemArrays`, from
  which the knowledge evaluators' indexes are built (a system loaded
  from its arrays builds its ``Run`` objects and view table only when
  something reads them), and
* :class:`TruthAssignment` (defined with the limb kernel in
  :mod:`repro.model.chunked`) — a boolean valuation of all points of a
  system, the working currency of the formula evaluator.

Systems are immutable after construction; evaluation results are cached on
the system keyed by formula cache keys (see :mod:`repro.knowledge.formulas`).
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs, trace
from ..errors import ConfigurationError, EvaluationError
from .adversary import Adversary
from .chunked import ChunkedIndex, TruthAssignment
from .config import InitialConfiguration, all_configurations
from .failures import FailureMode, FailurePattern, ProcessorId, truncate_pattern
from .runs import Run, build_run
from .views import ViewId, ViewTable

Point = Tuple[int, int]  # (run index, time)
ScenarioKey = Tuple[InitialConfiguration, FailurePattern]


def _codec():
    """The arrays codec, which builds a loaded system's object graph
    (imported lazily: it imports this module)."""
    from ..io import system_codec

    return system_codec


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
    untouched, and the new system builds its index on first read.
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
    return new_system
