"""A loaded system: ``system_from_arrays`` equals the object-graph build.

Every cached cell's ``System`` is a view over its stored arrays whose
object graph is built on first read, so what it builds must reproduce
the object-graph oracle (``tests/oracles.py``) exactly: run order,
scenarios, each run's views, nonfaulty set and deliveries, the view
table's entries and intern map, and the state and scenario indexes (in
the same order).  Checked on every exhaustive crash, omission and
receive-omission cell with ``n = 2..4``, ``t < n`` and horizon 1 or 2
that has at most :data:`MAX_RUNS` runs, in every order of first reads
and from four threads at once.  Formula evaluation, E9 and a served
``eval`` build none of it.
"""

from __future__ import annotations

import functools
import math
import sys
import threading

import pytest

from repro import obs
from repro.errors import ConfigurationError, EvaluationError
from repro.io.system_codec import system_from_arrays
from repro.model.adversary import exhaustive_adversary
from repro.model.config import InitialConfiguration, uniform_configuration
from repro.model.failures import (
    NO_FAILURES,
    CrashBehavior,
    FailureMode,
    FailurePattern,
)
from repro.model.fastbuild import build_arrays
from repro.model.provider import SystemProvider
from repro.model.system import build_system

from .oracles import build_graph, state_index
from .test_provider import assert_systems_identical

#: Larger cells (crash n=4 t=3 h=2 has 195,344 runs, the omission-family
#: n=4 t>=2 h=2 cells 385,072 and more) take the object-graph oracle
#: minutes to enumerate.
MAX_RUNS = 30_000

MODES = (
    FailureMode.CRASH,
    FailureMode.OMISSION,
    FailureMode.RECEIVE_OMISSION,
)


def run_count(mode: FailureMode, n: int, t: int, horizon: int) -> int:
    """Runs of the exhaustive cell: configurations times patterns."""
    if mode is FailureMode.CRASH:
        behaviors = horizon * (2 ** (n - 1) - 1)
    else:
        behaviors = 2 ** ((n - 1) * horizon) - 1
    patterns = sum(math.comb(n, k) * behaviors**k for k in range(t + 1))
    return 2**n * patterns


CELLS = [
    (mode, n, t, horizon)
    for mode in MODES
    for n in (2, 3, 4)
    for t in range(n)
    for horizon in (1, 2)
    if run_count(mode, n, t, horizon) <= MAX_RUNS
]


def assert_identical(actual, expected):
    """Structural identity, view ids and index order included."""
    assert_systems_identical(actual, expected)
    assert actual.table.export_entries() == expected.table.export_entries()
    assert actual.table._ids == expected.table._ids
    for mine, theirs in zip(actual.runs, expected.runs):
        assert mine.horizon == theirs.horizon


@pytest.mark.parametrize(
    "mode,n,t,horizon",
    CELLS,
    ids=[f"{m.value}-n{n}t{t}h{h}" for m, n, t, h in CELLS],
)
def test_materialized_system_equals_build_system(mode, n, t, horizon):
    arrays = build_arrays(mode, n, t, horizon)
    assert arrays.num_runs == run_count(mode, n, t, horizon)
    arrays.validate(mode.value, n, t, horizon)
    assert_identical(
        system_from_arrays(arrays),
        build_graph(exhaustive_adversary(mode, n, t, horizon)),
    )


def test_restricted_system_is_not_the_cell():
    system = build_system(
        exhaustive_adversary(FailureMode.CRASH, 3, 1, 1),
        configs=[InitialConfiguration((0, 1, 1))],
    )
    arrays = system.arrays()
    with pytest.raises(ConfigurationError):
        arrays.validate("crash", 3, 1, 1)
    with pytest.raises(ConfigurationError):
        system_from_arrays(arrays)


# -- lazy object graph --------------------------------------------------------

#: One cell per exhaustive mode for the access-order tests.
LAZY_CELLS = [(mode, 3, 1, 2) for mode in MODES]


def materializations() -> int:
    """Whole-structure builds of loaded systems' object graphs so far —
    run lists, view tables, state indexes — one ``materialize_system``
    stage observation each."""
    histogram = obs.snapshot()["histograms"].get("materialize_system")
    return 0 if histogram is None else histogram["count"]


def loaded(tmp_path, cell):
    """A fresh system of *cell*, loaded from (or built into) a cache
    under *tmp_path*."""
    return SystemProvider(cache_dir=str(tmp_path)).get(*cell)


@functools.lru_cache(maxsize=None)
def built(cell):
    """The cell's object graph, built by the oracle."""
    return build_graph(exhaustive_adversary(*cell))


def read_run_index_for(system, expected):
    for index, key in enumerate(expected.scenarios()):
        assert system.run_index_for(*key) == index


def read_runs_by_index(system, expected):
    for index, run in enumerate(expected.runs):
        assert system.runs[index] == run
    assert system.runs[-1] == expected.runs[-1]
    assert system.runs[1:4] == expected.runs[1:4]


def read_table(system, expected):
    assert system.table.export_entries() == expected.table.export_entries()


def read_same_state_points(system, expected):
    states = state_index(expected)
    assert {view: system.same_state_points(view) for view in states} == states


def read_scenarios(system, expected):
    assert system.scenarios() == expected.scenarios()


FIRST_READS = {
    "run_index_for": read_run_index_for,
    "runs_by_index": read_runs_by_index,
    "table": read_table,
    "same_state_points": read_same_state_points,
    "scenarios": read_scenarios,
}


@pytest.mark.parametrize("first", sorted(FIRST_READS))
@pytest.mark.parametrize(
    "cell", LAZY_CELLS, ids=[mode.value for mode, *_ in LAZY_CELLS]
)
def test_loaded_system_equals_build_system_in_any_read_order(
    tmp_path, cell, first
):
    expected = built(cell)
    system = loaded(tmp_path, cell)
    before = materializations()
    FIRST_READS[first](system, expected)
    assert_identical(system, expected)
    # The run list, the table and the state index, each built once.
    assert materializations() == before + 3


def test_scenarios_outside_the_cell_raise(tmp_path):
    system = loaded(tmp_path, (FailureMode.CRASH, 3, 1, 2))
    with pytest.raises(EvaluationError):
        system.run_index_for(InitialConfiguration((0, 1)), NO_FAILURES)
    with pytest.raises(EvaluationError):
        system.run_index_for(InitialConfiguration((0, 1, 1, 0)), NO_FAILURES)
    two_faulty = FailurePattern(
        {0: CrashBehavior(1, frozenset()), 1: CrashBehavior(1, frozenset())}
    )
    with pytest.raises(EvaluationError):
        system.run_index_for(InitialConfiguration((0, 1, 1)), two_faulty)


def test_concurrent_first_reads_see_whole_structures(tmp_path):
    """Four threads (more than the two cores the suite assumes) make the
    first reads of one fresh system at once, switching often."""
    cell = (FailureMode.OMISSION, 3, 1, 3)
    expected = build_graph(exhaustive_adversary(*cell))
    states = state_index(expected)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(3):
            system = loaded(tmp_path, cell)
            barrier = threading.Barrier(4)
            results = [None] * 4

            def read(slot):
                try:
                    barrier.wait()
                    points = {
                        view: system.same_state_points(view) for view in states
                    }
                    results[slot] = (
                        list(system.runs),
                        system.table.export_entries(),
                        points,
                    )
                except Exception as error:  # asserted below
                    results[slot] = error

            threads = [
                threading.Thread(target=read, args=(slot,))
                for slot in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
            for result in results:
                assert not isinstance(result, Exception), result
                runs, entries, points = result
                assert runs == expected.runs
                assert entries == expected.table.export_entries()
                assert points == states
    finally:
        sys.setswitchinterval(interval)


def test_formula_path_builds_no_object_graph(tmp_path, monkeypatch):
    from repro.experiments.registry import run_experiment
    from repro.knowledge.explain import explain
    from repro.knowledge.formulas import ContinualCommon, Exists, Knows
    from repro.knowledge.nonrigid import NONFAULTY
    from repro.model import builder
    from repro.serve.session import QueryEngine

    provider = SystemProvider(cache_dir=str(tmp_path))
    monkeypatch.setattr(builder, "PROVIDER", provider)
    before = materializations()
    run_experiment("E9", n=4, t=2, horizon=1)
    engine = QueryEngine(provider=provider, fork_policy="never")
    engine.execute(
        "eval",
        {
            "mode": "omission",
            "n": 4,
            "t": 2,
            "horizon": 1,
            "formula": {
                "kind": "continual_common",
                "of": {"kind": "exists", "value": 1},
            },
            "point": [5, 1],
        },
    )
    assert materializations() == before

    system = provider.get(FailureMode.OMISSION, 4, 2, 1)
    formulas = (Knows(1, Exists(1)), ContinualCommon(NONFAULTY, Exists(1)))
    point = (system.run_index_for(uniform_configuration(4, 1), NO_FAILURES), 0)
    for formula in formulas:
        explain(system, formula, point)
    # Each structure explain read was built whole, once: the run list
    # (C□ fails there, and its chain search walks every run) and any of
    # the table and the state index.
    structures = (system._runs, system._table, system._state_order)
    assert system._runs is not None
    assert materializations() == before + sum(
        structure is not None for structure in structures
    )
    built_once = materializations()
    for formula in formulas:
        explain(system, formula, point)
    assert materializations() == built_once
    kept = (system._runs, system._table, system._state_order)
    assert all(now is then for now, then in zip(kept, structures))
