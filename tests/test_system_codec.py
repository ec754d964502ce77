"""The arrays materializer: ``system_from_arrays`` equals ``build_system``.

Every cached cell's ``System`` is materialized from its stored arrays, so
the materializer must reproduce the object-graph build exactly: run
order, scenarios, each run's views, nonfaulty set and deliveries, the
view table's entries and intern map, and the state and scenario indexes
(in the same order).  Checked on every exhaustive crash, omission and
receive-omission cell with ``n = 2..4``, ``t < n`` and horizon 1 or 2
that has at most :data:`MAX_RUNS` runs.
"""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigurationError
from repro.io.system_codec import system_from_arrays
from repro.model.adversary import exhaustive_adversary
from repro.model.config import InitialConfiguration
from repro.model.failures import FailureMode
from repro.model.fastbuild import build_arrays
from repro.model.partition import SystemArrays
from repro.model.system import build_system

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
    assert list(actual._state_index) == list(expected._state_index)


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
        build_system(exhaustive_adversary(mode, n, t, horizon)),
    )


def test_restricted_system_is_not_the_cell():
    system = build_system(
        exhaustive_adversary(FailureMode.CRASH, 3, 1, 1),
        configs=[InitialConfiguration((0, 1, 1))],
    )
    arrays = SystemArrays.from_system(system)
    with pytest.raises(ConfigurationError):
        arrays.validate("crash", 3, 1, 1)
    with pytest.raises(ConfigurationError):
        system_from_arrays(arrays)
