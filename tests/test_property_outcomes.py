"""Property: the decision-table readers agree with the per-run oracles.

Every reader of a :class:`~repro.core.outcomes.ProtocolOutcome` — the
specification checkers, ``compare``, ``equivalent_decisions``, the
[DS82] reports, the decision statistics and the outcome checks of
experiments E1, E10 and E17 — is a masked pass over the outcome's
decision table.  Random outcomes (n from 2 to 6, sizes mixed in one list,
values from domains of 2 to 4, crash and omission patterns, undecided
processors) are built both ways: one :class:`RunOutcome` at a time
through ``add``, and as a table.  The table readers must return exactly
what the walks of :mod:`tests.oracles` return over the added runs:
violation strings, witness lists (run order, processors ascending, same
caps), counts and reports.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import domination, lower_bounds, specs
from repro.core.outcomes import ProtocolOutcome, RunOutcome, ScenarioIndex
from repro.errors import ConfigurationError
from repro.experiments import (
    e01_no_optimum,
    e10_chain_f_plus_1,
    e17_multivalued,
)
from repro.metrics import stats
from repro.model.config import InitialConfiguration
from repro.model.failures import (
    CrashBehavior,
    FailurePattern,
    OmissionBehavior,
)
from repro.multivalued.config import MultiConfiguration

from . import oracles

# -- strategies --------------------------------------------------------------


def behaviors(n, horizon):
    processors = st.frozensets(st.integers(0, n - 1), max_size=n)
    return st.one_of(
        st.builds(CrashBehavior, st.integers(1, horizon + 1), processors),
        st.builds(
            OmissionBehavior,
            st.dictionaries(st.integers(1, horizon), processors, max_size=2),
        ),
    )


@st.composite
def spaces(draw, max_runs=10):
    """``(keys, horizon, domain)``: distinct scenarios, their sizes drawn
    from one or two of 2..6, over a value domain of 2 to 4."""
    horizon = draw(st.integers(1, 4))
    domain = draw(st.integers(2, 4))
    multi = domain > 2 or draw(st.booleans())
    sizes = draw(st.lists(st.integers(2, 6), min_size=1, max_size=2))
    keys = []
    for _ in range(draw(st.integers(0, max_runs))):
        n = draw(st.sampled_from(sizes))
        values = draw(st.lists(st.integers(0, domain - 1), min_size=n, max_size=n))
        config = (
            MultiConfiguration(values, domain)
            if multi
            else InitialConfiguration(values)
        )
        faulty = draw(st.lists(st.integers(0, n - 1), max_size=2, unique=True))
        pattern = FailurePattern(
            {processor: draw(behaviors(n, horizon)) for processor in faulty}
        )
        keys.append((config, pattern))
    return list(dict.fromkeys(keys)), horizon, domain


def decisions(draw, keys, horizon, domain):
    record = st.one_of(
        st.none(),
        st.tuples(st.integers(0, domain - 1), st.integers(0, horizon)),
    )
    return [
        tuple(draw(st.lists(record, min_size=config.n, max_size=config.n)))
        for config, _ in keys
    ]


def both_ways(name, keys, rows, horizon, index=None):
    """The outcome as added runs and as a table (over *index* when
    given, so two tables can share one)."""
    added = ProtocolOutcome(
        name,
        (
            RunOutcome(config, pattern, row, horizon)
            for (config, pattern), row in zip(keys, rows)
        ),
    )
    width = max((config.n for config, _ in keys), default=0)
    value = np.full((len(keys), width), -1, dtype=np.int64)
    time = value.copy()
    for r, row in enumerate(rows):
        for processor, record in enumerate(row):
            if record is not None:
                value[r, processor], time[r, processor] = record
    table = ProtocolOutcome.from_table(
        name,
        ScenarioIndex.of(keys) if index is None else index,
        value,
        time,
        horizon,
    )
    return added, table


@st.composite
def outcomes(draw):
    keys, horizon, domain = draw(spaces())
    return both_ways("P", keys, decisions(draw, keys, horizon, domain), horizon)


@st.composite
def outcome_sets(draw, count):
    """*count* outcomes over one space: the first in list order, the
    others sharing its index or listing the scenarios in another order."""
    keys, horizon, domain = draw(spaces())
    first = both_ways("A", keys, decisions(draw, keys, horizon, domain), horizon)
    result = [first]
    for name in "BCD"[: count - 1]:
        rows = decisions(draw, keys, horizon, domain)
        if draw(st.booleans()):
            result.append(
                both_ways(name, keys, rows, horizon, first[1].scenarios)
            )
        else:
            order = draw(st.permutations(range(len(keys))))
            result.append(
                both_ways(
                    name,
                    [keys[i] for i in order],
                    [rows[i] for i in order],
                    horizon,
                )
            )
    return result


# -- properties ----------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(outcomes())
def test_spec_checkers_match_oracles(pair):
    added, table = pair
    for name in oracles.SPEC_CHECKS:
        expected = getattr(oracles, name)(added)
        assert getattr(specs, name)(table) == expected, name
        assert getattr(specs, name)(added) == expected, name
    eba = (
        oracles.check_decision(added)
        + oracles.check_weak_agreement(added)
        + oracles.check_validity(added)
    )
    assert specs.check_eba(table).violations == eba
    assert specs.check_sba(table).violations == eba + oracles.check_simultaneity(
        added
    )
    assert specs.check_nontrivial_agreement(table).violations == (
        oracles.check_weak_agreement(added) + oracles.check_weak_validity(added)
    )
    assert specs.check_eba(table).runs_checked == len(added)


@settings(max_examples=150, deadline=None)
@given(outcome_sets(2), st.sampled_from([0, 1, 2, 25]))
def test_domination_matches_oracle(outcomes, cap):
    (added_a, table_a), (added_b, table_b) = outcomes
    expected = oracles.compare(added_a, added_b, cap)
    assert domination.compare(table_a, table_b, max_witnesses=cap) == expected
    assert domination.compare(added_a, table_b, max_witnesses=cap) == expected
    for nonfaulty_only in (True, False):
        assert domination.equivalent_decisions(
            table_a, table_b, nonfaulty_only=nonfaulty_only
        ) == oracles.equivalent_decisions(added_a, added_b, nonfaulty_only)
    assert domination.equivalent_decisions(table_a, table_a) == (True, [])


@settings(max_examples=100, deadline=None)
@given(outcome_sets(3), st.integers(0, 3))
def test_lower_bounds_match_oracles(outcomes, t):
    (added, table), (zero_added, zero), (one_added, one) = outcomes
    assert lower_bounds.worst_case_decision_time(
        table
    ) == oracles.worst_case_decision_time(added)
    assert lower_bounds.max_gap_behind_races(
        table, zero, one
    ) == oracles.max_gap_behind_races(added, zero_added, one_added)
    assert lower_bounds.check_ds82_bounds(
        table, zero, one, t
    ) == oracles.check_ds82_bounds(added, zero_added, one_added, t)


@settings(max_examples=150, deadline=None)
@given(outcome_sets(2), st.data())
def test_statistics_match_oracles(outcomes, data):
    (added, table), (other_added, other) = outcomes
    assert stats.decision_time_stats(table) == oracles.decision_time_stats(
        added
    )
    assert table.decision_times() == oracles._nonfaulty_times(added)[0]
    assert table.undecided_count() == oracles._nonfaulty_times(added)[1]
    max_time = data.draw(st.integers(-1, 5))
    assert stats.per_time_cumulative_share(
        table, max_time
    ) == oracles.per_time_cumulative_share(added, max_time)
    assert stats.mean_decision_gap(table, other) == oracles.mean_decision_gap(
        added, other_added
    )
    # a partial overlap: the slower outcome holds only some scenarios
    runs = [run for run in other_added if data.draw(st.booleans())]
    partial = ProtocolOutcome("B", runs)
    assert stats.mean_decision_gap(partial, table) == (
        oracles.mean_decision_gap(partial, added)
    )


@settings(max_examples=150, deadline=None)
@given(outcomes(), st.data())
def test_experiment_checks_match_oracles(pair, data):
    added, table = pair
    assert e10_chain_f_plus_1._worst_by_f(table) == oracles.worst_by_f(added)
    keys = added.scenario_keys()
    for favored in (0, 1):
        rows = [run.decisions for run in added]
        if data.draw(st.booleans()):
            # make the check pass somewhere: holders decide at time 0
            rows = [
                tuple(
                    (favored, 0)
                    if processor in run.nonfaulty
                    and run.config.value_of(processor) == favored
                    else record
                    for processor, record in enumerate(run.decisions)
                )
                for run in added
            ]
        held, table = both_ways("P", keys, rows, added.horizon)
        assert e01_no_optimum._favored_at_time0(
            table, favored
        ) == oracles.time0_favored_ok(held, favored)


@settings(max_examples=100, deadline=None)
@given(spaces(), st.data())
def test_binary_collapse_check_matches_oracle(space, data):
    keys, horizon, _ = space
    multi_keys = [
        (MultiConfiguration([v % 2 for v in config.values], 2), pattern)
        for config, pattern in keys
    ]
    multi_keys = list(dict.fromkeys(multi_keys))
    binary_keys = e17_multivalued._as_binary(multi_keys)
    rows = decisions(data.draw, multi_keys, horizon, 2)
    if data.draw(st.booleans()):
        twin_rows = [
            tuple(
                data.draw(st.sampled_from([record, None, (0, 0)]))
                if processor in pattern.faulty
                else record
                for processor, record in enumerate(row)
            )
            for row, (_, pattern) in zip(rows, multi_keys)
        ]
    else:
        twin_rows = decisions(data.draw, binary_keys, horizon, 2)
    multi_added, multi = both_ways("M", multi_keys, rows, horizon)
    binary_added, binary = both_ways("B", binary_keys, twin_rows, horizon)
    assert e17_multivalued._same_decisions(
        multi, binary
    ) == oracles.same_decisions(multi_added, binary_added)


# -- table construction ----------------------------------------------------------


def test_added_and_table_outcomes_iterate_alike():
    keys = [
        (InitialConfiguration((0, 1, 1)), FailurePattern(())),
        (
            InitialConfiguration((1, 1)),
            FailurePattern({0: CrashBehavior(1, frozenset())}),
        ),
    ]
    rows = [((0, 1), None, (1, 2)), (None, (1, 0))]
    added, table = both_ways("P", keys, rows, 3)
    assert list(table) == list(added)
    assert table.scenario_keys() == added.scenario_keys() == keys
    assert table.get(keys[1]) == added.get(keys[1])
    assert table.nonfaulty.tolist() == [
        [True, True, True],
        [False, True, False],
    ]
    unlisted = (InitialConfiguration((0, 0)), FailurePattern(()))
    with pytest.raises(ConfigurationError):
        table.get(unlisted)
    table.add(RunOutcome(*unlisted, (None, None), 3))
    assert len(table) == 3 and table.undecided_count() == 3
    with pytest.raises(ConfigurationError):  # listed already
        table.add(RunOutcome(*keys[0], rows[0], 3))
    with pytest.raises(ConfigurationError):  # another horizon
        added.add(RunOutcome(*unlisted, (None, None), 4))


def test_repeated_scenario_rejected_once_per_index():
    key = (InitialConfiguration((0, 1)), FailurePattern(()))
    other = (InitialConfiguration((1, 1)), key[1])
    index = ScenarioIndex.of([key, other, key])
    with pytest.raises(ConfigurationError, match="duplicate outcome"):
        index.check_distinct()
    ScenarioIndex.of([key]).check_distinct()
