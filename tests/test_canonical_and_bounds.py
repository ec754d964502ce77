"""Tests for cross-mode encodings and the [DS82] lower-bound checks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lower_bounds import (
    check_ds82_bounds,
    max_gap_behind_races,
    worst_case_decision_time,
)
from repro.errors import ConfigurationError
from repro.model.adversary import ExhaustiveCrashAdversary
from repro.model.canonical import (
    crash_as_omission,
    embed_crash_patterns,
    pattern_as_omission,
)
from repro.model.config import InitialConfiguration
from repro.model.failures import (
    CrashBehavior,
    FailurePattern,
    OmissionBehavior,
    ReceiveOmissionBehavior,
)
from repro.model.views import ViewTable

from .oracles import build_run


class TestCrashAsOmission:
    def test_silent_crash_encoding(self):
        encoded = crash_as_omission(CrashBehavior(2, frozenset()), 3, 3, 0)
        assert encoded.omitted(1) == frozenset()
        assert encoded.omitted(2) == frozenset((1, 2))
        assert encoded.omitted(3) == frozenset((1, 2))

    def test_partial_crash_round_encoding(self):
        encoded = crash_as_omission(
            CrashBehavior(1, frozenset((1,))), 3, 2, 0
        )
        assert encoded.omitted(1) == frozenset((2,))
        assert encoded.omitted(2) == frozenset((1, 2))

    def test_crash_beyond_horizon_is_vacuous(self):
        encoded = crash_as_omission(CrashBehavior(4, frozenset()), 3, 3, 0)
        assert encoded.omissions == ()

    def test_pattern_encoding_rejects_other_modes(self):
        pattern = FailurePattern({0: ReceiveOmissionBehavior({1: [1]})})
        with pytest.raises(ConfigurationError):
            pattern_as_omission(pattern, 3, 3)

    def test_pattern_encoding_passes_omissions_through(self):
        behavior = OmissionBehavior({1: [2]})
        pattern = FailurePattern({0: behavior})
        encoded = pattern_as_omission(pattern, 3, 3)
        assert encoded.behavior_of(0) == behavior

    def test_embed_deduplicates(self):
        patterns = [
            FailurePattern({0: CrashBehavior(1, frozenset())}),
            FailurePattern({0: CrashBehavior(1, frozenset())}),
        ]
        assert len(embed_crash_patterns(patterns, 3, 3)) == 1

    def test_exhaustive_family_embeds_injectively(self):
        patterns = list(ExhaustiveCrashAdversary(3, 1, 3).patterns())
        embedded = embed_crash_patterns(patterns, 3, 3)
        assert len(embedded) == len(patterns)


@given(
    values=st.tuples(*[st.integers(min_value=0, max_value=1)] * 3),
    crash_round=st.integers(min_value=1, max_value=3),
    receivers=st.sets(st.integers(min_value=0, max_value=2), max_size=2),
    faulty=st.integers(min_value=0, max_value=2),
)
@settings(max_examples=60, deadline=None)
def test_property_encoding_preserves_runs(
    values, crash_round, receivers, faulty
):
    """A crash pattern and its omission encoding produce identical runs:
    same views, same deliveries, same nonfaulty set."""
    config = InitialConfiguration(values)
    crash_pattern = FailurePattern(
        {faulty: CrashBehavior(crash_round, frozenset(receivers))}
    )
    omission_pattern = pattern_as_omission(crash_pattern, 3, 3)
    table = ViewTable()
    crash_run = build_run(config, crash_pattern, 3, table)
    omission_run = build_run(config, omission_pattern, 3, table)
    assert crash_run.views == omission_run.views
    assert crash_run.deliveries == omission_run.deliveries
    assert crash_run.nonfaulty == omission_run.nonfaulty


class TestLowerBounds:
    @pytest.fixture(scope="class")
    def race_outcomes(self, crash3):
        from repro.protocols.p0 import p0, p1
        from repro.sim.engine import run_over_scenarios

        scenarios = crash3.scenarios()
        return (
            run_over_scenarios(p0(), scenarios, crash3.horizon, crash3.t),
            run_over_scenarios(p1(), scenarios, crash3.horizon, crash3.t),
        )

    def test_worst_case_report(self, race_outcomes):
        race_zero, _ = race_outcomes
        report = worst_case_decision_time(race_zero)
        assert report.worst_time == 2  # t + 1
        assert report.witness is not None
        assert report.undecided == 0
        assert report.meets_t_plus_1(1)

    def test_race_gap_between_the_races(self, race_outcomes):
        """P0 lags min(P0, P1) by exactly t + 1 somewhere: the all-ones
        runs where P1 decides at time 0 and P0 waits until t + 1."""
        race_zero, race_one = race_outcomes
        report = max_gap_behind_races(race_zero, race_zero, race_one)
        assert report.max_gap == 2  # t + 1

    def test_every_zoo_protocol_consistent_with_ds82(
        self, crash3, race_outcomes
    ):
        from repro.protocols.fip import fip
        from repro.protocols.f_lambda import f_lambda_2_pair
        from repro.protocols.p0opt import p0opt
        from repro.sim.engine import run_over_scenarios

        race_zero, race_one = race_outcomes
        zoo = [
            run_over_scenarios(
                p0opt(), crash3.scenarios(), crash3.horizon, crash3.t
            ),
            fip(f_lambda_2_pair(crash3)).outcome(crash3),
        ]
        for outcome in zoo:
            assert (
                check_ds82_bounds(outcome, race_zero, race_one, crash3.t)
                == []
            )

    def test_bound_checker_flags_impossible_protocol(self, race_outcomes):
        """A fabricated 'everyone decides at time 0' outcome violates both
        bounds — sanity that the checker can fail."""
        from repro.core.outcomes import ProtocolOutcome, RunOutcome

        race_zero, race_one = race_outcomes
        fake = ProtocolOutcome("Oracle")
        for key in race_zero.scenario_keys():
            run = race_zero.get(key)
            fake.add(
                RunOutcome(
                    config=run.config,
                    pattern=run.pattern,
                    decisions=tuple((0, 0) for _ in range(run.n)),
                    horizon=run.horizon,
                )
            )
        problems = check_ds82_bounds(fake, race_zero, race_one, 1)
        assert len(problems) == 2
