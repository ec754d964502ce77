"""Unit tests for systems and truth assignments."""

import pytest

from repro.errors import ConfigurationError, EvaluationError
from repro.model.adversary import ExhaustiveCrashAdversary
from repro.model.builder import (
    clear_system_cache,
    crash_system,
    default_horizon,
    omission_system,
    restricted_system,
    system_for,
)
from repro.model.config import InitialConfiguration, all_configurations
from repro.model.failures import FailureMode, FailurePattern, OmissionBehavior
from repro.model.system import TruthAssignment, build_system


class TestBuildSystem:
    def test_run_count(self, crash3):
        adversary = ExhaustiveCrashAdversary(3, 1, 3)
        assert len(crash3.runs) == 8 * adversary.count_patterns()

    def test_scenario_index_round_trip(self, crash3):
        for index, run in enumerate(crash3.runs[:20]):
            assert crash3.run_index_for(run.config, run.pattern) == index

    def test_unknown_scenario_raises(self, crash3):
        with pytest.raises(EvaluationError):
            crash3.run_index_for(
                InitialConfiguration((0, 1, 1)),
                FailurePattern({0: OmissionBehavior({1: [1]})}),
            )

    def test_same_state_points_share_view(self, crash3):
        for view in list(crash3.occurring_views())[:50]:
            points = crash3.same_state_points(view)
            owner = crash3.table.processor_of(view)
            time = crash3.table.time_of(view)
            for run_index, point_time in points:
                assert point_time == time
                assert crash3.runs[run_index].view(owner, time) == view

    def test_points_count(self, crash3):
        assert crash3.num_points() == len(crash3.runs) * 4

    def test_config_subset(self):
        system = build_system(
            ExhaustiveCrashAdversary(3, 1, 2),
            configs=[InitialConfiguration((1, 1, 1))],
        )
        assert all(run.config.all_equal(1) for run in system.runs)

    def test_config_size_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            build_system(
                ExhaustiveCrashAdversary(3, 1, 2),
                configs=[InitialConfiguration((1, 1))],
            )


class TestBuilderHelpers:
    def test_default_horizon(self):
        assert default_horizon(1) == 3
        assert default_horizon(2) == 4

    def test_cache_shares_instances(self):
        clear_system_cache()
        a = crash_system(3, 1, 2)
        b = crash_system(3, 1, 2)
        assert a is b
        clear_system_cache()
        c = crash_system(3, 1, 2)
        assert c is not a

    def test_system_for_dispatch(self):
        crash = system_for(FailureMode.CRASH, 3, 1, 2)
        omission = system_for(FailureMode.OMISSION, 3, 1, 2)
        assert crash.mode is FailureMode.CRASH
        assert omission.mode is FailureMode.OMISSION

    def test_system_for_receive_omission(self):
        # Every non-crash mode used to fall through to the omission cell.
        system = system_for(FailureMode.RECEIVE_OMISSION, 3, 1, 3)
        assert system.mode is FailureMode.RECEIVE_OMISSION
        assert system.arrays().mode == "receive-omission"
        assert len(system.runs) == 8 * (1 + 3 * (4**3 - 1))

    def test_system_for_general_omission_rejected(self):
        with pytest.raises(ConfigurationError):
            system_for(FailureMode.GENERAL_OMISSION, 3, 1, 2)

    def test_restricted_system(self):
        pattern = FailurePattern({0: OmissionBehavior({1: [1]})})
        system = restricted_system(FailureMode.OMISSION, 3, 1, 2, [pattern])
        assert len(system.runs) == 8 * 2  # failure-free + explicit pattern


class TestTruthAssignment:
    def _system(self):
        return crash_system(3, 1, 2)

    def test_constant(self):
        system = self._system()
        assert TruthAssignment.constant(system, True).is_valid()
        assert not TruthAssignment.constant(system, False).is_valid()

    def test_from_predicate(self):
        system = self._system()
        odd_times = TruthAssignment.from_predicate(
            system, lambda _, time: time % 2 == 1
        )
        assert odd_times.at(0, 1)
        assert not odd_times.at(0, 2)

    def test_negate(self):
        system = self._system()
        assignment = TruthAssignment.from_predicate(
            system, lambda run, _: run == 0
        )
        negated = assignment.negate()
        assert negated.at(1, 0) and not negated.at(0, 0)

    def test_boolean_algebra(self):
        system = self._system()
        a = TruthAssignment.from_predicate(system, lambda _, time: time >= 1)
        b = TruthAssignment.from_predicate(system, lambda _, time: time <= 1)
        assert a.conjoin(b).at(0, 1)
        assert not a.conjoin(b).at(0, 0)
        assert a.disjoin(b).is_valid()
        assert a.implies(a).is_valid()

    def test_count_true(self):
        system = self._system()
        only_time0 = TruthAssignment.from_predicate(
            system, lambda _, time: time == 0
        )
        assert only_time0.count_true() == len(system.runs)

    def test_equality(self):
        system = self._system()
        a = TruthAssignment.constant(system, True)
        b = TruthAssignment.constant(system, True)
        assert a == b
        assert a != b.negate()


class TestCaches:
    def test_cached_evaluation_memoizes(self):
        system = build_system(ExhaustiveCrashAdversary(3, 1, 2))
        calls = []

        def compute():
            calls.append(1)
            return TruthAssignment.constant(system, True)

        system.cached_evaluation("key", compute)
        system.cached_evaluation("key", compute)
        assert len(calls) == 1

    def test_clear_caches(self):
        system = build_system(ExhaustiveCrashAdversary(3, 1, 2))
        calls = []

        def compute():
            calls.append(1)
            return TruthAssignment.constant(system, True)

        system.cached_evaluation("key", compute)
        system.clear_caches()
        system.cached_evaluation("key", compute)
        assert len(calls) == 2
