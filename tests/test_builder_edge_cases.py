"""Edge-case tests for the system builders and miscellaneous plumbing not
covered by the mainline suites."""

import pytest

from repro.errors import ConfigurationError
from repro.knowledge.formulas import Exists, Or, Predicate
from repro.model.adversary import ExhaustiveCrashAdversary
from repro.model.builder import (
    crash_system,
    omission_system,
    restricted_system,
)
from repro.model.config import InitialConfiguration
from repro.model.failures import FailureMode, FailurePattern, OmissionBehavior
from repro.model.system import TruthAssignment, build_system


class TestBuilderOptions:
    def test_explicit_configs_subset(self):
        system = build_system(
            ExhaustiveCrashAdversary(3, 1, 2),
            configs=[InitialConfiguration((1, 1, 1))],
        )
        assert len({run.config for run in system.runs}) == 1

    def test_uncached_builds_are_fresh(self):
        a = build_system(ExhaustiveCrashAdversary(3, 1, 2))
        b = build_system(ExhaustiveCrashAdversary(3, 1, 2))
        assert a is not b
        assert len(a.runs) == len(b.runs)

    def test_restricted_system_without_failure_free(self):
        pattern = FailurePattern({0: OmissionBehavior({1: [1]})})
        system = restricted_system(
            FailureMode.OMISSION,
            3,
            1,
            2,
            [pattern],
            include_failure_free=False,
        )
        assert all(run.pattern == pattern for run in system.runs)

    def test_empty_system_rejected(self):
        with pytest.raises(ConfigurationError):
            restricted_system(
                FailureMode.CRASH, 3, 1, 2, [], include_failure_free=False
            )
        with pytest.raises(ConfigurationError):
            build_system(ExhaustiveCrashAdversary(3, 1, 2), configs=[])

    def test_mode_recorded(self):
        assert crash_system(3, 1, 2).mode is FailureMode.CRASH
        assert omission_system(3, 1, 2).mode is FailureMode.OMISSION


class TestFormulaOddities:
    def test_or_semantics(self, crash3):
        either = Or((Exists(0), Exists(1))).evaluate(crash3)
        assert either.is_valid()  # every run has some value

    def test_empty_conjunction_is_true(self, crash3):
        from repro.knowledge.formulas import And

        assert And(()).is_valid(crash3)

    def test_empty_disjunction_is_false(self, crash3):
        from repro.knowledge.formulas import Or as OrFormula

        truth = OrFormula(()).evaluate(crash3)
        assert not truth.at(0, 0)

    def test_predicate_cache_key_isolated(self, crash3):
        a = Predicate(("demo", 1), lambda s: TruthAssignment.constant(s, True))
        b = Predicate(("demo", 2), lambda s: TruthAssignment.constant(s, False))
        assert a.evaluate(crash3) != b.evaluate(crash3)

    def test_formula_sugar_combinators(self, crash3):
        phi = Exists(0)
        assert phi.negate().and_(phi).evaluate(crash3).count_true() == 0
        assert phi.implies(phi).is_valid(crash3)

    def test_holds_at_point_accessor(self, crash3):
        phi = Exists(0)
        truth = phi.evaluate(crash3)
        for run_index in (0, len(crash3.runs) - 1):
            assert phi.holds_at(crash3, run_index, 0) == truth.at(run_index, 0)
