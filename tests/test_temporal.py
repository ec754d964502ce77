"""Tests for the temporal operators □, ◇ and the paper's ⊡."""

from repro.knowledge.formulas import (
    Always,
    AtAllTimes,
    Eventually,
    Exists,
    Implies,
    Not,
    Predicate,
)
from repro.model.system import TruthAssignment


def _after_time(cutoff):
    """A point-level fact true strictly after *cutoff*."""

    def compute(system):
        return TruthAssignment.from_predicate(
            system, lambda _, time: time > cutoff
        )

    return Predicate(("after", cutoff), compute)


def _at_time(moment):
    def compute(system):
        return TruthAssignment.from_predicate(
            system, lambda _, time: time == moment
        )

    return Predicate(("at", moment), compute)


class TestAlways:
    def test_always_of_run_level_fact_is_fact(self, crash3):
        phi = Exists(0)
        assert (
            Always(phi).evaluate(crash3) == phi.evaluate(crash3)
        )

    def test_always_future_semantics(self, crash3):
        truth = Always(_after_time(1)).evaluate(crash3)
        # □(time > 1) holds exactly from time 2 on.
        assert not truth.at(0, 1)
        assert truth.at(0, 2)
        assert truth.at(0, 3)

    def test_always_implies_now(self, crash3):
        phi = _after_time(0)
        assert Implies(Always(phi), phi).is_valid(crash3)


class TestEventually:
    def test_eventually_of_future_fact(self, crash3):
        truth = Eventually(_at_time(2)).evaluate(crash3)
        assert truth.at(0, 0)
        assert truth.at(0, 2)
        assert not truth.at(0, 3)

    def test_now_implies_eventually(self, crash3):
        phi = _at_time(1)
        assert Implies(phi, Eventually(phi)).is_valid(crash3)

    def test_duality_with_always(self, crash3):
        """◇φ == ¬□¬φ."""
        phi = _at_time(2)
        left = Eventually(phi).evaluate(crash3)
        right = Not(Always(Not(phi))).evaluate(crash3)
        assert left == right


class TestAtAllTimes:
    def test_box_dot_includes_past(self, crash3):
        """⊡φ at a late time still requires φ at time 0 — unlike □."""
        phi = _after_time(0)  # false at time 0 only
        always = Always(phi).evaluate(crash3)
        at_all = AtAllTimes(phi).evaluate(crash3)
        assert always.at(0, 1)
        assert not at_all.at(0, 1)

    def test_box_dot_is_run_level(self, crash3):
        truth = AtAllTimes(_at_time(1)).evaluate(crash3)
        for row in truth.to_rows():
            assert len(set(row)) == 1

    def test_box_dot_implies_always(self, crash3):
        phi = _after_time(1)
        assert Implies(AtAllTimes(phi), Always(phi)).is_valid(crash3)

    def test_box_dot_of_constant_true(self, crash3):
        from repro.knowledge.formulas import TRUE

        assert AtAllTimes(TRUE).is_valid(crash3)
