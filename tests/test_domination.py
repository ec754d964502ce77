"""Tests for the domination analysis (corresponding-run comparisons)."""

import pytest

from repro.core.domination import (
    compare,
    dominates,
    equivalent_decisions,
    strictly_dominates,
)
from repro.core.outcomes import ProtocolOutcome, RunOutcome
from repro.errors import ConfigurationError
from repro.model.config import InitialConfiguration
from repro.model.failures import CrashBehavior, FailurePattern


def _outcome(name, rows):
    """rows: list of (values, pattern, decisions)."""
    outcome = ProtocolOutcome(name)
    for values, pattern, decisions in rows:
        outcome.add(
            RunOutcome(
                config=InitialConfiguration(values),
                pattern=pattern,
                decisions=tuple(decisions),
                horizon=3,
            )
        )
    return outcome


EMPTY = FailurePattern(())


class TestCompare:
    def test_identical_outcomes_dominate_not_strictly(self):
        rows = [((0, 1), EMPTY, [(0, 1), (0, 1)])]
        a = _outcome("A", rows)
        b = _outcome("B", rows)
        report = compare(a, b)
        assert report.dominates and not report.strict

    def test_earlier_decision_strict(self):
        a = _outcome("A", [((0, 1), EMPTY, [(0, 0), (0, 1)])])
        b = _outcome("B", [((0, 1), EMPTY, [(0, 1), (0, 1)])])
        report = compare(a, b)
        assert report.strict
        assert len(report.improvements) == 1
        assert report.improvements[0].processor == 0

    def test_deciding_where_other_never_counts_as_sooner(self):
        a = _outcome("A", [((0, 1), EMPTY, [(0, 1), (0, 1)])])
        b = _outcome("B", [((0, 1), EMPTY, [(0, 1), None])])
        assert strictly_dominates(a, b)

    def test_later_decision_breaks_domination(self):
        a = _outcome("A", [((0, 1), EMPTY, [(0, 2), (0, 1)])])
        b = _outcome("B", [((0, 1), EMPTY, [(0, 1), (0, 1)])])
        report = compare(a, b)
        assert not report.dominates
        assert report.counterexamples

    def test_never_deciding_breaks_domination(self):
        a = _outcome("A", [((0, 1), EMPTY, [None, (0, 1)])])
        b = _outcome("B", [((0, 1), EMPTY, [(0, 3), (0, 1)])])
        assert not dominates(a, b)

    def test_faulty_processors_ignored(self):
        pattern = FailurePattern({0: CrashBehavior(1, frozenset())})
        a = _outcome("A", [((0, 1), pattern, [None, (0, 1)])])
        b = _outcome("B", [((0, 1), pattern, [(0, 0), (0, 1)])])
        assert dominates(a, b)

    def test_incomparable_pair(self):
        """A earlier on one processor, B earlier on another — classic
        P0-vs-P1 shape."""
        a = _outcome("A", [((0, 1), EMPTY, [(0, 0), (1, 2)])])
        b = _outcome("B", [((0, 1), EMPTY, [(0, 2), (1, 0)])])
        assert not dominates(a, b)
        assert not dominates(b, a)

    def test_mismatched_scenario_spaces_rejected(self):
        a = _outcome("A", [((0, 1), EMPTY, [(0, 0), (0, 0)])])
        b = _outcome(
            "B",
            [
                ((0, 1), EMPTY, [(0, 0), (0, 0)]),
                ((1, 1), EMPTY, [(1, 0), (1, 0)]),
            ],
        )
        with pytest.raises(ConfigurationError):
            compare(a, b)

    def test_witness_description_readable(self):
        a = _outcome("A", [((0, 1), EMPTY, [(0, 0), (0, 1)])])
        b = _outcome("B", [((0, 1), EMPTY, [(0, 1), (0, 1)])])
        report = compare(a, b)
        text = report.improvements[0].describe("A", "B")
        assert "processor 0" in text and "t=0" in text


class TestEquivalentDecisions:
    def test_identical(self):
        rows = [((0, 1), EMPTY, [(0, 1), (0, 1)])]
        equal, diffs = equivalent_decisions(
            _outcome("A", rows), _outcome("B", rows)
        )
        assert equal and not diffs

    def test_value_difference_detected(self):
        a = _outcome("A", [((0, 1), EMPTY, [(0, 1), (0, 1)])])
        b = _outcome("B", [((0, 1), EMPTY, [(1, 1), (0, 1)])])
        equal, diffs = equivalent_decisions(a, b)
        assert not equal and diffs

    def test_time_difference_detected(self):
        a = _outcome("A", [((0, 1), EMPTY, [(0, 1), (0, 1)])])
        b = _outcome("B", [((0, 1), EMPTY, [(0, 2), (0, 1)])])
        equal, _ = equivalent_decisions(a, b)
        assert not equal

    def test_faulty_difference_ignored_by_default(self):
        pattern = FailurePattern({0: CrashBehavior(1, frozenset())})
        a = _outcome("A", [((0, 1), pattern, [(0, 1), (0, 1)])])
        b = _outcome("B", [((0, 1), pattern, [(1, 2), (0, 1)])])
        assert equivalent_decisions(a, b)[0]
        assert not equivalent_decisions(a, b, nonfaulty_only=False)[0]


class TestWitnessCap:
    """The verdict reads every sample; ``max_witnesses`` caps the lists."""

    @pytest.fixture(scope="class")
    def races(self, crash3):
        from repro.protocols.registry import outcome_for

        return outcome_for("P0", crash3), outcome_for("P0opt", crash3)

    @pytest.mark.parametrize("cap", [0, 1])
    def test_verdict_independent_of_cap(self, races, cap):
        p0_out, p0opt_out = races
        for a, b in ((p0_out, p0opt_out), (p0opt_out, p0_out)):
            full = compare(a, b)
            capped = compare(a, b, max_witnesses=cap)
            assert (capped.dominates, capped.strict) == (
                full.dominates,
                full.strict,
            )
            assert capped.counterexamples == full.counterexamples[:cap]
            assert capped.improvements == full.improvements[:cap]
            assert capped.scenarios_compared == full.scenarios_compared
        assert not compare(p0_out, p0opt_out, max_witnesses=0).dominates
        assert compare(p0opt_out, p0_out, max_witnesses=0).strict

    def test_negative_cap_rejected(self, races):
        with pytest.raises(ConfigurationError):
            compare(*races, max_witnesses=-1)
