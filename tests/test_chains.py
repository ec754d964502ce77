"""Tests for 0-chains and ``∃0*`` (Section 6.2 semantics)."""

from repro.knowledge.chains import (
    believes_faulty,
    eventually_exists_zero_star,
    exists_zero_star,
)
from repro.model.config import InitialConfiguration
from repro.model.failures import FailurePattern, OmissionBehavior


def _index(system, values, pattern=FailurePattern(())):
    return system.run_index_for(InitialConfiguration(values), pattern)


class TestExistsZeroStar:
    def test_nonfaulty_zero_is_a_chain_at_time_zero(self, omission3):
        """A nonfaulty processor with initial value 0 is a complete
        1-member chain (proof-consistent timing, see module docstring)."""
        truth = exists_zero_star().evaluate(omission3)
        index = _index(omission3, (0, 1, 1))
        assert truth.at(index, 0)

    def test_no_chain_in_all_ones_run(self, omission3):
        truth = exists_zero_star().evaluate(omission3)
        index = _index(omission3, (1, 1, 1))
        for time in range(omission3.horizon + 1):
            assert not truth.at(index, time)

    def test_monotone_in_time(self, omission3):
        truth = exists_zero_star().evaluate(omission3)
        for row in truth.to_rows():
            for earlier, later in zip(row, row[1:]):
                assert later or not earlier

    def test_faulty_silent_zero_never_forms_chain(self, omission3):
        """A faulty value-0 processor that never delivers cannot seed a
        chain: no nonfaulty endpoint ever receives it."""
        silent = OmissionBehavior({r: [1, 2] for r in (1, 2, 3)})
        index = _index(
            omission3, (0, 1, 1), FailurePattern({0: silent})
        )
        truth = exists_zero_star().evaluate(omission3)
        for time in range(omission3.horizon + 1):
            assert not truth.at(index, time)

    def test_faulty_zero_delivered_forms_two_member_chain(self, omission3):
        """If the faulty 0-holder delivers its round-1 message to a
        nonfaulty processor, the 2-member chain completes at time 1."""
        partial = OmissionBehavior({r: [2] for r in (1, 2, 3)})
        index = _index(
            omission3, (0, 1, 1), FailurePattern({0: partial})
        )
        truth = exists_zero_star().evaluate(omission3)
        assert not truth.at(index, 0)
        assert truth.at(index, 1)

    def test_chain_blocked_by_known_faulty_sender(self, omission3):
        """A receiver that already believes the sender faulty does not
        extend the chain: deliver-only-at-round-2 to a processor that saw
        the sender silent in round 1."""
        late = OmissionBehavior({1: [1, 2], 2: [2], 3: [1, 2]})
        # processor 0 (value 0) omits everything except round 2 to proc 1;
        # by time 1 processor 1 has detected 0's silence... but detection
        # requires knowing 0 *must* have sent — B_1^N(0 ∉ N) — which the
        # knowledge layer decides.  At minimum the chain cannot complete
        # before the delivery round.
        index = _index(omission3, (0, 1, 1), FailurePattern({0: late}))
        truth = exists_zero_star().evaluate(omission3)
        assert not truth.at(index, 0)
        assert not truth.at(index, 1)

    def test_believes_faulty_detects_silence(self, omission3):
        """Missing an expected message proves the sender faulty in the
        omission mode."""
        silent = OmissionBehavior({r: [1, 2] for r in (1, 2, 3)})
        index = _index(omission3, (1, 1, 1), FailurePattern({0: silent}))
        truth = believes_faulty(1, 0).evaluate(omission3)
        assert not truth.at(index, 0)
        assert truth.at(index, 1)

    def test_believes_faulty_never_about_self_when_nonfaulty(self, omission3):
        truth = believes_faulty(1, 1).evaluate(omission3)
        for run_index, run in enumerate(omission3.runs):
            if run.is_nonfaulty(1):
                for time in range(omission3.horizon + 1):
                    assert not truth.at(run_index, time)


class TestEventuallyExistsZeroStar:
    def test_run_level(self, omission3):
        truth = eventually_exists_zero_star().evaluate(omission3)
        for row in truth.to_rows():
            assert len(set(row)) == 1

    def test_matches_horizon_value(self, omission3):
        now = exists_zero_star().evaluate(omission3)
        ever = eventually_exists_zero_star().evaluate(omission3)
        for run_index in range(len(omission3.runs)):
            assert ever.at(run_index, 0) == now.at(
                run_index, omission3.horizon
            )

    def test_implied_by_current(self, omission3):
        now = exists_zero_star().evaluate(omission3)
        ever = eventually_exists_zero_star().evaluate(omission3)
        for run_index in range(len(omission3.runs)):
            for time in range(omission3.horizon + 1):
                if now.at(run_index, time):
                    assert ever.at(run_index, time)
