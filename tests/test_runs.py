"""Unit tests for full-information run construction."""

import pytest

from repro.errors import ConfigurationError
from repro.model.config import InitialConfiguration
from repro.model.failures import (
    CrashBehavior,
    FailurePattern,
    OmissionBehavior,
)
from repro.model.views import ViewTable

from .oracles import build_run


@pytest.fixture
def table():
    return ViewTable()


def _config(*values):
    return InitialConfiguration(values)


class TestFailureFreeRun:
    def test_everyone_hears_everyone(self, table):
        run = build_run(_config(0, 1, 1), FailurePattern(()), 2, table)
        for round_number in (1, 2):
            for receiver in range(3):
                expected = frozenset(range(3)) - {receiver}
                assert run.senders_to(receiver, round_number) == expected

    def test_all_nonfaulty(self, table):
        run = build_run(_config(0, 1), FailurePattern(()), 1, table)
        assert run.nonfaulty == frozenset((0, 1))

    def test_views_exist_for_all_times(self, table):
        run = build_run(_config(0, 1), FailurePattern(()), 3, table)
        assert len(run.views) == 4

    def test_knowledge_spreads_in_one_round(self, table):
        run = build_run(_config(0, 1, 1), FailurePattern(()), 1, table)
        for processor in range(3):
            assert table.known_values(run.view(processor, 1)) == frozenset(
                (0, 1)
            )

    def test_exists_fact(self, table):
        run = build_run(_config(0, 1), FailurePattern(()), 1, table)
        assert run.exists(0) and run.exists(1)
        run_ones = build_run(_config(1, 1), FailurePattern(()), 1, table)
        assert not run_ones.exists(0)


class TestCrashRun:
    def test_crashed_processor_silent(self, table):
        pattern = FailurePattern({0: CrashBehavior(1, frozenset())})
        run = build_run(_config(0, 1, 1), pattern, 2, table)
        assert 0 not in run.senders_to(1, 1)
        assert 0 not in run.senders_to(1, 2)

    def test_partial_crash_round_delivery(self, table):
        pattern = FailurePattern({0: CrashBehavior(1, frozenset((1,)))})
        run = build_run(_config(0, 1, 1), pattern, 2, table)
        assert 0 in run.senders_to(1, 1)
        assert 0 not in run.senders_to(2, 1)

    def test_hidden_value_propagates_via_receiver(self, table):
        pattern = FailurePattern({0: CrashBehavior(1, frozenset((1,)))})
        run = build_run(_config(0, 1, 1), pattern, 2, table)
        # processor 2 misses the 0 in round 1 but gets it from 1 in round 2
        assert table.known_values(run.view(2, 1)) == frozenset((1,))
        assert table.known_values(run.view(2, 2)) == frozenset((0, 1))

    def test_nonfaulty_set(self, table):
        pattern = FailurePattern({0: CrashBehavior(1, frozenset())})
        run = build_run(_config(0, 1, 1), pattern, 1, table)
        assert run.nonfaulty == frozenset((1, 2))


class TestOmissionRun:
    def test_selective_omission(self, table):
        pattern = FailurePattern({0: OmissionBehavior({1: [1]})})
        run = build_run(_config(0, 1, 1), pattern, 2, table)
        assert 0 not in run.senders_to(1, 1)
        assert 0 in run.senders_to(2, 1)
        assert 0 in run.senders_to(1, 2)  # omission only in round 1

    def test_faulty_sender_keeps_receiving(self, table):
        """Sending-omission processors still receive everything."""
        pattern = FailurePattern(
            {0: OmissionBehavior({1: [1, 2], 2: [1, 2]})}
        )
        run = build_run(_config(0, 1, 1), pattern, 2, table)
        assert table.known_values(run.view(0, 1)) == frozenset((0, 1))


class TestDeterminismAndCorrespondence:
    def test_same_scenario_same_views(self, table):
        config = _config(0, 1, 1)
        pattern = FailurePattern({0: CrashBehavior(2, frozenset((1,)))})
        a = build_run(config, pattern, 3, table)
        b = build_run(config, pattern, 3, table)
        assert a.views == b.views

    def test_scenario_key(self, table):
        config = _config(0, 1)
        pattern = FailurePattern(())
        run = build_run(config, pattern, 1, table)
        assert run.scenario_key() == (config, pattern)

    def test_states_shared_across_indistinguishable_runs(self, table):
        """Processor 2's view at time 1 cannot depend on messages it never
        saw: a round-1 omission to processor 1 only is invisible to 2."""
        config = _config(0, 1, 1)
        clean = build_run(config, FailurePattern(()), 1, table)
        dirty = build_run(
            config,
            FailurePattern({0: OmissionBehavior({1: [1]})}),
            1,
            table,
        )
        assert clean.view(2, 1) == dirty.view(2, 1)
        assert clean.view(1, 1) != dirty.view(1, 1)

    def test_rejects_zero_horizon(self, table):
        with pytest.raises(ConfigurationError):
            build_run(_config(0, 1), FailurePattern(()), 0, table)
