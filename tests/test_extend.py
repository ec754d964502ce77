"""Tests for the streaming monitor and the pattern truncation it reads.

Each round the monitor takes the cell one horizon deeper from the
provider and looks the live scenario up by its pattern truncated to the
observable prefix; truncating a canonical pattern must land on a
canonical pattern of the shallower cell.
"""

import pytest

from repro.errors import ConfigurationError
from repro.model.adversary import exhaustive_adversary
from repro.model.config import InitialConfiguration
from repro.model.failures import (
    NO_FAILURES,
    CrashBehavior,
    FailureMode,
    FailurePattern,
    OmissionBehavior,
    ReceiveOmissionBehavior,
    truncate_pattern,
)
from repro.model.provider import SystemProvider


class TestTruncatePattern:
    def test_failure_free_is_fixed_point(self):
        assert truncate_pattern(NO_FAILURES, 1, 3) is NO_FAILURES

    def test_future_crash_disappears(self):
        pattern = FailurePattern({0: CrashBehavior(3, frozenset())})
        assert truncate_pattern(pattern, 1, 3) is NO_FAILURES
        assert truncate_pattern(pattern, 2, 3) is NO_FAILURES

    def test_visible_crash_survives_verbatim(self):
        pattern = FailurePattern({0: CrashBehavior(2, frozenset([1]))})
        truncated = truncate_pattern(pattern, 2, 3)
        assert truncated == pattern

    def test_omissions_filtered_to_horizon(self):
        pattern = FailurePattern(
            {0: OmissionBehavior([(1, {1}), (3, {2})])}
        )
        truncated = truncate_pattern(pattern, 2, 3)
        assert truncated == FailurePattern({0: OmissionBehavior([(1, {1})])})

    def test_receive_omissions_filtered_to_horizon(self):
        pattern = FailurePattern(
            {1: ReceiveOmissionBehavior([(2, {0}), (3, {2})])}
        )
        truncated = truncate_pattern(pattern, 2, 3)
        assert truncated == FailurePattern(
            {1: ReceiveOmissionBehavior([(2, {0})])}
        )

    def test_truncations_of_canonical_patterns_are_canonical(self):
        # Every horizon-h truncation of an enumerated horizon-(h+1)
        # pattern must itself be an enumerated horizon-h pattern.
        for mode in (
            FailureMode.CRASH,
            FailureMode.OMISSION,
            FailureMode.RECEIVE_OMISSION,
        ):
            shallow = {
                pattern
                for pattern in exhaustive_adversary(mode, 3, 1, 2).patterns()
            }
            for pattern in exhaustive_adversary(mode, 3, 1, 3).patterns():
                assert truncate_pattern(pattern, 2, 3) in shallow


class TestStreamingMonitor:
    def _monitor(self, config_bits, pattern, **kwargs):
        from repro.sim.monitor import StreamingMonitor

        return StreamingMonitor(
            FailureMode.CRASH,
            3,
            1,
            InitialConfiguration(config_bits),
            pattern,
            provider=SystemProvider(),
            **kwargs,
        )

    def test_known_verdicts_all_nonfaulty_know(self):
        monitor = self._monitor(
            [0, 1, 1], FailurePattern({0: CrashBehavior(1, frozenset())})
        )
        for record in monitor.run(2):
            assert record["verdicts"]["knows"] == [True, True, True]
            assert record["verdicts"]["everyone"] is True
            assert record["verdicts"]["continual_common"] is False

    def test_absent_value_never_known(self):
        monitor = self._monitor([0, 0, 0], NO_FAILURES)
        record = monitor.advance()
        assert record["verdicts"]["knows"] == [False, False, False]
        assert record["verdicts"]["everyone"] is False
        assert record["verdicts"]["continual_common"] is False

    def test_rounds_advance_the_horizon(self):
        monitor = self._monitor([0, 1, 1], NO_FAILURES)
        records = monitor.run(3)
        assert [record["round"] for record in records] == [1, 2, 3]
        assert monitor.round == 3
        assert len(monitor.history) == 3

    def test_journal_events_emitted_and_valid(self, tmp_path):
        from repro.obs.journal import (
            TelemetryJournal,
            read_journal,
            validate_journal,
        )

        path = str(tmp_path / "monitor.jsonl")
        journal = TelemetryJournal(path, batch="test", experiment="monitor")
        monitor = self._monitor([0, 1, 1], NO_FAILURES, journal=journal)
        monitor.run(2)
        journal.close()
        assert validate_journal(path) == []
        events = [record["event"] for record in read_journal(path)]
        assert events.count("monitor_round") == 2

    def test_config_size_mismatch_rejected(self, tmp_path):
        from repro.sim.monitor import StreamingMonitor

        with pytest.raises(ConfigurationError):
            StreamingMonitor(
                FailureMode.CRASH,
                3,
                1,
                InitialConfiguration([0, 1]),
                NO_FAILURES,
            )

    def test_wrong_mode_behavior_rejected(self, tmp_path):
        from repro.sim.monitor import StreamingMonitor

        with pytest.raises(ConfigurationError):
            StreamingMonitor(
                FailureMode.CRASH,
                3,
                1,
                InitialConfiguration([0, 1, 1]),
                FailurePattern({0: OmissionBehavior([(1, {1})])}),
            )


class TestCanonicalizePattern:
    def test_crash_delivering_to_all_becomes_next_round_clean_crash(self):
        from repro.sim.monitor import canonicalize_pattern

        pattern = FailurePattern({0: CrashBehavior(1, frozenset([1, 2]))})
        canonical = canonicalize_pattern(pattern, 3)
        assert canonical == FailurePattern(
            {0: CrashBehavior(2, frozenset())}
        )

    def test_self_delivery_stripped(self):
        from repro.sim.monitor import canonicalize_pattern

        pattern = FailurePattern({0: CrashBehavior(1, frozenset([0, 1]))})
        canonical = canonicalize_pattern(pattern, 3)
        assert canonical == FailurePattern(
            {0: CrashBehavior(1, frozenset([1]))}
        )

    def test_self_omissions_stripped(self):
        from repro.sim.monitor import canonicalize_pattern

        pattern = FailurePattern({0: OmissionBehavior([(1, {0, 1})])})
        canonical = canonicalize_pattern(pattern, 3)
        assert canonical == FailurePattern({0: OmissionBehavior([(1, {1})])})
