"""Tests for incremental horizon extension and the streaming monitor.

The differential contract under test: ``extend_system`` (and
``SystemProvider.extend`` above it) must produce a system that is
**indistinguishable** from a fresh ``build_system`` at the target horizon —
same run order, same interned view ids, same verdicts and the same
stored arrays — while touching only the new round's worth of
state.
"""

import pytest

from repro.errors import ConfigurationError
from repro.model.adversary import exhaustive_adversary
from repro.model.config import InitialConfiguration
from repro.model.fastbuild import build_arrays
from repro.model.failures import (
    NO_FAILURES,
    CrashBehavior,
    FailureMode,
    FailurePattern,
    OmissionBehavior,
    ReceiveOmissionBehavior,
    truncate_pattern,
)
from repro.model.partition import SystemArrays
from repro.model.provider import SystemProvider
from repro.model.system import build_system, extend_system

from . import oracles
from .test_fastbuild import assert_arrays_byte_identical
from .test_provider import assert_indexes_match


def build(mode, n, t, horizon):
    return build_system(exhaustive_adversary(mode, n, t, horizon))


def extend(system, horizon):
    adversary = exhaustive_adversary(
        system.mode, system.n, system.t, horizon
    )
    return extend_system(system, adversary)


def assert_systems_identical(actual, expected):
    """Full structural identity, including interned view-id assignment."""
    assert actual.n == expected.n
    assert actual.t == expected.t
    assert actual.horizon == expected.horizon
    assert actual.mode is expected.mode
    assert len(actual.runs) == len(expected.runs)
    assert actual.table.export_entries() == expected.table.export_entries()
    for mine, theirs in zip(actual.runs, expected.runs):
        assert mine.config == theirs.config
        assert mine.pattern == theirs.pattern
        assert mine.views == theirs.views
        assert mine.nonfaulty == theirs.nonfaulty
        assert mine.deliveries == theirs.deliveries
    assert_indexes_match(actual, expected)
    assert_indexes_match(expected, expected)


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


class TestExtendSystemParity:
    @pytest.mark.parametrize(
        "mode",
        [
            FailureMode.CRASH,
            FailureMode.OMISSION,
            FailureMode.RECEIVE_OMISSION,
        ],
    )
    def test_single_step_identical_to_fresh(self, mode):
        extended = extend(build(mode, 3, 1, 1), 2)
        assert_systems_identical(extended, build(mode, 3, 1, 2))

    def test_multi_step_crash_identical_to_fresh(self, crash3):
        system = build(FailureMode.CRASH, 3, 1, 1)
        for horizon in (2, 3):
            system = extend(system, horizon)
        assert_systems_identical(system, crash3)

    def test_multi_step_omission_identical_to_fresh(self, omission3):
        system = build(FailureMode.OMISSION, 3, 1, 1)
        for horizon in (2, 3):
            system = extend(system, horizon)
        assert_systems_identical(system, omission3)

    def test_multi_fault_cell_identical_to_fresh(self):
        extended = extend(build(FailureMode.CRASH, 3, 2, 2), 3)
        assert_systems_identical(extended, build(FailureMode.CRASH, 3, 2, 3))

    def test_base_system_left_untouched(self):
        base = build(FailureMode.CRASH, 3, 1, 2)
        base_runs = list(base.runs)
        base_views = len(base.table)
        extended = extend(base, 3)
        assert extended is not base
        assert base.horizon == 2
        assert base.runs == base_runs
        assert len(base.table) == base_views

    def test_wrong_horizon_rejected(self):
        base = build(FailureMode.CRASH, 3, 1, 1)
        with pytest.raises(ConfigurationError):
            extend(base, 3)
        with pytest.raises(ConfigurationError):
            extend(base, 1)

    def test_mode_mismatch_rejected(self):
        base = build(FailureMode.CRASH, 3, 1, 1)
        adversary = exhaustive_adversary(FailureMode.OMISSION, 3, 1, 2)
        with pytest.raises(ConfigurationError):
            extend_system(base, adversary)

    def test_parameter_mismatch_rejected(self):
        base = build(FailureMode.CRASH, 3, 1, 1)
        adversary = exhaustive_adversary(FailureMode.CRASH, 4, 1, 2)
        with pytest.raises(ConfigurationError):
            extend_system(base, adversary)


#: The two evaluators: the limb kernel and the per-point reference
#: evaluator of ``tests/oracles.py``.
EVALUATORS = {
    "chunked": lambda formula, system: formula.evaluate(system),
    "reference": oracles.evaluate,
}


class TestVerdictParity:
    @pytest.mark.parametrize("evaluator", ["reference", "chunked"])
    def test_formulas_agree_with_fresh_build(self, evaluator):
        from repro.knowledge.formulas import (
            ContinualCommon,
            Everyone,
            Knows,
            exists,
        )
        from repro.knowledge.nonrigid import NONFAULTY

        extended = extend(build(FailureMode.CRASH, 3, 1, 2), 3)
        fresh = build(FailureMode.CRASH, 3, 1, 3)
        phi = exists(1)
        evaluate = EVALUATORS[evaluator]
        for formula in (
            Knows(0, phi),
            Everyone(NONFAULTY, phi),
            ContinualCommon(NONFAULTY, phi),
        ):
            assert evaluate(formula, extended) == evaluate(formula, fresh)

    def test_evaluation_caches_are_isolated(self):
        from repro.knowledge.formulas import Knows, exists

        base = build(FailureMode.CRASH, 3, 1, 2)
        Knows(0, exists(1)).evaluate(base)
        assert base._formula_cache
        cached_before = dict(base._formula_cache)
        extended = extend(base, 3)
        # The new horizon starts with cold caches; the base keeps its own.
        assert extended._formula_cache == {}
        assert base._formula_cache == cached_before
        Knows(0, exists(1)).evaluate(extended)
        assert base._formula_cache == cached_before


class TestArraysParity:
    @pytest.mark.parametrize(
        "mode",
        [FailureMode.CRASH, FailureMode.OMISSION],
        ids=lambda mode: mode.value,
    )
    def test_extended_arrays_equal_fastbuild(self, mode):
        extended = extend(build(mode, 3, 1, 2), 3)
        assert_arrays_byte_identical(
            SystemArrays.from_system(extended), build_arrays(mode, 3, 1, 3)
        )

    def test_stored_target_equals_fastbuild(self, tmp_path):
        provider = SystemProvider(cache_dir=str(tmp_path))
        provider.get(FailureMode.CRASH, 3, 1, 2)
        provider.extend(FailureMode.CRASH, 3, 1, 3)
        reader = SystemProvider(cache_dir=str(tmp_path))
        stored = reader.get_arrays(FailureMode.CRASH, 3, 1, 3)
        assert reader.cache_info()["disk_hits"] == 1
        assert_arrays_byte_identical(
            stored, build_arrays(FailureMode.CRASH, 3, 1, 3)
        )


class TestProviderExtend:
    def test_extend_from_cached_base_identical_to_fresh(self, tmp_path):
        provider = SystemProvider(cache_dir=str(tmp_path))
        provider.get(FailureMode.CRASH, 3, 1, 2)
        extended = provider.extend(FailureMode.CRASH, 3, 1, 3)
        fresh = SystemProvider(disk_cache=False).get(
            FailureMode.CRASH, 3, 1, 3
        )
        assert_systems_identical(extended, fresh)

    def test_target_served_from_memory(self, tmp_path):
        provider = SystemProvider(cache_dir=str(tmp_path))
        provider.get(FailureMode.CRASH, 3, 1, 2)
        first = provider.extend(FailureMode.CRASH, 3, 1, 3)
        hits = provider.cache_info()["hits"]
        assert provider.extend(FailureMode.CRASH, 3, 1, 3) is first
        assert provider.cache_info()["hits"] == hits + 1

    def test_target_written_to_disk(self, tmp_path):
        provider = SystemProvider(cache_dir=str(tmp_path))
        provider.get(FailureMode.CRASH, 3, 1, 2)
        provider.extend(FailureMode.CRASH, 3, 1, 3)
        assert provider.has_current_cell(FailureMode.CRASH, 3, 1, 3)

    def test_intermediate_horizons_remembered(self, tmp_path):
        provider = SystemProvider(cache_dir=str(tmp_path))
        provider.get(FailureMode.CRASH, 3, 1, 1)
        provider.extend(FailureMode.CRASH, 3, 1, 3)
        keys = provider.cache_info()["keys"]
        assert ("crash", 3, 1, 2) in keys
        assert ("crash", 3, 1, 3) in keys
        # only the target cell goes to disk; intermediates stay in memory
        assert provider.has_current_cell(FailureMode.CRASH, 3, 1, 3)
        assert not provider.has_current_cell(FailureMode.CRASH, 3, 1, 2)

    def test_extend_from_disk_base(self, tmp_path):
        SystemProvider(cache_dir=str(tmp_path)).get(
            FailureMode.CRASH, 3, 1, 2
        )
        cold = SystemProvider(cache_dir=str(tmp_path))
        extended = cold.extend(FailureMode.CRASH, 3, 1, 3)
        assert cold.cache_info()["disk_hits"] == 1
        fresh = SystemProvider(disk_cache=False).get(
            FailureMode.CRASH, 3, 1, 3
        )
        assert_systems_identical(extended, fresh)

    def test_no_base_falls_back_to_get(self, tmp_path):
        provider = SystemProvider(cache_dir=str(tmp_path))
        system = provider.extend(FailureMode.CRASH, 3, 1, 2)
        assert system.horizon == 2
        fresh = SystemProvider(disk_cache=False).get(
            FailureMode.CRASH, 3, 1, 2
        )
        assert_systems_identical(system, fresh)

    def test_fallback_to_get_counted(self, tmp_path):
        from repro import obs

        def fallbacks():
            counters = obs.snapshot()["counters"]
            return counters.get("provider_extend_fallbacks", 0)

        provider = SystemProvider(cache_dir=str(tmp_path))
        before = fallbacks()
        provider.extend(FailureMode.CRASH, 3, 1, 2)
        assert fallbacks() == before + 1
        provider.extend(FailureMode.CRASH, 3, 1, 3)
        assert fallbacks() == before + 1


class TestStreamingMonitor:
    def _monitor(self, config_bits, pattern, tmp_path, **kwargs):
        from repro.sim.monitor import StreamingMonitor

        provider = SystemProvider(cache_dir=str(tmp_path / "cache"))
        return StreamingMonitor(
            FailureMode.CRASH,
            3,
            1,
            InitialConfiguration(config_bits),
            pattern,
            provider=provider,
            **kwargs,
        )

    def test_known_verdicts_all_nonfaulty_know(self, tmp_path):
        monitor = self._monitor(
            [0, 1, 1],
            FailurePattern({0: CrashBehavior(1, frozenset())}),
            tmp_path,
        )
        for record in monitor.run(2):
            assert record["verdicts"]["knows"] == [True, True, True]
            assert record["verdicts"]["everyone"] is True
            assert record["verdicts"]["continual_common"] is False

    def test_absent_value_never_known(self, tmp_path):
        monitor = self._monitor([0, 0, 0], NO_FAILURES, tmp_path)
        record = monitor.advance()
        assert record["verdicts"]["knows"] == [False, False, False]
        assert record["verdicts"]["everyone"] is False
        assert record["verdicts"]["continual_common"] is False

    def test_rounds_advance_the_horizon(self, tmp_path):
        monitor = self._monitor([0, 1, 1], NO_FAILURES, tmp_path)
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
        monitor = self._monitor(
            [0, 1, 1], NO_FAILURES, tmp_path, journal=journal
        )
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
