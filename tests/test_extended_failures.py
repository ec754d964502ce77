"""Tests for the [PT86] extension failure modes: receive omissions and
general omissions."""

import pytest

from repro.errors import ConfigurationError
from repro.model.adversary import (
    ExhaustiveReceiveOmissionAdversary,
    SampledGeneralOmissionAdversary,
    exhaustive_adversary,
)
from repro.model.config import InitialConfiguration
from repro.model.failures import (
    FailureMode,
    FailurePattern,
    GeneralOmissionBehavior,
    OmissionBehavior,
    ReceiveOmissionBehavior,
    behavior_mode,
)
from repro.model.views import ViewTable

from .oracles import build_run


class TestReceiveOmissionBehavior:
    def test_never_drops_outgoing(self):
        behavior = ReceiveOmissionBehavior({1: [2]})
        assert behavior.sends_to(2, 1)

    def test_drops_listed_incoming(self):
        behavior = ReceiveOmissionBehavior({1: [2]})
        assert not behavior.receives_from(2, 1)
        assert behavior.receives_from(0, 1)
        assert behavior.receives_from(2, 2)

    def test_canonical_form(self):
        a = ReceiveOmissionBehavior({1: [2, 0], 2: []})
        b = ReceiveOmissionBehavior({1: [0, 2]})
        assert a == b and hash(a) == hash(b)

    def test_mode_classification(self):
        assert (
            behavior_mode(ReceiveOmissionBehavior({1: [0]}))
            is FailureMode.RECEIVE_OMISSION
        )

    def test_visibility(self):
        assert ReceiveOmissionBehavior({2: [1]}).is_visible_within(3, 3, 0)
        assert not ReceiveOmissionBehavior({4: [1]}).is_visible_within(3, 3, 0)

    def test_rejects_round_zero(self):
        with pytest.raises(ConfigurationError):
            ReceiveOmissionBehavior({0: [1]})


class TestGeneralOmissionBehavior:
    def test_both_directions(self):
        behavior = GeneralOmissionBehavior({1: [2]}, {2: [0]})
        assert not behavior.sends_to(2, 1)
        assert behavior.sends_to(0, 1)
        assert not behavior.receives_from(0, 2)
        assert behavior.receives_from(2, 2)

    def test_mode_classification(self):
        assert (
            behavior_mode(GeneralOmissionBehavior({1: [0]}, {}))
            is FailureMode.GENERAL_OMISSION
        )

    def test_visibility_from_either_direction(self):
        assert GeneralOmissionBehavior({}, {1: [2]}).is_visible_within(
            2, 3, 0
        )
        assert GeneralOmissionBehavior({2: [1]}, {}).is_visible_within(
            2, 3, 0
        )
        assert not GeneralOmissionBehavior({}, {}).is_visible_within(2, 3, 0)

    def test_duplicate_round_rejected(self):
        with pytest.raises(ConfigurationError):
            GeneralOmissionBehavior([(1, [2]), (1, [0])], {})


class TestDeliveredWithReceiverFiltering:
    def test_receive_fault_blocks_incoming(self):
        pattern = FailurePattern({1: ReceiveOmissionBehavior({1: [0]})})
        assert not pattern.delivered(0, 1, 1)
        assert pattern.delivered(0, 1, 2)
        assert pattern.delivered(2, 1, 1)

    def test_receive_fault_does_not_block_outgoing(self):
        pattern = FailurePattern({1: ReceiveOmissionBehavior({1: [0]})})
        assert pattern.delivered(1, 0, 1)

    def test_both_sides_consulted(self):
        pattern = FailurePattern(
            {
                0: OmissionBehavior({1: [2]}),
                1: ReceiveOmissionBehavior({1: [0]}),
            }
        )
        assert not pattern.delivered(0, 2, 1)  # sender-side drop
        assert not pattern.delivered(0, 1, 1)  # receiver-side drop
        assert pattern.delivered(2, 1, 1)

    def test_run_respects_receive_omissions(self):
        table = ViewTable()
        pattern = FailurePattern({1: ReceiveOmissionBehavior({1: [0]})})
        run = build_run(InitialConfiguration((0, 1, 1)), pattern, 2, table)
        assert 0 not in run.senders_to(1, 1)
        assert 0 in run.senders_to(2, 1)
        # the 0 still reaches processor 1 via processor 2's round-2 relay
        assert table.known_values(run.view(1, 2)) == frozenset((0, 1))


class TestExtendedAdversaries:
    def test_receive_exhaustive_count(self):
        adversary = ExhaustiveReceiveOmissionAdversary(3, 1, 2)
        per_processor = 2 ** (2 * 2) - 1
        assert adversary.count_patterns() == 1 + 3 * per_processor

    def test_receive_mode(self):
        assert (
            ExhaustiveReceiveOmissionAdversary(3, 1, 2).mode
            is FailureMode.RECEIVE_OMISSION
        )

    def test_factory_covers_receive(self):
        adversary = exhaustive_adversary(FailureMode.RECEIVE_OMISSION, 3, 1, 2)
        assert isinstance(adversary, ExhaustiveReceiveOmissionAdversary)

    def test_factory_rejects_general(self):
        with pytest.raises(ConfigurationError):
            exhaustive_adversary(FailureMode.GENERAL_OMISSION, 3, 1, 2)

    def test_sampled_general_deterministic(self):
        kwargs = dict(samples=15, seed=3)
        a = list(SampledGeneralOmissionAdversary(4, 2, 3, **kwargs).patterns())
        b = list(SampledGeneralOmissionAdversary(4, 2, 3, **kwargs).patterns())
        assert a == b

    def test_sampled_general_patterns_valid(self):
        for pattern in SampledGeneralOmissionAdversary(
            4, 2, 3, samples=20, seed=5
        ).patterns():
            pattern.validate(4, 2)
            for processor, behavior in pattern.behaviors:
                assert behavior.is_visible_within(3, 4, processor)

    def test_sampled_general_includes_failure_free(self):
        patterns = list(
            SampledGeneralOmissionAdversary(4, 2, 3, samples=5).patterns()
        )
        assert patterns[0] == FailurePattern(())


class TestGuaranteesAcrossModes:
    """The E15 headline facts, pinned as regression tests."""

    def test_everything_survives_receive_omissions(self):
        from repro.core.specs import check_eba
        from repro.model.system import build_system
        from repro.protocols.chain_eba import chain_eba
        from repro.protocols.p0 import p0
        from repro.protocols.p0opt import p0opt
        from repro.sim.engine import run_over_scenarios

        system = build_system(ExhaustiveReceiveOmissionAdversary(3, 1, 3))
        scenarios = system.scenarios()
        for protocol in (p0(), p0opt(), chain_eba()):
            outcome = run_over_scenarios(protocol, scenarios, 3, 1)
            assert check_eba(outcome).ok, protocol.name

    def test_general_omissions_break_chain_agreement(self):
        from repro.core.specs import check_weak_agreement, check_weak_validity
        from repro.model.config import all_configurations
        from repro.protocols.chain_eba import chain_eba
        from repro.sim.engine import run_over_scenarios

        patterns = list(
            SampledGeneralOmissionAdversary(4, 2, 4, samples=320, seed=7).patterns()
        )[:81]
        scenarios = [
            (config, pattern)
            for config in all_configurations(4)
            for pattern in patterns
        ]
        outcome = run_over_scenarios(chain_eba(), scenarios, 4, 2)
        assert check_weak_agreement(outcome)  # agreement DOES break
        assert not check_weak_validity(outcome)  # validity never does
