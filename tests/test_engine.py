"""Tests for the synchronous execution engine and traces."""

import pytest

from repro.errors import ConfigurationError
from repro.model.config import InitialConfiguration
from repro.model.failures import (
    CrashBehavior,
    FailurePattern,
    OmissionBehavior,
)
from repro.protocols.base import ConcreteProtocol, broadcast
from repro.sim.engine import execute, run_over_scenarios


class EchoState(dict):
    """A dict state hashed by its items, as the engine interns states."""

    def __hash__(self):
        return hash(tuple(self.items()))


class EchoProtocol(ConcreteProtocol):
    """Test protocol: broadcast own id each round; remember who was heard;
    decide own initial value at time 1."""

    name = "echo"

    def initial_state(self, processor, n, t, initial_value):
        return EchoState(
            me=processor, n=n, value=initial_value, heard=(), time=0
        )

    def messages(self, state, round_number):
        return broadcast(state["n"], state["me"], ("id", state["me"]))

    def transition(self, state, round_number, received):
        new = EchoState(state)
        new["heard"] = state["heard"] + (frozenset(received),)
        new["time"] = round_number
        return new

    def output(self, state):
        return state["value"] if state["time"] >= 1 else None


class MisaddressedProtocol(EchoProtocol):
    name = "misaddressed"

    def messages(self, state, round_number):
        return {99: "boom"}


def _config(*values):
    return InitialConfiguration(values)


class TestExecute:
    def test_failure_free_delivery(self):
        trace = execute(EchoProtocol(), _config(0, 1, 1), FailurePattern(()), 2, 1)
        for processor in range(3):
            state = trace.state_of(processor, 2)
            assert state["heard"] == (
                frozenset(range(3)) - {processor},
                frozenset(range(3)) - {processor},
            )

    def test_decisions_recorded_at_first_output(self):
        trace = execute(EchoProtocol(), _config(0, 1), FailurePattern(()), 3, 1)
        assert trace.decisions == [(0, 1), (1, 1)]

    def test_crash_filters_messages(self):
        pattern = FailurePattern({0: CrashBehavior(1, frozenset((1,)))})
        trace = execute(EchoProtocol(), _config(0, 1, 1), pattern, 2, 1)
        assert trace.state_of(1, 2)["heard"] == (
            frozenset((0, 2)),
            frozenset((2,)),
        )
        assert trace.state_of(2, 2)["heard"] == (
            frozenset((1,)),
            frozenset((1,)),
        )

    def test_omission_filters_selectively(self):
        pattern = FailurePattern({0: OmissionBehavior({2: [1]})})
        trace = execute(EchoProtocol(), _config(0, 1, 1), pattern, 2, 1)
        assert trace.state_of(1, 2)["heard"] == (
            frozenset((0, 2)),
            frozenset((2,)),
        )

    def test_message_counts(self):
        trace = execute(EchoProtocol(), _config(0, 1, 1), FailurePattern(()), 2, 1)
        assert trace.sent_counts == [6, 6]
        assert trace.delivered_counts == [6, 6]
        assert trace.total_sent() == 12

    def test_dropped_messages_counted(self):
        pattern = FailurePattern({0: CrashBehavior(1, frozenset())})
        trace = execute(EchoProtocol(), _config(0, 1, 1), pattern, 1, 1)
        assert trace.sent_counts == [6]
        assert trace.delivered_counts == [4]

    def test_bad_destination_rejected(self):
        with pytest.raises(ConfigurationError):
            execute(MisaddressedProtocol(), _config(0, 1), FailurePattern(()), 1, 1)

    def test_zero_horizon_rejected(self):
        with pytest.raises(ConfigurationError):
            execute(EchoProtocol(), _config(0, 1), FailurePattern(()), 0, 1)

    def test_pattern_fault_bound_enforced(self):
        pattern = FailurePattern(
            {0: CrashBehavior(1, frozenset()), 1: CrashBehavior(1, frozenset())}
        )
        with pytest.raises(ConfigurationError):
            execute(EchoProtocol(), _config(0, 1, 1), pattern, 1, 1)

    def test_trace_outcome_projection(self):
        trace = execute(EchoProtocol(), _config(1, 0), FailurePattern(()), 2, 1)
        outcome = trace.to_outcome()
        assert outcome.decisions == ((1, 1), (0, 1))
        assert outcome.scenario_key() == (trace.config, trace.pattern)


class TestRunOverScenarios:
    def test_covers_all_scenarios(self):
        scenarios = [
            (_config(0, 1), FailurePattern(())),
            (_config(1, 1), FailurePattern(())),
        ]
        outcome = run_over_scenarios(EchoProtocol(), scenarios, 2, 1)
        assert len(outcome) == 2
        assert outcome.name == "echo"

    def test_deterministic(self):
        scenarios = [(_config(0, 1), FailurePattern(()))]
        a = run_over_scenarios(EchoProtocol(), scenarios, 2, 1)
        b = run_over_scenarios(EchoProtocol(), scenarios, 2, 1)
        first = next(iter(a))
        second = next(iter(b))
        assert first.decisions == second.decisions
