"""Differential tests of the engine's state fold against a per-scenario
round loop.

:func:`reference_execute` is the engine as it ran before executions were
folded over shared protocol states: one scenario at a time, every
processor transitions every round, and deliveries come from
:meth:`FailurePattern.delivered` pair by pair.  The batch entry points
must reproduce it exactly — states, message counts, decisions, outcomes,
and which inputs are rejected — while calling ``messages`` once per
distinct node and ``transition`` at most once per distinct
full-information view; an isolated batch must call every protocol
function exactly as often as one ``execute`` per scenario.  Every entry
point must leave the cyclic collector as it found it.
"""

import gc
from collections import Counter
from typing import Dict, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.outcomes import DecisionRecord, ProtocolOutcome
from repro.errors import ConfigurationError
from repro.model.config import InitialConfiguration
from repro.model.failures import (
    CrashBehavior,
    FailurePattern,
    GeneralOmissionBehavior,
    OmissionBehavior,
    ReceiveOmissionBehavior,
)
from repro.multivalued.config import MultiConfiguration
from repro.multivalued.protocols import multi_opt, multi_race
from repro.protocols.base import ConcreteProtocol, Message
from repro.protocols.p0 import p0
from repro.protocols.p0opt import p0opt
from repro.protocols.registry import CONCRETE_PROTOCOLS
from repro.sim.engine import (
    ScenarioViews,
    execute,
    run_over_scenarios,
    traces_over_scenarios,
)
from repro.sim.trace import Trace

from .test_engine import EchoProtocol


def reference_execute(protocol, config, pattern, horizon, t) -> Trace:
    """One scenario, round by round: the oracle of the view fold."""
    n = config.n
    if horizon < 1:
        raise ConfigurationError(f"need horizon >= 1, got {horizon}")
    pattern.validate(n, t)
    states = [
        protocol.initial_state(processor, n, t, config.value_of(processor))
        for processor in range(n)
    ]
    trace = Trace(
        protocol_name=protocol.name,
        config=config,
        pattern=pattern,
        horizon=horizon,
    )
    trace.states.append(tuple(states))

    decisions: List[DecisionRecord] = [None] * n
    for processor in range(n):
        value = protocol.output(states[processor])
        if value is not None:
            decisions[processor] = (value, 0)

    for round_number in range(1, horizon + 1):
        outboxes: List[Dict[int, Message]] = []
        sent = 0
        for sender in range(n):
            outbox = {
                destination: payload
                for destination, payload in protocol.messages(
                    states[sender], round_number
                ).items()
                if payload is not None and destination != sender
            }
            for destination in outbox:
                if not 0 <= destination < n:
                    raise ConfigurationError(
                        f"{protocol.name}: processor {sender} addressed "
                        f"message to unknown destination {destination}"
                    )
            sent += len(outbox)
            outboxes.append(outbox)

        delivered = 0
        inboxes: List[Dict[int, Message]] = [dict() for _ in range(n)]
        for sender in range(n):
            for destination, payload in outboxes[sender].items():
                if pattern.delivered(sender, destination, round_number):
                    inboxes[destination][sender] = payload
                    delivered += 1

        states = [
            protocol.transition(states[processor], round_number, inboxes[processor])
            for processor in range(n)
        ]
        trace.states.append(tuple(states))
        trace.sent_counts.append(sent)
        trace.delivered_counts.append(delivered)

        for processor in range(n):
            if decisions[processor] is None:
                value = protocol.output(states[processor])
                if value is not None:
                    decisions[processor] = (value, round_number)

    trace.decisions = decisions
    return trace


class StrayProtocol(EchoProtocol):
    """Echo that, in round 2, also writes to itself, sends a ``None``
    payload and — when its initial value is 1 — addresses processor
    ``n``, which does not exist."""

    name = "stray"

    def messages(self, state, round_number):
        outbox = super().messages(state, round_number)
        if round_number == 2:
            outbox[state["me"]] = "self"
            outbox[(state["me"] + 1) % state["n"]] = None
            if state["value"] == 1:
                outbox[state["n"]] = "stray"
        return outbox


class AnonymousProtocol(ConcreteProtocol):
    """Flood the least value seen to everyone, itself included, and
    remember who was heard last round.  Its states do not name their
    processor, so different processors reach equal states, and only a
    fold that keeps them apart drops each one's own message and names the
    right senders.  It never decides."""

    name = "anonymous"

    def initial_state(self, processor, n, t, initial_value):
        return (n, initial_value, frozenset())

    def messages(self, state, round_number):
        n, least, _heard = state
        return {destination: least for destination in range(n)}

    def transition(self, state, round_number, received):
        n, least, _heard = state
        return (n, min([least, *received.values()]), frozenset(received))

    def output(self, state):
        return None


class DictStateProtocol(EchoProtocol):
    """Echo with plain, unhashable dict states."""

    name = "dict-states"

    def initial_state(self, processor, n, t, initial_value):
        return dict(super().initial_state(processor, n, t, initial_value))

    def transition(self, state, round_number, received):
        return dict(super().transition(state, round_number, received))


class CountingProtocol(ConcreteProtocol):
    """Counts the calls of each protocol function of *inner*."""

    def __init__(self, inner: ConcreteProtocol) -> None:
        self.inner = inner
        self.name = inner.name
        self.calls: Counter = Counter()

    def initial_state(self, processor, n, t, initial_value):
        self.calls["initial_state"] += 1
        return self.inner.initial_state(processor, n, t, initial_value)

    def messages(self, state, round_number):
        self.calls["messages"] += 1
        return self.inner.messages(state, round_number)

    def transition(self, state, round_number, received):
        self.calls["transition"] += 1
        return self.inner.transition(state, round_number, received)

    def output(self, state):
        self.calls["output"] += 1
        return self.inner.output(state)


def well_addressed_protocols() -> List[ConcreteProtocol]:
    return [factory() for factory in CONCRETE_PROTOCOLS.values()] + [
        p0opt(halt_after=None),
        multi_race(3),
        multi_opt(3),
        EchoProtocol(),
        AnonymousProtocol(),
    ]


def all_protocols() -> List[ConcreteProtocol]:
    return well_addressed_protocols() + [StrayProtocol()]


def full_information_views(scenarios, horizon) -> Counter:
    """Distinct full-information views per time, built as nested tuples
    straight from :meth:`FailurePattern.delivered`."""
    seen = set()
    for config, pattern in scenarios:
        n = config.n
        views = [(n, i, config.value_of(i)) for i in range(n)]
        seen.update((0, view) for view in views)
        for round_number in range(1, horizon + 1):
            views = [
                (
                    views[i],
                    tuple(
                        (j, views[j])
                        for j in range(n)
                        if j != i and pattern.delivered(j, i, round_number)
                    ),
                )
                for i in range(n)
            ]
            seen.update((round_number, view) for view in views)
    return Counter(time for time, _ in seen)


def reference_traces(protocol, scenarios, horizon, t):
    """The oracle's traces, or ``None`` when it raises
    :class:`ConfigurationError`."""
    try:
        return [
            reference_execute(protocol, config, pattern, horizon, t)
            for config, pattern in scenarios
        ]
    except ConfigurationError:
        return None


def reference_outcome(protocol, traces):
    try:
        return ProtocolOutcome(
            protocol.name, (trace.to_outcome() for trace in traces)
        )
    except ConfigurationError:  # a scenario listed twice
        return None


def trace_fields(trace: Trace):
    return (
        trace.protocol_name,
        trace.config,
        trace.pattern,
        trace.horizon,
        trace.states,
        trace.sent_counts,
        trace.delivered_counts,
        list(trace.decisions),
    )


def assert_matches_reference(protocol, scenarios, horizon, t):
    """Traces and outcome of the fold over *scenarios* (a list or shared
    views) equal the oracle's, or both raise."""
    expected = reference_traces(protocol, scenarios, horizon, t)
    try:
        traces = traces_over_scenarios(protocol, scenarios, horizon, t)
    except ConfigurationError:
        traces = None
    assert (traces is None) == (expected is None), protocol.name
    if expected is None:
        return
    assert [trace_fields(trace) for trace in traces] == [
        trace_fields(trace) for trace in expected
    ]

    wanted = reference_outcome(protocol, expected)
    try:
        outcome = run_over_scenarios(protocol, scenarios, horizon, t)
    except ConfigurationError:
        outcome = None
    assert (outcome is None) == (wanted is None)
    if wanted is not None:
        assert outcome.name == wanted.name
        assert [
            (run.config, run.pattern, run.decisions, run.horizon)
            for run in outcome
        ] == [
            (run.config, run.pattern, run.decisions, run.horizon)
            for run in wanted
        ]


# -- strategies --------------------------------------------------------------


def behaviors(processors, horizon):
    rounds = st.integers(1, horizon + 1)
    some = st.frozensets(processors, max_size=3)
    table = st.dictionaries(rounds, some, max_size=3)
    return st.one_of(
        st.builds(CrashBehavior, rounds, some),
        st.builds(OmissionBehavior, table),
        st.builds(ReceiveOmissionBehavior, table),
        st.builds(GeneralOmissionBehavior, table, table),
    )


@st.composite
def patterns(draw, small_n, large_n, horizon, t):
    # Mostly ids every configuration has, some only the larger n has; now
    # and then one faulty processor too many.
    ids = st.sampled_from(
        list(range(small_n)) * 3 + list(range(small_n, large_n))
    )
    limit = draw(st.sampled_from([t] * 5 + [t + 1]))
    faulty = draw(st.lists(ids, unique=True, max_size=min(limit, large_n)))
    anyone = behaviors(st.integers(0, large_n - 1), max(horizon, 1))
    return FailurePattern({processor: draw(anyone) for processor in faulty})


@st.composite
def configs(draw, n):
    if draw(st.booleans()):
        return InitialConfiguration(
            draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        )
    return MultiConfiguration(
        draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), 3
    )


@st.composite
def scenario_lists(draw):
    small_n, large_n = sorted(
        draw(st.lists(st.integers(2, 5), min_size=2, max_size=2, unique=True))
    )
    horizon = draw(st.sampled_from([0, 1, 1, 2, 2, 3, 3, 4]))
    t = draw(st.integers(1, small_n - 1))
    pattern_pool = [FailurePattern(())] + draw(
        st.lists(
            patterns(small_n, large_n, horizon, t), min_size=1, max_size=3
        )
    )
    config_pool = draw(
        st.lists(
            st.sampled_from([small_n, large_n]).flatmap(configs),
            min_size=2,
            max_size=4,
        )
    )
    scenarios = draw(
        st.lists(
            st.tuples(
                st.sampled_from(config_pool), st.sampled_from(pattern_pool)
            ),
            min_size=1,
            max_size=8,
        )
    )
    return scenarios, horizon, t


# -- properties --------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(scenario_lists())
def test_fold_matches_reference(drawn):
    scenarios, horizon, t = drawn
    try:
        shared = ScenarioViews(scenarios, horizon, t)
    except ConfigurationError:  # horizon 0: every engine call must raise
        shared = scenarios
    for protocol in all_protocols():
        assert_matches_reference(protocol, shared, horizon, t)


def reference_nodes(traces) -> Counter:
    """Distinct (processor, n, state, decision record so far) per time,
    read off the oracle's traces."""
    seen = set()
    for trace in traces:
        for time, states in enumerate(trace.states):
            for processor, (state, record) in enumerate(
                zip(states, trace.decisions)
            ):
                if record is not None and record[1] > time:
                    record = None
                seen.add((time, processor, trace.n, state, record))
    return Counter(time for time, *_ in seen)


@settings(max_examples=60, deadline=None)
@given(scenario_lists())
def test_one_call_per_distinct_state(drawn):
    scenarios, horizon, t = drawn
    scenarios = list(dict.fromkeys(scenarios))  # an outcome lists each once
    if reference_traces(EchoProtocol(), scenarios, horizon, t) is None:
        return
    shared = ScenarioViews(scenarios, horizon, t)
    starts = {
        (config.n, processor, config.value_of(processor))
        for config, _pattern in scenarios
        for processor in range(config.n)
    }
    views = full_information_views(scenarios, horizon)
    for protocol in (EchoProtocol(), p0(), p0opt(), multi_opt(3)):
        nodes = reference_nodes(
            reference_traces(protocol, scenarios, horizon, t)
        )
        for batch in (run_over_scenarios, traces_over_scenarios):
            counting = CountingProtocol(protocol)
            batch(counting, shared, horizon, t)
            calls = counting.calls
            assert calls["initial_state"] == len(starts)
            assert calls["messages"] == sum(
                nodes[time] for time in range(horizon)
            )
            # Every later node comes from some transition, and no two
            # transitions share a full-information view.
            assert sum(nodes.values()) - nodes[0] <= calls["transition"]
            assert calls["transition"] <= sum(views.values()) - views[0]
            assert calls["output"] <= len(starts) + calls["transition"]


@settings(max_examples=60, deadline=None)
@given(scenario_lists())
def test_isolated_batch_is_one_execution_per_scenario(drawn):
    scenarios, horizon, t = drawn
    for protocol in all_protocols():
        expected = reference_traces(protocol, scenarios, horizon, t)
        batched = CountingProtocol(protocol)
        try:
            traces = traces_over_scenarios(
                batched, scenarios, horizon, t, isolated=True
            )
        except ConfigurationError:
            traces = None
        assert (traces is None) == (expected is None), protocol.name
        if expected is None:
            continue
        assert [trace_fields(trace) for trace in traces] == [
            trace_fields(trace) for trace in expected
        ]
        separate = CountingProtocol(protocol)
        for config, pattern in scenarios:
            execute(separate, config, pattern, horizon, t)
        assert batched.calls == separate.calls, protocol.name


def test_e13_omission_case_calls_as_separate_executions():
    from repro.model.failures import FailureMode
    from repro.protocols.chain_eba import chain_eba
    from repro.workloads.scenarios import exhaustive_scenarios

    scenarios = exhaustive_scenarios(FailureMode.OMISSION, 3, 1, 3)
    batched = CountingProtocol(chain_eba())
    traces_over_scenarios(batched, scenarios, 3, 1, isolated=True)
    separate = CountingProtocol(chain_eba())
    for config, pattern in scenarios:
        execute(separate, config, pattern, 3, 1)
    assert batched.calls == separate.calls == Counter(
        initial_state=4560, messages=13680, transition=13680, output=7224
    )


class CollectorProbe(EchoProtocol):
    """Echo that records whether the cyclic collector ran its calls."""

    name = "collector-probe"

    def __init__(self):
        self.collector = set()

    def messages(self, state, round_number):
        self.collector.add(gc.isenabled())
        return super().messages(state, round_number)


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_paused_in_folds_and_restored(enabled):
    entry_points = [
        lambda protocol: run_over_scenarios(protocol, BOTH_SIZES, 2, 1),
        lambda protocol: traces_over_scenarios(protocol, BOTH_SIZES, 2, 1),
        lambda protocol: traces_over_scenarios(
            protocol, BOTH_SIZES, 2, 1, isolated=True
        ),
        lambda protocol: execute(protocol, *BOTH_SIZES[1], 2, 1),
    ]
    was_enabled = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        for call in entry_points:
            probe = CollectorProbe()
            call(probe)
            assert probe.collector == {False}
            assert gc.isenabled() is enabled
            # Folds that raise: unhashable states, a misaddressed message.
            for protocol in (DictStateProtocol(), StrayProtocol()):
                with pytest.raises(ConfigurationError):
                    call(protocol)
                assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


# -- rejected inputs ---------------------------------------------------------

BOTH_SIZES = [
    (InitialConfiguration([0, 1, 1]), FailurePattern(())),
    (InitialConfiguration([1, 0, 1, 1, 0]), FailurePattern(())),
]


@pytest.mark.parametrize(
    "scenarios, horizon, t",
    [
        pytest.param(BOTH_SIZES, 0, 1, id="horizon-0"),
        pytest.param(
            BOTH_SIZES
            + [
                (
                    InitialConfiguration([0, 1, 1]),
                    FailurePattern(
                        {
                            0: CrashBehavior(1, frozenset()),
                            1: CrashBehavior(2, frozenset()),
                        }
                    ),
                )
            ],
            2,
            1,
            id="too-many-faulty",
        ),
        pytest.param(
            # Processor 4 exists at n=5 only: a per-pattern cache keyed
            # without n would accept the pattern under the n=3 config.
            [
                (
                    InitialConfiguration([1, 0, 1, 1, 0]),
                    FailurePattern({4: CrashBehavior(1, frozenset())}),
                ),
                (
                    InitialConfiguration([0, 1, 1]),
                    FailurePattern({4: CrashBehavior(1, frozenset())}),
                ),
            ],
            2,
            1,
            id="faulty-id-valid-for-one-n",
        ),
        pytest.param(BOTH_SIZES, 2, 1, id="misaddressed"),
    ],
)
def test_rejected_exactly_when_reference_rejects(scenarios, horizon, t):
    assert reference_traces(StrayProtocol(), scenarios, horizon, t) is None
    for protocol in all_protocols():
        assert_matches_reference(protocol, scenarios, horizon, t)
    with pytest.raises(ConfigurationError):
        run_over_scenarios(StrayProtocol(), scenarios, horizon, t)


def test_stray_messages_are_accepted_before_round_two():
    traces = traces_over_scenarios(StrayProtocol(), BOTH_SIZES, 1, 1)
    assert [trace.sent_counts for trace in traces] == [[6], [20]]


def test_unhashable_states_rejected_naming_the_protocol():
    for batch in (run_over_scenarios, traces_over_scenarios):
        with pytest.raises(ConfigurationError, match="dict-states"):
            batch(DictStateProtocol(), BOTH_SIZES, 2, 1)


@pytest.mark.parametrize("horizon, t", [(2, 1), (3, 2)])
def test_views_bound_to_another_horizon_or_t_rejected(horizon, t):
    views = ScenarioViews(BOTH_SIZES, 3, 1)
    with pytest.raises(ConfigurationError):
        run_over_scenarios(p0(), views, horizon, t)
    with pytest.raises(ConfigurationError):
        traces_over_scenarios(p0(), views, horizon, t)


def test_views_are_the_sequence_of_their_scenarios():
    views = ScenarioViews(iter(BOTH_SIZES), 2, 1)
    assert len(views) == 2
    assert list(views) == BOTH_SIZES
    assert views[1] == BOTH_SIZES[1]
    assert BOTH_SIZES[0] in views
    outcome = run_over_scenarios(p0(), views, 2, 1)
    assert outcome.scenario_keys() == BOTH_SIZES


def test_views_shared_between_protocols_match_separate_batches():
    from repro.model.failures import FailureMode
    from repro.workloads.scenarios import exhaustive_scenarios

    scenarios = exhaustive_scenarios(FailureMode.OMISSION, 3, 1, 2)
    shared = ScenarioViews(scenarios, 2, 1)
    for protocol in well_addressed_protocols():
        alone = run_over_scenarios(protocol, scenarios, 2, 1)
        together = run_over_scenarios(protocol, shared, 2, 1)
        assert [run.decisions for run in together] == [
            run.decisions for run in alone
        ]
    # Fewer transitions than (scenario, round, processor) triples.
    counting = CountingProtocol(p0opt())
    run_over_scenarios(counting, shared, 2, 1)
    assert counting.calls["transition"] < len(scenarios) * 2 * 3


def test_execute_is_a_batch_of_one():
    config = InitialConfiguration([1, 1, 0])
    pattern = FailurePattern({2: OmissionBehavior({1: [0]})})
    for protocol in well_addressed_protocols():
        assert trace_fields(execute(protocol, config, pattern, 3, 1)) == (
            trace_fields(reference_execute(protocol, config, pattern, 3, 1))
        )
