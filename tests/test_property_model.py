"""Property-based tests (hypothesis) for the model substrate."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.config import InitialConfiguration
from repro.model.failures import (
    CrashBehavior,
    FailurePattern,
    OmissionBehavior,
)
from repro.model.views import ViewTable

from .oracles import build_run

N = 3
HORIZON = 3


def configs(n=N):
    return st.tuples(
        *[st.integers(min_value=0, max_value=1) for _ in range(n)]
    ).map(InitialConfiguration)


def crash_behaviors(n=N, horizon=HORIZON):
    return st.builds(
        CrashBehavior,
        st.integers(min_value=1, max_value=horizon),
        st.sets(
            st.integers(min_value=0, max_value=n - 1), max_size=n - 1
        ).map(frozenset),
    )


def omission_behaviors(n=N, horizon=HORIZON):
    round_omissions = st.dictionaries(
        st.integers(min_value=1, max_value=horizon),
        st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n - 1),
        max_size=horizon,
    )
    return st.builds(OmissionBehavior, round_omissions)


def patterns(behavior_strategy, n=N, t=1):
    return st.dictionaries(
        st.integers(min_value=0, max_value=n - 1),
        behavior_strategy,
        max_size=t,
    ).map(FailurePattern)


@given(config=configs(), pattern=patterns(crash_behaviors()))
@settings(max_examples=60, deadline=None)
def test_run_construction_deterministic(config, pattern):
    """Building the same scenario twice yields identical view matrices —
    a protocol, configuration and failure pattern uniquely determine the
    run (paper, Section 2.3)."""
    table = ViewTable()
    a = build_run(config, pattern, HORIZON, table)
    b = build_run(config, pattern, HORIZON, table)
    assert a.views == b.views
    assert a.deliveries == b.deliveries


@given(config=configs(), pattern=patterns(omission_behaviors()))
@settings(max_examples=60, deadline=None)
def test_views_have_perfect_recall(config, pattern):
    """Every non-initial view's `previous` pointer chains back to time 0
    through the processor's own history."""
    table = ViewTable()
    run = build_run(config, pattern, HORIZON, table)
    for processor in range(config.n):
        for time in range(HORIZON + 1):
            chain = table.history(run.view(processor, time))
            assert len(chain) == time + 1
            assert chain == [
                run.view(processor, earlier) for earlier in range(time + 1)
            ]


@given(config=configs(), pattern=patterns(crash_behaviors()))
@settings(max_examples=60, deadline=None)
def test_deliveries_consistent_with_pattern(config, pattern):
    """The recorded sender sets agree with the pattern's delivered()."""
    table = ViewTable()
    run = build_run(config, pattern, HORIZON, table)
    for round_number in range(1, HORIZON + 1):
        for receiver in range(config.n):
            senders = run.senders_to(receiver, round_number)
            for sender in range(config.n):
                if sender == receiver:
                    continue
                assert (sender in senders) == pattern.delivered(
                    sender, receiver, round_number
                )


@given(config=configs(), pattern=patterns(omission_behaviors()))
@settings(max_examples=60, deadline=None)
def test_known_values_subset_of_config(config, pattern):
    """No processor ever 'knows' a value that nobody holds."""
    table = ViewTable()
    run = build_run(config, pattern, HORIZON, table)
    present = {value for value in config.values}
    for processor in range(config.n):
        final = table.known_values(run.view(processor, HORIZON))
        assert final <= present
        assert config.value_of(processor) in final


@given(config=configs())
@settings(max_examples=30, deadline=None)
def test_failure_free_full_knowledge_after_one_round(config):
    """With no failures everyone knows every initial value at time 1."""
    table = ViewTable()
    run = build_run(config, FailurePattern(()), 1, table)
    for processor in range(config.n):
        known = table.known_initial_values(run.view(processor, 1))
        assert known == {p: config.value_of(p) for p in range(config.n)}


@given(
    config=configs(),
    pattern_a=patterns(omission_behaviors()),
    pattern_b=patterns(omission_behaviors()),
)
@settings(max_examples=40, deadline=None)
def test_view_equality_implies_equal_observations(
    config, pattern_a, pattern_b
):
    """Interning soundness: equal view ids across different runs imply the
    processor heard from the same senders in every round."""
    table = ViewTable()
    run_a = build_run(config, pattern_a, HORIZON, table)
    run_b = build_run(config, pattern_b, HORIZON, table)
    for processor in range(config.n):
        if run_a.view(processor, HORIZON) == run_b.view(processor, HORIZON):
            for round_number in range(1, HORIZON + 1):
                assert run_a.senders_to(
                    processor, round_number
                ) == run_b.senders_to(processor, round_number)
