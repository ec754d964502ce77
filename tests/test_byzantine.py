"""Tests for the Byzantine EIG substrate."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.byzantine.eig import (
    DEFAULT_VALUE,
    ByzantineResult,
    ByzantineStrategy,
    EIGTree,
    EquivocateStrategy,
    HonestStrategy,
    RandomLiarStrategy,
    SilentStrategy,
    run_eig,
)
from repro.errors import ConfigurationError

from . import oracles


class TestEIGTree:
    def test_leaf_resolution(self):
        tree = EIGTree(4, 1)
        tree.store((0, 1), 1)
        assert tree.resolve((0, 1)) == 1

    def test_missing_leaf_defaults(self):
        tree = EIGTree(4, 1)
        assert tree.resolve((0, 1)) == DEFAULT_VALUE

    def test_internal_majority(self):
        tree = EIGTree(4, 1)
        tree.store((0, 1), 1)
        tree.store((0, 2), 1)
        tree.store((0, 3), 0)
        assert tree.resolve((0,)) == 1

    def test_internal_tie_defaults(self):
        tree = EIGTree(3, 1)
        tree.store((0, 1), 1)
        tree.store((0, 2), 0)
        assert tree.resolve((0,)) == DEFAULT_VALUE

    def test_malformed_value_collapses_to_default(self):
        tree = EIGTree(3, 1)
        tree.store((0, 1), 7)
        assert tree.claims[(0, 1)] == DEFAULT_VALUE

    def test_path_outside_the_tree_is_rejected(self):
        tree = EIGTree(3, 1)
        for path in ((0, 0), (0, 1, 2), (3,)):
            with pytest.raises(ConfigurationError):
                tree.resolve(path)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 7),
        t=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
        missing=st.floats(0.0, 1.0),
        malformed=st.floats(0.0, 0.5),
    )
    def test_resolve_matches_recursive_oracle(
        self, n, t, seed, missing, malformed
    ):
        """Bottom-up resolution equals the recursive one at every path of
        a random tree, with claims missing or malformed at random."""
        rng = random.Random(seed)
        tree = EIGTree(n, t)
        paths = [
            path
            for length in range(min(t + 1, n) + 1)
            for path in itertools.permutations(range(n), length)
        ]
        for path in paths:
            draw = rng.random()
            if draw < missing:
                continue
            if draw < missing + malformed * (1 - missing):
                tree.store(path, rng.choice([2, -1, "1", None]))
            else:
                tree.store(path, rng.randint(0, 1))
        for path in paths:
            assert tree.resolve(path) == oracles.eig_resolve(tree, path)


class TestFailureFree:
    @pytest.mark.parametrize("values", list(itertools.product((0, 1), repeat=4)))
    def test_agreement_and_validity(self, values):
        result = run_eig(values, {}, t=1)
        assert result.agreement_holds()
        assert result.validity_holds()

    def test_majority_value_wins(self):
        result = run_eig((1, 1, 1, 0), {}, t=1)
        assert set(result.nonfaulty_decisions()) == {1}

    def test_honest_strategy_is_noop(self):
        for values in itertools.product((0, 1), repeat=4):
            honest = run_eig(values, {}, t=1)
            marked = run_eig(values, {0: HonestStrategy()}, t=1)
            # decisions of processors 1..3 must coincide (processor 0 is
            # "faulty" in the second run only nominally)
            assert honest.decisions[1:] == marked.decisions[1:]

    def test_keys_outside_the_tree_are_dropped(self):
        """Honest claims padded with keys no receiver's tree holds: one
        too long, naming the sender, of foreign ids.  Receivers drop
        them, so no relay carries one and every decision is the honest
        one."""

        class Padded(ByzantineStrategy):
            name = "padded"

            def corrupt(self, sender, round_number, honest, destinations):
                padded = dict(honest)
                for path in honest:
                    for key in (
                        path + path[:1],
                        path[:-1] + (sender,),
                        (99,) * len(path),
                    ):
                        padded.setdefault(key, 1)
                return {destination: padded for destination in destinations}

        class Recorder(HonestStrategy):
            """Relays honestly and keeps the keys it was asked to relay."""

            def __init__(self):
                self.relayed = []

            def corrupt(self, sender, round_number, honest, destinations):
                self.relayed.extend(honest)
                return super().corrupt(
                    sender, round_number, honest, destinations
                )

        for t in (1, 2):
            for values in itertools.product((0, 1), repeat=4):
                honest = run_eig(values, {0: HonestStrategy()}, t=t)
                padded = run_eig(values, {0: Padded()}, t=t)
                assert padded.decisions == honest.decisions
        for values in itertools.product((0, 1), repeat=4):
            recorder = Recorder()
            padded = run_eig(values, {0: Padded(), 1: recorder}, t=2)
            honest = run_eig(
                values, {0: HonestStrategy(), 1: HonestStrategy()}, t=2
            )
            assert padded.decisions == honest.decisions
            assert recorder.relayed
            for path in recorder.relayed:
                assert len(set(path)) == len(path)
                assert all(0 <= processor < 4 for processor in path)


class TestThreshold:
    def test_n4_t1_exhaustive_single_traitor(self):
        strategies = (
            [SilentStrategy(), EquivocateStrategy(0, 1),
             EquivocateStrategy(1, 0)]
            + [RandomLiarStrategy(seed) for seed in range(3)]
        )
        for values in itertools.product((0, 1), repeat=4):
            for faulty in range(4):
                for strategy in strategies:
                    result = run_eig(values, {faulty: strategy}, t=1)
                    assert result.agreement_holds(), (values, faulty,
                                                      strategy.name)
                    assert result.validity_holds(), (values, faulty,
                                                     strategy.name)

    def test_n3_t1_has_violations(self):
        """The three-generals impossibility, concretely on EIG."""
        strategies = (
            [SilentStrategy(), EquivocateStrategy(0, 1),
             EquivocateStrategy(1, 0)]
            + [RandomLiarStrategy(seed) for seed in range(5)]
        )
        violated = False
        for values in itertools.product((0, 1), repeat=3):
            for faulty in range(3):
                for strategy in strategies:
                    result = run_eig(values, {faulty: strategy}, t=1)
                    if not (
                        result.agreement_holds() and result.validity_holds()
                    ):
                        violated = True
        assert violated

    def test_n7_t2_two_traitors_sampled(self):
        import random

        rng = random.Random(1)
        for trial in range(30):
            values = tuple(rng.randint(0, 1) for _ in range(7))
            first, second = rng.sample(range(7), 2)
            result = run_eig(
                values,
                {
                    first: EquivocateStrategy(),
                    second: RandomLiarStrategy(trial),
                },
                t=2,
            )
            assert result.agreement_holds()
            assert result.validity_holds()

    def test_silence_subsumes_crash(self):
        for values in itertools.product((0, 1), repeat=4):
            result = run_eig(values, {2: SilentStrategy()}, t=1)
            assert result.agreement_holds() and result.validity_holds()


class TestValidation:
    def test_too_many_traitors_rejected(self):
        with pytest.raises(ConfigurationError):
            run_eig((0, 1, 1), {0: SilentStrategy(), 1: SilentStrategy()}, 1)

    def test_bad_processor_id_rejected(self):
        with pytest.raises(ConfigurationError):
            run_eig((0, 1, 1), {5: SilentStrategy()}, 1)

    def test_non_binary_values_rejected(self):
        with pytest.raises(ConfigurationError):
            run_eig((0, 2, 1), {}, 1)

    def test_result_accessors(self):
        result = run_eig((0, 1, 1, 1), {0: SilentStrategy()}, 1)
        assert result.n == 4
        assert result.faulty == frozenset((0,))
        assert result.strategy_names[0] == "silent"
        assert len(result.nonfaulty_decisions()) == 3


class TestDeterminism:
    def test_random_liar_is_seeded(self):
        values = (0, 1, 0, 1)
        a = run_eig(values, {1: RandomLiarStrategy(42)}, 1)
        b = run_eig(values, {1: RandomLiarStrategy(42)}, 1)
        assert a.decisions == b.decisions

    def test_distinct_seeds_produce_distinct_lies(self):
        """Decisions at n=4 are robust by design (that is the theorem), so
        seed variety must be visible in the forged payloads themselves."""
        honest = {(): 1}
        payloads = {
            tuple(
                sorted(
                    (dest, tuple(sorted(claims.items())))
                    for dest, claims in RandomLiarStrategy(seed)
                    .corrupt(1, 1, honest, [0, 2, 3])
                    .items()
                )
            )
            for seed in range(20)
        }
        assert len(payloads) > 1


@given(
    values=st.tuples(*[st.integers(min_value=0, max_value=1)] * 5),
    faulty=st.integers(min_value=0, max_value=4),
    seed=st.integers(min_value=0, max_value=500),
)
@settings(max_examples=40, deadline=None)
def test_property_n5_t1_always_agrees(values, faulty, seed):
    """n = 5 > 3t = 3: agreement + validity under arbitrary seeded lying."""
    result = run_eig(values, {faulty: RandomLiarStrategy(seed)}, t=1)
    assert result.agreement_holds()
    assert result.validity_holds()
