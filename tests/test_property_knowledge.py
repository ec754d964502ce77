"""Property-based tests (hypothesis) for the knowledge layer: random
formulas over the exhaustive n=3 crash system must satisfy the logic's
structural laws, and Corollary 3.3 must hold on random small cells."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decision_sets import DecisionPair, close_under_recall
from repro.knowledge.formulas import (
    AllStarted,
    Always,
    And,
    AtAllTimes,
    Believes,
    Common,
    ContinualCommon,
    Eventually,
    Exists,
    Implies,
    IsNonfaulty,
    Knows,
    Not,
    Or,
)
from repro.knowledge.nonrigid import NONFAULTY, NonfaultyAndDeciding
from repro.model import kernels
from repro.model.builder import crash_system, omission_system

from . import oracles
from .test_kernels import (
    block_component_labels,
    cell_partition,
    induced_partition,
)


@pytest.fixture(scope="module")
def system():
    return crash_system(3, 1, 3)


def atoms():
    return st.sampled_from(
        [
            Exists(0),
            Exists(1),
            AllStarted(0),
            AllStarted(1),
            IsNonfaulty(0),
            IsNonfaulty(1),
            IsNonfaulty(2),
        ]
    )


def formulas(max_depth=3):
    def extend(children):
        processor = st.integers(min_value=0, max_value=2)
        return st.one_of(
            st.builds(Not, children),
            st.builds(lambda a, b: And((a, b)), children, children),
            st.builds(lambda a, b: Or((a, b)), children, children),
            st.builds(lambda i, phi: Knows(i, phi), processor, children),
            st.builds(lambda i, phi: Believes(i, phi), processor, children),
            st.builds(Always, children),
            st.builds(Eventually, children),
            st.builds(AtAllTimes, children),
        )

    return st.recursive(atoms(), extend, max_leaves=6)


@given(phi=formulas())
@settings(max_examples=40, deadline=None)
def test_knowledge_axiom_random_formulas(system, phi):
    """K_i φ ⇒ φ for arbitrary formulas (S5 'T' axiom)."""
    for processor in range(3):
        assert Implies(Knows(processor, phi), phi).is_valid(system)


@given(phi=formulas())
@settings(max_examples=30, deadline=None)
def test_positive_introspection_random_formulas(system, phi):
    knows = Knows(1, phi)
    assert Implies(knows, Knows(1, knows)).is_valid(system)


@given(phi=formulas())
@settings(max_examples=30, deadline=None)
def test_knowledge_state_determined(system, phi):
    """K_i φ truth depends only on i's local state (by construction, but a
    regression guard for the group-broadcast evaluator)."""
    truth = Knows(0, phi).evaluate(system)
    by_state = {}
    for run_index, run in enumerate(system.runs):
        for time in range(system.horizon + 1):
            view = run.view(0, time)
            value = truth.at(run_index, time)
            assert by_state.setdefault(view, value) == value


@given(phi=formulas())
@settings(max_examples=25, deadline=None)
def test_temporal_laws_random_formulas(system, phi):
    assert Implies(Always(phi), phi).is_valid(system)
    assert Implies(phi, Eventually(phi)).is_valid(system)
    assert Implies(AtAllTimes(phi), Always(phi)).is_valid(system)
    duality = Eventually(phi).evaluate(system) == Not(
        Always(Not(phi))
    ).evaluate(system)
    assert duality


@given(phi=formulas())
@settings(max_examples=15, deadline=None)
def test_continual_implies_common_random_formulas(system, phi):
    """C□_S φ ⇒ C_S φ for arbitrary (including point-level) operands; this
    exercises the greatest-fixed-point evaluator."""
    assert Implies(
        ContinualCommon(NONFAULTY, phi), Common(NONFAULTY, phi)
    ).is_valid(system)


@given(phi=formulas())
@settings(max_examples=15, deadline=None)
def test_continual_run_invariance_random_formulas(system, phi):
    truth = ContinualCommon(NONFAULTY, phi).evaluate(system)
    for row in truth.values:
        assert len(set(row)) == 1


@given(phi=formulas())
@settings(max_examples=20, deadline=None)
def test_belief_consistent_for_members(system, phi):
    """(i ∈ N ∧ B_i^N φ) ⇒ φ for arbitrary formulas."""
    for processor in range(3):
        assert Implies(
            And((IsNonfaulty(processor), Believes(processor, phi))), phi
        ).is_valid(system)


def run_level_formulas(n):
    """Run-level φ: ∃v, all-started-with-v and i ∈ N, under ¬ and ∧."""
    leaves = st.sampled_from(
        [Exists(0), Exists(1), AllStarted(0), AllStarted(1)]
        + [IsNonfaulty(processor) for processor in range(n)]
    )
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.builds(Not, children),
            st.builds(lambda a, b: And((a, b)), children, children),
        ),
        max_leaves=4,
    )


@st.composite
def corollary_3_3_cases(draw):
    """A random small cell, a run-level φ over it and a nonrigid set:
    ``N``, or ``N ∧ A`` for one set of a pair whose sets are random
    trigger sets closed under recall."""
    make = draw(st.sampled_from([crash_system, omission_system]))
    n = draw(st.integers(min_value=2, max_value=3))
    horizon = draw(st.integers(min_value=1, max_value=3))
    system = make(n, 1, horizon)
    phi = draw(run_level_formulas(n))
    if draw(st.booleans()):
        return system, phi, NONFAULTY
    views = sorted(system.occurring_views())
    zeros, ones = (
        close_under_recall(
            draw(st.sets(st.sampled_from(views), max_size=6)),
            views,
            system.table,
        )
        for _ in range(2)
    )
    which = draw(st.sampled_from(["zeros", "ones"]))
    return system, phi, NonfaultyAndDeciding(DecisionPair(zeros, ones), which)


@given(case=corollary_3_3_cases(), target_entries=st.integers(1, 256))
@settings(max_examples=30, deadline=None)
def test_corollary_3_3_on_random_cells(case, target_entries):
    """Corollary 3.3: for run-level φ, ``C□_S φ`` holds in a run iff φ
    holds throughout the run's reachability component.

    (a) The component evaluation equals the greatest-fixed-point
    definition under every kernel.  (b) The components welded from limb
    blocks of any size induce the same run partition, with the same
    no-occurrence runs, as the monolithic same-state scan.
    """
    system, phi, nonrigid = case
    assert phi.is_run_level()
    for kernel in kernels.KERNELS:
        with kernels.use_kernel(kernel):
            components = ContinualCommon(nonrigid, phi).evaluate(system)
            fixpoint = ContinualCommon(
                nonrigid, phi, force_fixpoint=True
            ).evaluate(system)
        assert components.to_rows() == fixpoint.to_rows(), kernel

    partition = cell_partition(system, target_entries=target_entries)
    welded = block_component_labels(partition, nonrigid)
    monolithic = oracles.components(system, nonrigid)
    assert induced_partition(welded) == induced_partition(monolithic)
