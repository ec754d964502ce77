"""Property-based tests (hypothesis) for the knowledge layer: random
formulas over the exhaustive n=3 crash system must satisfy the logic's
structural laws, random formulas over random small cells must evaluate
as the per-point reference evaluator of ``tests/oracles.py`` does, and
Corollary 3.3 must hold on random small cells."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decision_sets import DecisionPair, close_under_recall
from repro.knowledge.formulas import (
    FALSE,
    TRUE,
    AllStarted,
    Always,
    And,
    AtAllTimes,
    Believes,
    Common,
    ContinualCommon,
    EventualCommon,
    Eventually,
    Everyone,
    Exists,
    Implies,
    InitialValueIs,
    IsNonfaulty,
    Knows,
    Not,
    Or,
    Predicate,
)
from repro.knowledge.nonrigid import (
    NONFAULTY,
    ConstantSet,
    NonfaultyAndDeciding,
)
from repro.knowledge.semantics import run_reachability_components
from repro.model.adversary import ExhaustiveReceiveOmissionAdversary
from repro.model.builder import crash_system, omission_system
from repro.model.system import TruthAssignment, build_system
from repro.protocols.fip import pair_from_formulas

from . import oracles
from .test_kernels import induced_partition


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
    for row in truth.to_rows():
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


@given(case=corollary_3_3_cases())
@settings(max_examples=30, deadline=None)
def test_corollary_3_3_on_random_cells(case):
    """Corollary 3.3: for run-level φ, ``C□_S φ`` holds in a run iff φ
    holds throughout the run's reachability component.

    (a) The component evaluation equals the greatest-fixed-point
    definition.  (b) The production components induce the same run
    partition, with the same no-occurrence runs, as the union-find over
    the same-state index.
    """
    system, phi, nonrigid = case
    assert phi.is_run_level()
    components = ContinualCommon(nonrigid, phi).evaluate(system)
    fixpoint = ContinualCommon(
        nonrigid, phi, force_fixpoint=True
    ).evaluate(system)
    assert components == fixpoint

    labels = run_reachability_components(system, nonrigid)
    expected = oracles.components(system, nonrigid)
    assert induced_partition(labels) == induced_partition(expected)


# -- production against the reference evaluator -----------------------------

_RECEIVE_OMISSION_CELLS = {}


def small_cell(mode, n, horizon):
    """The exhaustive t=1 cell of *mode* (crash, omission or
    receive-omission)."""
    if mode == "crash":
        return crash_system(n, 1, horizon)
    if mode == "omission":
        return omission_system(n, 1, horizon)
    key = (n, horizon)
    if key not in _RECEIVE_OMISSION_CELLS:
        _RECEIVE_OMISSION_CELLS[key] = build_system(
            ExhaustiveReceiveOmissionAdversary(n, 1, horizon)
        )
    return _RECEIVE_OMISSION_CELLS[key]


@st.composite
def small_cells(draw):
    """A random crash, omission or receive-omission cell, n 2–4 and
    horizon 1–3 (horizon at most 2 for the 2,000-pattern omission
    cells at n=4)."""
    mode = draw(st.sampled_from(["crash", "omission", "receive-omission"]))
    n = draw(st.integers(min_value=2, max_value=4))
    top = 2 if n == 4 and mode != "crash" else 3
    return small_cell(mode, n, draw(st.integers(min_value=1, max_value=top)))


@st.composite
def nonrigid_sets(draw, system):
    """``N``, ``N ∧ A`` for a random recall-closed pair (its trigger
    sets of 2 to 64 random states), or a constant set."""
    kind = draw(st.sampled_from(["N", "N∧A", "constant"]))
    if kind == "N":
        return NONFAULTY
    if kind == "constant":
        return ConstantSet(
            draw(st.sets(st.integers(min_value=0, max_value=system.n - 1)))
        )
    views = sorted(system.occurring_views())
    size = min(len(views), draw(st.sampled_from([2, 8, 64])))
    zeros, ones = (
        close_under_recall(
            random.Random(draw(st.integers(0, 2**16))).sample(views, size),
            views,
            system.table,
        )
        for _ in range(2)
    )
    which = draw(st.sampled_from(["zeros", "ones"]))
    return NonfaultyAndDeciding(DecisionPair(zeros, ones), which)


def random_rows(seed, density):
    """A time-varying atom: a seeded random valuation of the points."""

    def compute(system):
        rng = np.random.default_rng(seed)
        shape = (len(system.runs), system.horizon + 1)
        return TruthAssignment.from_rows(system, rng.random(shape) < density)

    return Predicate(("random-rows", seed, density), compute)


def formula_trees(system, depth=3):
    """Random formulas of every ``build_formula`` kind, at most *depth*
    operators deep, whose group operators range over random nonrigid
    sets; ``C□`` comes in its component and its fixpoint form."""
    processors = st.integers(min_value=0, max_value=system.n - 1)
    values = st.integers(min_value=0, max_value=1)
    leaves = st.one_of(
        st.sampled_from([TRUE, FALSE]),
        st.builds(Exists, values),
        st.builds(AllStarted, values),
        st.builds(IsNonfaulty, processors),
        st.builds(InitialValueIs, processors, values),
    )
    if depth == 0:
        return leaves
    sub = formula_trees(system, depth - 1)
    operands = st.lists(sub, min_size=2, max_size=3)
    groups = nonrigid_sets(system)
    return st.one_of(
        leaves,
        st.builds(Not, sub),
        st.builds(And, operands),
        st.builds(Or, operands),
        st.builds(Implies, sub, sub),
        st.builds(Knows, processors, sub),
        st.builds(Everyone, groups, sub),
        st.builds(Common, groups, sub),
        st.builds(
            lambda nonrigid, phi, force: ContinualCommon(
                nonrigid, phi, force_fixpoint=force
            ),
            groups,
            sub,
            st.booleans(),
        ),
        st.builds(EventualCommon, groups, sub),
        st.builds(Always, sub),
        st.builds(Eventually, sub),
    )


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_production_matches_reference_evaluator(data):
    """Every random formula evaluates, point for point, as the per-point
    reference evaluator does."""
    system = data.draw(small_cells())
    formula = data.draw(formula_trees(system))
    truth = formula.evaluate(system)
    assert truth.bits().tolist() == oracles.evaluate(formula, system)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_fixpoints_match_reference_evaluator(data):
    """``C``, ``C□`` in both forms and ``C◇`` of a random operand over a
    random nonrigid set evaluate as the reference evaluator does."""
    system = data.draw(small_cells())
    nonrigid = data.draw(nonrigid_sets(system))
    phi = data.draw(formula_trees(system, depth=2))
    for formula in (
        Common(nonrigid, phi),
        ContinualCommon(nonrigid, phi),
        ContinualCommon(nonrigid, phi, force_fixpoint=True),
        EventualCommon(nonrigid, phi),
    ):
        truth = formula.evaluate(system)
        assert truth.bits().tolist() == oracles.evaluate(formula, system)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_point_operators_on_random_valuations(data):
    """``K``, ``B``, ``E``, ``□``, ``◇`` and ``⊡`` of a random valuation,
    which unlike the run-level atoms changes within a run, evaluate as
    the reference evaluator does."""
    system = data.draw(small_cells())
    nonrigid = data.draw(nonrigid_sets(system))
    processor = data.draw(st.integers(min_value=0, max_value=system.n - 1))
    phi = random_rows(
        data.draw(st.integers(min_value=0, max_value=2**16)),
        data.draw(st.sampled_from([0.5, 0.9, 0.99])),
    )
    for formula in (
        Knows(processor, phi),
        Believes(processor, phi, nonrigid),
        Everyone(nonrigid, phi),
        Always(phi),
        Eventually(phi),
        AtAllTimes(phi),
    ):
        truth = formula.evaluate(system)
        assert truth.bits().tolist() == oracles.evaluate(formula, system)


@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_decision_pair_matches_reference_walk(data):
    """``pair_from_formulas`` over ``B_i^S`` rules finds the decision
    states the per-point walk finds."""
    system = data.draw(small_cells())
    phi0 = data.draw(formula_trees(system, depth=1))
    phi1 = data.draw(formula_trees(system, depth=1))
    nonrigid = data.draw(nonrigid_sets(system))

    def zero(i):
        return Believes(i, phi0, nonrigid)

    def one(i):
        return Believes(i, phi1, nonrigid)

    pair = pair_from_formulas(system, zero, one)
    assert (pair.zeros, pair.ones) == oracles.pair_from_formulas(
        system, zero, one
    )
