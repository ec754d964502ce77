"""Tests for continual common knowledge ``C□_S`` — the paper's new
operator (Section 3.3) and the core of the whole reproduction."""

import pytest

from repro.knowledge.axioms import (
    check_continual_common_k45,
    check_continual_implies_common,
    check_everyone_unfolds,
    check_fixed_point,
    check_induction_rule,
    check_run_invariance,
    check_s5,
)
from repro.knowledge.formulas import (
    AllStarted,
    AtAllTimes,
    Believes,
    Common,
    ContinualCommon,
    Exists,
    EveryoneBox,
    Implies,
    Not,
)
from repro.knowledge.nonrigid import (
    NONFAULTY,
    ConstantSet,
    nonfaulty_and_zeros,
)
from repro.knowledge.semantics import run_reachability_components
from repro.model.config import InitialConfiguration
from repro.model.failures import FailurePattern


class TestDefinitionAndFastPath:
    @pytest.mark.parametrize("value", [0, 1])
    def test_component_algorithm_matches_fixpoint(self, crash3, value):
        fast = ContinualCommon(NONFAULTY, Exists(value)).evaluate(crash3)
        slow = ContinualCommon(
            NONFAULTY, Exists(value), force_fixpoint=True
        ).evaluate(crash3)
        assert fast == slow

    def test_component_algorithm_matches_fixpoint_omission(self, omission3):
        fast = ContinualCommon(NONFAULTY, Exists(1)).evaluate(omission3)
        slow = ContinualCommon(
            NONFAULTY, Exists(1), force_fixpoint=True
        ).evaluate(omission3)
        assert fast == slow

    def test_component_matches_on_nonrigid_decision_set(self, crash3):
        """Cross-check on the time-dependent set N∧Z used by the
        construction."""
        from repro.protocols.f_lambda import f_lambda_sequence

        _, first, _ = f_lambda_sequence(crash3)
        nonrigid = nonfaulty_and_zeros(first)
        fast = ContinualCommon(nonrigid, Exists(1)).evaluate(crash3)
        slow = ContinualCommon(
            nonrigid, Exists(1), force_fixpoint=True
        ).evaluate(crash3)
        assert fast == slow

    def test_empty_set_vacuously_continual(self, crash3):
        empty = ConstantSet(frozenset())
        from repro.knowledge.formulas import FALSE

        assert ContinualCommon(empty, FALSE).is_valid(crash3)

    def test_vacuous_runs_get_sentinel_component(self, crash3):
        """Runs without any S occurrence are flagged -1 (no reachable
        points)."""
        empty = ConstantSet(frozenset())
        components = run_reachability_components(crash3, empty)
        assert all(component == -1 for component in components)

    def test_nonfaulty_components_merge_everything(self, crash3):
        """Under N, time-0 leaf states connect every run into few
        components, so C□_N ∃1 is false everywhere (the all-0 run is
        reachable)."""
        truth = ContinualCommon(NONFAULTY, Exists(1)).evaluate(crash3)
        assert not any(
            truth.at(run_index, 0) for run_index in range(len(crash3.runs))
        )


class TestLemma34:
    def test_k45_axioms(self, crash3):
        phis = [Exists(0), Exists(1), Not(Exists(0)), AllStarted(1)]
        psis = [Exists(1), Not(Exists(1))]
        assert (
            check_continual_common_k45(crash3, NONFAULTY, phis, psis) == []
        )

    def test_fixed_point_axiom(self, crash3):
        for phi in (Exists(0), Exists(1)):
            assert check_fixed_point(crash3, NONFAULTY, phi) == []

    def test_induction_rule(self, crash3):
        assert (
            check_induction_rule(
                crash3, NONFAULTY, Believes(0, Exists(0)), Exists(0)
            )
            == []
        )

    def test_run_invariance(self, crash3):
        for phi in (Exists(0), AllStarted(1)):
            assert check_run_invariance(crash3, NONFAULTY, phi) == []

    def test_unfolds_to_iterated_everyone_box(self, crash3):
        assert check_everyone_unfolds(crash3, NONFAULTY, Exists(0)) == []

    def test_s5_for_knowledge_as_context(self, crash3):
        """Proposition 3.1, exercised through the axiom helper."""
        phis = [Exists(0), Not(Exists(1))]
        psis = [Exists(1)]
        for processor in range(3):
            assert check_s5(crash3, processor, phis, psis) == []


class TestStrictlyStrongerThanCommon:
    def test_continual_implies_common(self, crash3):
        for phi in (Exists(0), Exists(1)):
            assert (
                check_continual_implies_common(crash3, NONFAULTY, phi) == []
            )

    def test_converse_fails_witness(self, crash3):
        """There is a point with C_N ∃1 but not C□_N ∃1 — continual common
        knowledge is *strictly* stronger (Section 3.3)."""
        common = Common(NONFAULTY, Exists(1)).evaluate(crash3)
        continual = ContinualCommon(NONFAULTY, Exists(1)).evaluate(crash3)
        witness = any(
            common.at(run_index, time) and not continual.at(run_index, time)
            for run_index in range(len(crash3.runs))
            for time in range(crash3.horizon + 1)
        )
        assert witness

    def test_continual_constant_over_time(self, crash3):
        """C□ truth never varies within a run (Lemma 3.4(g))."""
        truth = ContinualCommon(NONFAULTY, Exists(0)).evaluate(crash3)
        for row in truth.to_rows():
            assert len(set(row)) == 1


class TestEveryoneBox:
    def test_everyone_box_is_run_level(self, crash3):
        truth = EveryoneBox(NONFAULTY, Exists(0)).evaluate(crash3)
        for row in truth.to_rows():
            assert len(set(row)) == 1

    def test_continual_implies_everyone_box(self, crash3):
        phi = Exists(0)
        assert Implies(
            ContinualCommon(NONFAULTY, phi), EveryoneBox(NONFAULTY, phi)
        ).is_valid(crash3)

    def test_everyone_box_equals_box_everyone(self, crash3):
        from repro.knowledge.formulas import Everyone

        phi = Exists(1)
        direct = EveryoneBox(NONFAULTY, phi).evaluate(crash3)
        composed = AtAllTimes(Everyone(NONFAULTY, phi)).evaluate(crash3)
        assert direct == composed


class TestConcreteContinualTruths:
    def test_all_silent_zero_run_keeps_cbox_among_deciders(self, crash3):
        """C□_{N∧Z} ∃1 must fail in runs whose component reaches the
        all-zeros run — concretely: whenever some nonfaulty processor has
        initial value 0, because its time-0 state links to the all-0 run."""
        from repro.protocols.f_lambda import f_lambda_sequence

        _, first, _ = f_lambda_sequence(crash3)
        nonrigid = nonfaulty_and_zeros(first)
        truth = ContinualCommon(nonrigid, Exists(1)).evaluate(crash3)
        for run_index, run in enumerate(crash3.runs):
            nonfaulty_zero = any(
                run.config.value_of(processor) == 0
                for processor in run.nonfaulty
            )
            if nonfaulty_zero:
                assert not truth.at(run_index, 0)

    def test_all_ones_failure_free_has_cbox(self, crash3):
        """In the all-1 failure-free crash run, C□_{N∧Z^{Λ,1}} ∃1 holds —
        the component contains only runs where any 0-learning is
        impossible for nonfaulty processors."""
        from repro.protocols.f_lambda import f_lambda_sequence

        _, first, _ = f_lambda_sequence(crash3)
        nonrigid = nonfaulty_and_zeros(first)
        truth = ContinualCommon(nonrigid, Exists(1)).evaluate(crash3)
        index = crash3.run_index_for(
            InitialConfiguration((1, 1, 1)), FailurePattern(())
        )
        assert truth.at(index, 0)
