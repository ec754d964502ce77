"""Tests for the analysis subpackage: diagrams, introspection, knowledge
reports and reachability-component inspection."""

import pytest

from repro.analysis.components import component_summaries, witness_path
from repro.analysis.diagram import (
    render_decision_timeline,
    render_outcome_diagram,
    render_run_diagram,
)
from repro.analysis.introspection import (
    discovered_failure_counts,
    failure_evidence,
    visible_deliveries,
    waste,
)
from repro.analysis.knowledge_report import (
    belief_matrix,
    knowledge_table,
    who_learns_value,
)
from repro.core.outcomes import RunOutcome
from repro.knowledge.formulas import Exists
from repro.knowledge.nonrigid import NONFAULTY
from repro.model.config import InitialConfiguration
from repro.model.failures import (
    CrashBehavior,
    FailurePattern,
    OmissionBehavior,
)
from repro.model.views import ViewTable

from .oracles import build_run


class TestDiagram:
    def test_basic_markers(self):
        config = InitialConfiguration((0, 1, 1))
        pattern = FailurePattern({0: CrashBehavior(1, frozenset((1,)))})
        diagram = render_run_diagram(
            config, pattern, 2, [(0, 0), (0, 1), (0, 2)]
        )
        assert "p0*" in diagram  # faulty marker
        assert "[0]" in diagram and "[1]" in diagram
        assert "D0" in diagram
        assert "x0" in diagram  # dropped message from p0
        assert "crash@r1" in diagram

    def test_failure_free_has_no_drop_markers(self):
        config = InitialConfiguration((1, 1))
        diagram = render_run_diagram(config, FailurePattern(()), 2)
        assert "x" not in diagram.splitlines()[1]

    def test_outcome_diagram(self):
        run = RunOutcome(
            config=InitialConfiguration((0, 1)),
            pattern=FailurePattern(()),
            decisions=((0, 0), (0, 1)),
            horizon=2,
        )
        diagram = render_outcome_diagram(run)
        assert "D0" in diagram

    def test_decision_timeline(self):
        config = InitialConfiguration((0, 1))
        pattern = FailurePattern(())
        a = RunOutcome(config, pattern, ((0, 0), (0, 1)), 2)
        b = RunOutcome(config, pattern, ((0, 1), None), 2)
        timeline = render_decision_timeline([a, b], ["fast", "slow"])
        assert "0@t0" in timeline
        assert "never" in timeline

    def test_timeline_rejects_mismatched_runs(self):
        a = RunOutcome(
            InitialConfiguration((0, 1)), FailurePattern(()), ((0, 0), (0, 0)), 2
        )
        b = RunOutcome(
            InitialConfiguration((1, 1)), FailurePattern(()), ((1, 0), (1, 0)), 2
        )
        with pytest.raises(ValueError):
            render_decision_timeline([a, b], ["a", "b"])


class TestIntrospection:
    def _run(self, pattern=FailurePattern(()), values=(0, 1, 1), horizon=2):
        table = ViewTable()
        run = build_run(InitialConfiguration(values), pattern, horizon, table)
        return table, run

    def test_visible_deliveries_failure_free(self):
        table, run = self._run()
        deliveries = visible_deliveries(table, run.view(0, 2))
        # own receipts for both rounds plus everyone's round-1 receipts
        assert deliveries[(0, 1)] == frozenset((1, 2))
        assert deliveries[(0, 2)] == frozenset((1, 2))
        assert deliveries[(1, 1)] == frozenset((0, 2))

    def test_visible_deliveries_bounded_by_information_flow(self):
        table, run = self._run()
        deliveries = visible_deliveries(table, run.view(0, 1))
        # at time 1 processor 0 cannot yet see others' round-1 receipts
        assert (1, 1) not in deliveries
        assert deliveries == {(0, 1): frozenset((1, 2))}

    def test_failure_evidence_from_direct_miss(self):
        pattern = FailurePattern({2: CrashBehavior(1, frozenset())})
        table, run = self._run(pattern)
        evidence = failure_evidence(table, run.view(0, 1), 3)
        assert evidence == {2: 1}

    def test_failure_evidence_via_relay(self):
        # processor 0 omits only to 1 in round 1: processor 2 sees nothing
        # directly but learns about it from 1's relayed state at time 2.
        pattern = FailurePattern({0: OmissionBehavior({1: [1]})})
        table, run = self._run(pattern)
        assert failure_evidence(table, run.view(2, 1), 3) == {}
        assert failure_evidence(table, run.view(2, 2), 3) == {0: 1}

    def test_discovered_counts_and_waste(self):
        pattern = FailurePattern(
            {
                0: CrashBehavior(1, frozenset()),
                1: CrashBehavior(1, frozenset()),
            }
        )
        table = ViewTable()
        run = build_run(InitialConfiguration((1, 1, 1, 1)), pattern, 2, table)
        view = run.view(2, 1)
        counts = discovered_failure_counts(table, view, 4)
        assert counts[1] == 2  # both silent crashes exposed in round 1
        assert waste(table, view, 4) == 1

    def test_waste_zero_failure_free(self):
        table, run = self._run()
        assert waste(table, run.view(1, 2), 3) == 0

    def test_hidden_crash_has_zero_waste(self):
        # crash that delivers to everyone it can in round 1 but is silent
        # in round 2: exposed only at round 2 -> D(2)=1 -> waste 0.
        pattern = FailurePattern({0: CrashBehavior(2, frozenset())})
        table, run = self._run(pattern)
        assert waste(table, run.view(1, 2), 3) == 0


class TestKnowledgeReport:
    def test_knowledge_table_renders(self, crash3):
        text = knowledge_table(
            crash3, 0, [("∃0", Exists(0)), ("∃1", Exists(1))]
        )
        assert "time" in text and "∃0" in text
        assert text.count("\n") >= crash3.horizon + 2

    def test_belief_matrix_marks_faulty(self, crash3):
        # find a run with a faulty processor
        for run_index, run in enumerate(crash3.runs):
            if run.pattern.num_faulty() == 1:
                break
        text = belief_matrix(crash3, run_index, Exists(0), "∃0")
        assert "(faulty)" in text

    def test_who_learns_value_failure_free(self, crash3):
        index = crash3.run_index_for(
            InitialConfiguration((0, 1, 1)), FailurePattern(())
        )
        learners = who_learns_value(crash3, index, 0)
        assert learners[0] == 0  # holder believes at time 0
        assert learners[1] == 1 and learners[2] == 1

    def test_who_learns_value_absent_when_never(self, crash3):
        index = crash3.run_index_for(
            InitialConfiguration((1, 1, 1)), FailurePattern(())
        )
        assert who_learns_value(crash3, index, 0) == {}


class TestComponents:
    def test_summaries_cover_all_occurring_runs(self, crash3):
        summaries = component_summaries(
            crash3, NONFAULTY, {"∃1": Exists(1)}
        )
        covered = sum(len(summary.run_indices) for summary in summaries)
        assert covered == len(crash3.runs)  # N is never empty with t=1

    def test_uniform_fact_matches_continual_ck(self, crash3):
        from repro.knowledge.formulas import ContinualCommon

        truth = ContinualCommon(NONFAULTY, Exists(1)).evaluate(crash3)
        for summary in component_summaries(
            crash3, NONFAULTY, {"∃1": Exists(1)}
        ):
            for run_index in summary.run_indices:
                assert truth.at(run_index, 0) == summary.fact_uniform["∃1"]

    def test_witness_path_exists_within_component(self, crash3):
        summaries = component_summaries(crash3, NONFAULTY)
        big = summaries[0]
        source, target = big.run_indices[0], big.run_indices[-1]
        path = witness_path(crash3, NONFAULTY, source, target)
        assert path is not None
        # every link is a genuine shared-state occurrence
        for link in path:
            run_a = crash3.runs[link.run_a]
            run_b = crash3.runs[link.run_b]
            assert run_a.view(link.processor, link.time_a) == run_b.view(
                link.processor, link.time_b
            )
            assert link.describe(crash3)

    def test_witness_path_trivial_for_same_run(self, crash3):
        assert witness_path(crash3, NONFAULTY, 0, 0) == []

    def test_witness_path_none_across_components(self, crash3):
        from repro.protocols.f_lambda import f_lambda_sequence
        from repro.knowledge.nonrigid import nonfaulty_and_zeros

        _, first, _ = f_lambda_sequence(crash3)
        nonrigid = nonfaulty_and_zeros(first)
        summaries = component_summaries(crash3, nonrigid)
        if len(summaries) >= 2:
            source = summaries[0].run_indices[0]
            target = summaries[1].run_indices[0]
            assert witness_path(crash3, nonrigid, source, target) is None
