"""Tests for the CLI and the experiment framework/registry.

Heavy experiments are exercised through the benchmark suite; here we run
the cheap ones at reduced parameters and test the harness plumbing.
"""

import pytest

from repro.cli import main
from repro.experiments.framework import ExperimentResult
from repro.experiments.registry import (
    EXPERIMENTS,
    experiment_ids,
    run_experiment,
)


class TestRegistry:
    def test_all_experiments_registered(self):
        assert experiment_ids() == [f"E{i}" for i in range(1, 22)]

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            run_experiment("E99")

    def test_runner_callables(self):
        assert all(callable(runner) for runner in EXPERIMENTS.values())


class TestLightExperiments:
    @pytest.mark.parametrize(
        "experiment_id",
        ["E2", "E3", "E4", "E5", "E6", "E7", "E8", "E10", "E11", "E12",
         "E13", "E15", "E16", "E18", "E21"],
    )
    def test_reproduces_at_small_size(self, experiment_id):
        result = run_experiment(experiment_id, n=3, t=1)
        assert isinstance(result, ExperimentResult)
        assert result.ok, result.render()
        assert result.table
        assert result.experiment_id == experiment_id

    def test_e1_at_n3(self):
        result = run_experiment("E1", n=3, t=1)
        assert result.ok, result.render()

    def test_e14_reduced_cells(self):
        from repro.model.failures import FailureMode

        result = run_experiment(
            "E14",
            cells=(
                (FailureMode.CRASH, 3, 1, 3),
                (FailureMode.OMISSION, 3, 1, 3),
            ),
        )
        assert result.ok

    def test_e17_reduced_domains(self):
        result = run_experiment("E17", n=3, t=1, domain_sizes=(2, 3))
        assert result.ok, result.render()

    def test_e19_byzantine(self):
        result = run_experiment("E19", samples_n7=20)
        assert result.ok, result.render()

    def test_e20_reduced_cells(self):
        result = run_experiment(
            "E20", cells=((4, 1), (4, 2)), samples=120
        )
        assert result.ok, result.render()


class TestFramework:
    def test_render_contains_status(self):
        result = ExperimentResult(
            experiment_id="EX",
            title="demo",
            paper_claim="claim",
            ok=True,
            table="a  b",
            notes=["one note"],
        )
        text = result.render()
        assert "REPRODUCED" in text
        assert "one note" in text

    def test_render_mismatch_status(self):
        result = ExperimentResult(
            experiment_id="EX",
            title="demo",
            paper_claim="claim",
            ok=False,
            table="t",
        )
        assert "MISMATCH" in result.render()


class TestCli:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "E1" in output and "E21" in output

    def test_run_single_experiment(self, capsys):
        assert main(["run", "E3"]) == 0
        output = capsys.readouterr().out
        assert "REPRODUCED" in output

    def test_run_nothing_errors(self, capsys):
        assert main(["run"]) == 2

    def test_skip_filters(self, capsys):
        assert main(["run", "E3", "--skip", "E3"]) == 2

    def test_run_unknown_experiment_fails_closed(self, capsys):
        assert main(["run", "E3", "E99"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "repro-eba: unknown experiment 'E99'; try `repro-eba list`\n"

    def test_key_error_inside_experiment_propagates(self, monkeypatch):
        from repro.experiments.registry import EXPERIMENTS

        def broken(**params):
            raise KeyError("inside the experiment")

        monkeypatch.setitem(EXPERIMENTS, "E3", broken)
        with pytest.raises(KeyError, match="inside the experiment"):
            main(["run", "E3"])
