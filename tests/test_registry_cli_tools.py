"""Tests for the protocol registry and the CLI compare/diagram tools."""

import pytest

from repro.cli import main, parse_crash_spec, parse_omit_specs
from repro.errors import ConfigurationError, ReproError
from repro.protocols.registry import (
    CONCRETE_PROTOCOLS,
    KNOWLEDGE_PROTOCOLS,
    is_knowledge_level,
    outcome_for,
    protocol_names,
)


class TestRegistry:
    def test_names_cover_both_layers(self):
        names = protocol_names()
        assert "P0opt" in names and "F_LAMBDA2" in names
        assert len(names) == len(CONCRETE_PROTOCOLS) + len(
            KNOWLEDGE_PROTOCOLS
        )

    def test_layer_classification(self):
        assert not is_knowledge_level("P0")
        assert is_knowledge_level("F_STAR")
        with pytest.raises(ConfigurationError):
            is_knowledge_level("NoSuchProtocol")

    def test_outcome_for_concrete(self, crash3):
        outcome = outcome_for("P0opt", crash3)
        assert outcome.name == "P0opt"
        assert len(outcome) == len(crash3.runs)

    def test_outcome_for_knowledge(self, crash3):
        outcome = outcome_for("F_LAMBDA2", crash3)
        assert outcome.name == "F_LAMBDA2"
        assert len(outcome) == len(crash3.runs)

    def test_outcomes_comparable_across_layers(self, crash3):
        from repro.core.domination import equivalent_decisions

        concrete = outcome_for("P0opt", crash3)
        knowledge = outcome_for("F_LAMBDA2", crash3)
        assert equivalent_decisions(knowledge, concrete)[0]  # Thm 6.2 again

    def test_concrete_factories_fresh_instances(self):
        assert CONCRETE_PROTOCOLS["P0"]() is not CONCRETE_PROTOCOLS["P0"]()


class TestPatternMiniLanguage:
    def test_crash_spec_silent(self):
        processor, behavior = parse_crash_spec("0:2")
        assert processor == 0
        assert behavior.crash_round == 2
        assert behavior.receivers == frozenset()

    def test_crash_spec_with_receivers(self):
        processor, behavior = parse_crash_spec("1:3:0,2")
        assert processor == 1
        assert behavior.receivers == frozenset((0, 2))

    def test_crash_spec_rejects_malformed(self):
        with pytest.raises(ReproError):
            parse_crash_spec("1")
        with pytest.raises(ReproError):
            parse_crash_spec("1:2:3:4")

    def test_omit_specs_merge_per_processor(self):
        behaviors = parse_omit_specs(["0:1:1,2", "0:2:1"])
        behavior = behaviors[0]
        assert behavior.omitted(1) == frozenset((1, 2))
        assert behavior.omitted(2) == frozenset((1,))

    def test_omit_specs_rejects_malformed(self):
        with pytest.raises(ReproError):
            parse_omit_specs(["0:1"])


class TestCliTools:
    def test_protocols_command(self, capsys):
        assert main(["protocols"]) == 0
        output = capsys.readouterr().out
        assert "P0opt" in output and "F_STAR" in output

    def test_compare_command(self, capsys):
        assert main(
            ["compare", "P0opt", "P0", "--mode", "crash", "-n", "3", "-t", "1"]
        ) == 0
        output = capsys.readouterr().out
        assert "strictly dominates" in output
        assert "mean t" in output

    def test_compare_rejects_flood_sba_under_omissions(self, capsys):
        assert main(
            [
                "compare", "FloodSBA", "P0opt", "--mode", "omission",
                "-n", "3", "-t", "1",
            ]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("repro-eba: ") and "FloodSBA" in line

    def test_diagram_concrete(self, capsys):
        assert main(
            ["diagram", "P0opt", "--config", "011", "--crash", "0:1:1"]
        ) == 0
        output = capsys.readouterr().out
        assert "p0*" in output and "D0" in output

    def test_diagram_knowledge_level(self, capsys):
        assert main(
            ["diagram", "F_LAMBDA2", "--config", "011", "--crash", "0:1"]
        ) == 0
        output = capsys.readouterr().out
        assert "F_LAMBDA2" in output and "D" in output

    def test_diagram_omission(self, capsys):
        assert main(
            [
                "diagram", "ChainEBA", "--mode", "omission",
                "--config", "011", "--omit", "0:1:2",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "omit" in output

    def test_diagram_config_length_checked(self, capsys):
        assert main(["diagram", "P0opt", "--config", "01", "-n", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("repro-eba: ") and "n=3" in line

    @pytest.mark.parametrize(
        "argv",
        [
            "monitor --config 01 -n 3 -t 1 --rounds 2",
            "monitor --config 011 -n 3 -t 1 --rounds 2 --crash 9:1",
            "monitor --config 011 -n 3 -t 1 --rounds 1 --omit 0:1:2",
            "explain E4 common-exists1 --point 1:2:3",
            "explain E4 common-exists1 --point a:0",
            "explain E4 common-exists1 --point 99999:0",
            "diagram P0 --config 011 -n 3 -t 1 --crash a:1",
            "diagram P0 --config 011 -n 3 -t 1 --omit 0:x:2",
            "query eval --local --catalog E4/common-exists1 --point a:0",
        ],
        ids=[
            "monitor-config-length",
            "monitor-processor-range",
            "monitor-behaviour-mode",
            "explain-point-fields",
            "explain-point-integer",
            "explain-point-range",
            "diagram-crash-integer",
            "diagram-omit-integer",
            "query-point-integer",
        ],
    )
    def test_bad_input_exits_2_with_one_line(self, capsys, argv):
        assert main(argv.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("repro-eba: ")

    def test_rejected_monitor_opens_no_journal(self, capsys, tmp_path):
        journal = tmp_path / "monitor.jsonl"
        argv = "monitor --config 011 -n 3 -t 1 --rounds 1 --omit 0:1:2"
        assert main(argv.split() + ["--journal", str(journal)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("repro-eba: ")
        assert not journal.exists()

    def test_diagram_config_bits_checked(self, capsys):
        assert main(["diagram", "P0opt", "--config", "012", "-n", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("repro-eba: ") and "0/1" in line

    def test_diagram_rejects_flood_sba_under_omissions(self, capsys):
        assert main(
            [
                "diagram", "FloodSBA", "--mode", "omission",
                "--config", "011", "--omit", "0:1:2", "-n", "3", "-t", "1",
            ]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("repro-eba: ") and "FloodSBA" in line

    def test_stats_json_round_trips(self, capsys):
        import json

        from repro import obs

        obs.count("system_cache_hits")  # ensure a non-empty payload
        assert main(["stats", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"instrumentation", "system_cache", "tracer"}
        instrumentation = payload["instrumentation"]
        assert set(instrumentation) == {
            "counters", "timers", "histograms", "gauges"
        }
        assert instrumentation["counters"]["system_cache_hits"] >= 1
        tracer = payload["tracer"]
        assert tracer["capacity"] >= 1
        assert "dropped" in tracer and "watermark" in tracer
