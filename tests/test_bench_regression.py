"""Tests for :mod:`repro.bench.regression` and the ``bench-compare`` CLI."""

import json

import pytest

from repro.bench import (
    BenchSnapshot,
    append_history,
    compare_snapshots,
    load_history,
    load_snapshot,
    write_snapshot,
)
from repro.cli import main


def _snapshot(label, **timings):
    return BenchSnapshot(label=label, timings=timings, meta={"rounds": 3})


class TestCompareSnapshots:
    def test_identical_snapshots_pass(self):
        base = _snapshot("a", enumerate=0.5, fixpoint=0.2)
        report = compare_snapshots(base, _snapshot("b", enumerate=0.5,
                                                   fixpoint=0.2))
        assert report.ok
        assert not report.regressions
        assert {d.name for d in report.deltas} == {"enumerate", "fixpoint"}

    def test_synthetic_2x_slowdown_detected(self):
        base = _snapshot("a", enumerate=0.5)
        candidate = _snapshot("b", enumerate=1.0)
        report = compare_snapshots(base, candidate)
        assert not report.ok
        (delta,) = report.regressions
        assert delta.name == "enumerate"
        assert delta.ratio == pytest.approx(2.0)

    def test_threshold_boundary_is_exclusive(self):
        base = _snapshot("a", bench=1.0)
        at_threshold = compare_snapshots(
            base, _snapshot("b", bench=1.25), threshold=0.25
        )
        assert at_threshold.ok
        over = compare_snapshots(
            base, _snapshot("b", bench=1.26), threshold=0.25
        )
        assert not over.ok

    def test_noise_floor_suppresses_tiny_benches(self):
        base = _snapshot("a", tiny=1e-5)
        candidate = _snapshot("b", tiny=9e-5)  # 9x but both below floor
        report = compare_snapshots(base, candidate)
        assert report.ok
        (delta,) = report.deltas
        assert "noise" in delta.note

    def test_added_and_removed_benches_are_not_regressions(self):
        base = _snapshot("a", old=0.5, shared=0.5)
        candidate = _snapshot("b", new=0.5, shared=0.5)
        report = compare_snapshots(base, candidate)
        assert report.ok
        notes = {d.name: d.note for d in report.deltas}
        assert "added" in notes["new"]
        assert "removed" in notes["old"]

    def test_improvement_noted(self):
        report = compare_snapshots(
            _snapshot("a", bench=1.0), _snapshot("b", bench=0.5)
        )
        assert report.ok
        (delta,) = report.deltas
        assert "improved" in delta.note

    def test_render_contains_verdict_and_table(self):
        report = compare_snapshots(
            _snapshot("base", bench=0.5), _snapshot("cand", bench=2.0)
        )
        text = report.render()
        assert "base" in text and "cand" in text
        assert "REGRESSED" in text
        ok_text = compare_snapshots(
            _snapshot("base", bench=0.5), _snapshot("cand", bench=0.5)
        ).render()
        assert "ok" in ok_text


class TestHistory:
    def test_append_and_load_round_trip(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        append_history(path, _snapshot("first", bench=0.5))
        append_history(path, _snapshot("second", bench=0.6))
        history = load_history(path)
        assert [s.label for s in history] == ["first", "second"]
        assert history[1].timings == {"bench": 0.6}
        assert history[0].meta == {"rounds": 3}

    def test_missing_history_is_empty(self, tmp_path):
        assert load_history(str(tmp_path / "nope.jsonl")) == []

    def test_corrupt_lines_skipped(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        append_history(path, _snapshot("good", bench=0.5))
        with open(path, "a") as handle:
            handle.write("not json\n")
            handle.write('[1, 2, 3]\n')
            handle.write('{"timings": "not-a-mapping"}\n')
        append_history(path, _snapshot("later", bench=0.4))
        assert [s.label for s in load_history(path)] == ["good", "later"]

    def test_write_and_load_snapshot_file(self, tmp_path):
        path = str(tmp_path / "snap.json")
        write_snapshot(path, _snapshot("solo", bench=0.5))
        loaded = load_snapshot(path)
        assert loaded.label == "solo"
        assert loaded.timings == {"bench": 0.5}


class TestBenchCompareCli:
    def test_two_files_regression_exits_nonzero(self, tmp_path, capsys):
        base = str(tmp_path / "base.json")
        cand = str(tmp_path / "cand.json")
        write_snapshot(base, _snapshot("base", bench=0.5))
        write_snapshot(cand, _snapshot("cand", bench=2.0))
        assert main(["bench-compare", base, cand]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_two_files_identical_exits_zero(self, tmp_path, capsys):
        base = str(tmp_path / "base.json")
        cand = str(tmp_path / "cand.json")
        write_snapshot(base, _snapshot("base", bench=0.5))
        write_snapshot(cand, _snapshot("cand", bench=0.5))
        assert main(["bench-compare", base, cand]) == 0

    def test_history_mode_uses_last_two(self, tmp_path, capsys):
        path = str(tmp_path / "history.jsonl")
        append_history(path, _snapshot("old", bench=0.5))
        append_history(path, _snapshot("mid", bench=0.5))
        append_history(path, _snapshot("new", bench=2.0))
        assert main(["bench-compare", "--history", path]) == 1
        out = capsys.readouterr().out
        assert "baseline: mid" in out and "candidate: new" in out

    def test_history_mode_with_too_few_snapshots(self, tmp_path, capsys):
        path = str(tmp_path / "history.jsonl")
        append_history(path, _snapshot("only", bench=0.5))
        assert main(["bench-compare", "--history", path]) == 0
        assert main(
            ["bench-compare", "--history", str(tmp_path / "none.jsonl")]
        ) == 0

    def test_custom_threshold(self, tmp_path):
        base = str(tmp_path / "base.json")
        cand = str(tmp_path / "cand.json")
        write_snapshot(base, _snapshot("base", bench=1.0))
        write_snapshot(cand, _snapshot("cand", bench=1.4))
        assert main(["bench-compare", base, cand]) == 1
        assert main(
            ["bench-compare", base, cand, "--threshold", "0.5"]
        ) == 0


class TestRunnerScript:
    def test_take_snapshot_runs_all_micro_benches(self):
        import importlib.util
        import pathlib

        spec = importlib.util.spec_from_file_location(
            "bench_regression_runner",
            pathlib.Path(__file__).resolve().parents[1]
            / "benchmarks" / "regression.py",
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        snapshot = module.take_snapshot("test", rounds=1)
        assert set(snapshot.timings) == set(module.MICRO_BENCHES)
        assert all(value > 0 for value in snapshot.timings.values())
        json.dumps(snapshot.to_dict())
