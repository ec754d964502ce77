"""Self-test of the benchmark at a small scale (a portfolio subset, 50
serve requests, no E9)::

    PYTHONPATH=src python -m pytest benchmarks/suite
"""

from __future__ import annotations

import json
import os
import sys

import pytest

SUITE = os.path.dirname(os.path.abspath(__file__))
if SUITE not in sys.path:
    sys.path.insert(0, SUITE)

import compare  # noqa: E402
import golden  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

SUBSET = ["E3", "E8", "E12"]

with open(run.BENCHMARK_PATH, encoding="utf-8") as handle:
    BENCHMARK = json.load(handle)


@pytest.fixture
def small_portfolio(monkeypatch):
    monkeypatch.setattr(
        run, "portfolio_calls", lambda: [{"id": eid, "params": {}} for eid in SUBSET]
    )


def names_and_units(definitions):
    return [(d["name"], d["unit"]) for d in definitions]


def printed_result(capsys, argv):
    status = run.main(argv)
    lines = capsys.readouterr().out.strip().splitlines()
    return status, lines, json.loads(lines[-1])


def test_printed_names_and_units_match_benchmark(small_portfolio, capsys, monkeypatch):
    monkeypatch.chdir(run.ROOT)
    status, lines, result = printed_result(
        capsys, ["--workload", "portfolio", "--seed", "1", "--seconds", "0"]
    )
    assert status == 0
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == names_and_units(
        BENCHMARK["end_to_end"]
    )
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name in result["metrics"]:
        assert any(line.split()[:1] == [name] for line in lines[:-1])


def test_traced_run_prints_per_layer_metrics_that_add_up(small_portfolio, capsys, monkeypatch):
    monkeypatch.chdir(run.ROOT)
    status, _, result = printed_result(
        capsys, ["--workloads", "portfolio", "--seed", "2", "--seconds", "0", "--trace", "1"]
    )
    assert status == 0
    metrics = result["metrics"]
    assert [(n, m["unit"]) for n, m in metrics.items()] == names_and_units(BENCHMARK["per_layer"])
    wall = metrics["trace.wall_s"]["value"]
    self_s = sum(m["value"] for n, m in metrics.items() if n.endswith(".self_s"))
    unattributed = metrics["unattributed_share"]["value"] / 100 * wall
    assert self_s + unattributed == pytest.approx(wall)
    assert abs(self_s - wall) < 0.01 * wall
    assert metrics["experiments.self_s"]["value"] > 0


def test_corrupted_golden_digest_raises_error_rate(small_portfolio, monkeypatch):
    corrupted = dict(golden.load_golden(), E8="0" * 64)
    monkeypatch.setattr(run, "load_golden", lambda: corrupted)
    report = run.run_workload("portfolio", 1, 0.0, False)
    assert report["failed"] >= 1
    assert report["error_rate"] > 0
    assert not report["correct"]
    assert any("E8" in error for error in report["errors"])


def _bindings(targets):
    """Every binding of every hooked target: module aliases and class slots."""
    import importlib

    for _, target in targets:
        importlib.import_module(target.partition(":")[0])
    found = {}
    for _, target in targets:
        module_name, _, qualname = target.partition(":")
        owner = sys.modules[module_name]
        *path, name = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        if isinstance(owner, type):
            found[(id(owner), name)] = owner.__dict__[name]
            continue
        original = getattr(owner, name)
        for module in list(sys.modules.values()):
            for alias, value in list(getattr(module, "__dict__", {}).items()):
                if value is original:
                    found[(module.__name__, alias)] = value
    return found


def test_install_then_remove_restores_identity():
    import repro.experiments.registry  # noqa: F401
    import repro.model.provider as provider
    import repro.model.system as system
    import repro.serve.session  # noqa: F401

    before = _bindings(layers.HOOKS)
    original = system.build_system
    hooks = layers.install(layers.Recorder())
    try:
        assert not hooks.missing
        assert system.build_system is not original
        assert provider.build_system is system.build_system
        assert system.build_system.__wrapped__ is original
    finally:
        hooks.remove()
    assert system.build_system is original
    assert provider.build_system is original
    after = _bindings(layers.HOOKS)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_missing_hook_is_tolerated():
    recorder = layers.Recorder()
    hooks = layers.install(
        recorder,
        hooks=(
            ("model.system", "repro.model.system:no_such_function"),
            ("model.system", "repro.model.system:System.no_such_method"),
            ("model.system", "no_such_module:anything"),
            ("model.system", "repro.model.system:extend_system"),
        ),
        cache_target=None,
    )
    hooks.remove()
    assert hooks.missing == [
        "repro.model.system:no_such_function",
        "repro.model.system:System.no_such_method",
        "no_such_module:anything",
    ]


def test_self_time_excludes_children_and_workers_fill_the_pool():
    recorder = layers.Recorder()
    # An outer experiment span with a pool span inside it.
    recorder.spans = [
        ("exec.pool", 1.0, 5.0, 4.0, 1, 0, 0),
        ("experiments", 0.0, 6.0, 2.0, 0, 0, 1),
    ]
    summary = recorder.summary()
    assert summary["outer_s"] == 6.0
    assert summary["layers"]["experiments"]["self_s"] == 2.0
    assert summary["layers"]["exec.pool"]["self_s"] == 4.0
    # Two workers busy in the partition layer for 1 s each, overlapping.
    timelines = [
        layers._innermost([("model.partition", 2.0, 3.0, 1.0, 0, 0, 0)]),
        layers._innermost([("model.partition", 2.5, 3.5, 1.0, 0, 0, 0)]),
    ]
    assert layers._share_busy_time(timelines) == pytest.approx({"model.partition": 1.5})


def test_p99_keeps_ten_samples_beyond_it():
    assert run.tail_percentile(list(range(1000))) == (99, 989)
    assert run.tail_percentile(list(range(500)))[0] == 95
    assert run.tail_percentile(list(range(20)))[0] == 50
    assert run.tail_percentile(list(range(19))) is None
    for count in (20, 60, 240, 999, 1010):
        percentile, value = run.tail_percentile(list(range(count)))
        assert sum(1 for v in range(count) if v > value) >= 10


def test_inherited_repro_variables_are_stripped(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_EVAL_KERNEL", "reference")
    monkeypatch.setenv("REPRO_ARRAYS_FASTBUILD", "0")
    monkeypatch.setenv("REPRO_CACHE_DIR", "/elsewhere")
    env = run.clean_env(str(tmp_path))
    assert [k for k in env if k.startswith("REPRO_")] == ["REPRO_CACHE_DIR"]
    assert env["REPRO_CACHE_DIR"] == str(tmp_path)
    assert env["PYTHONPATH"].split(os.pathsep)[0] == run.SRC


def test_serve_small_run(monkeypatch):
    monkeypatch.chdir(run.ROOT)
    monkeypatch.setattr(run, "DAEMON_RESTARTS", 1)
    monkeypatch.setattr(run, "REQUESTS", 50)
    report = run.run_workload("serve", 5, 0.0, False)
    assert report["failed"] == 0, report["errors"]
    assert [(n, m["unit"]) for n, m in report["metrics"].items()] == names_and_units(
        BENCHMARK["end_to_end"]
    )
    samples = report["metrics"]["cold_s"]["samples"] + report["metrics"]["warm_s"]["samples"]
    assert samples == 50
    details = report["details"]
    assert details["rounds"] == 1
    assert details["slowdown"] > 0
    for name in ("setup_s", "cold_s", "warm_s"):
        assert report["metrics"][name]["value"] == pytest.approx(
            details["raw_s"][name] / details["slowdown"]
        )
    assert "peak_rss_mb" not in details["raw_s"]


def test_paired_comparison_cancels_machine_drift():
    definitions = {"cold_s": {"name": "cold_s", "better": "lower", "bound": 0.1}}
    # The machine slows by 40 % half way; each pair ran in the same period.
    base = {("serve", "cold_s"): [(seed, 1.0 + 0.4 * (seed > 5)) for seed in range(1, 11)]}
    same = {("serve", "cold_s"): [(seed, v * 1.01) for seed, v in base[("serve", "cold_s")]]}
    slower = {("serve", "cold_s"): [(seed, v * 1.2) for seed, v in base[("serve", "cold_s")]]}
    assert compare.pair_ratios(base[("serve", "cold_s")], same[("serve", "cold_s")])
    assert compare.compare(base, same, definitions) == 0
    assert compare.compare(base, slower, definitions) == 1
    unpaired = {("serve", "cold_s"): [(seed + 100, v) for seed, v in same[("serve", "cold_s")]]}
    assert compare.compare(base, unpaired, definitions) == 1  # base spread > bound
    assert compare.report_spread(base, definitions) == 1
    steady = {("serve", "cold_s"): [(seed, 1.0 + 0.001 * seed) for seed in range(1, 11)]}
    assert compare.report_spread(steady, definitions) == 0


def test_traffic_is_seeded_and_never_resends_a_fresh_formula():
    a, b, other = run.Traffic(7), run.Traffic(7), run.Traffic(8)
    stream_a = [a.next() for _ in range(300)]
    assert stream_a == [b.next() for _ in range(300)]
    assert stream_a != [other.next() for _ in range(300)]
    fresh = [key for kind, key, _ in stream_a if kind == "fresh"]
    assert len(fresh) == len(set(fresh))
    kinds = {params["formula"]["kind"] for kind, _, params in stream_a if kind == "fresh"}
    assert kinds == set(run.FORMULA_KINDS)


def test_masking_hides_only_timing_columns():
    table = (
        "mode   n  runs  enumerate s  C□ eval s\n"
        "-----  -  ----  -----------  ---------\n"
        "crash  3  224   0.015        0.002"
    )
    slower = table.replace("0.015        0.002", "1.515        0.302")
    more_runs = table.replace("224 ", "225 ")
    assert golden.table_digest("E14", table) == golden.table_digest("E14", slower)
    assert golden.table_digest("E14", table) != golden.table_digest("E14", more_runs)
    assert golden.table_digest("E4", table) != golden.table_digest("E4", slower)
