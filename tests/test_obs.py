"""Tests for the instrumentation layer (repro.obs) and its integration
points: System.cached_evaluation, the fixpoint evaluators, experiment
results, and the CLI stats surface."""

from repro import obs
from repro.experiments.framework import ExperimentResult, attach_instrumentation
from repro.knowledge.nonrigid import NONFAULTY
from repro.knowledge.semantics import eval_common
from repro.model.system import TruthAssignment


class TestInstrumentation:
    def test_counters_accumulate(self):
        inst = obs.Instrumentation()
        inst.count("widgets")
        inst.count("widgets", 4)
        assert inst.counters["widgets"] == 5

    def test_stage_times_accumulate(self):
        inst = obs.Instrumentation()
        with inst.stage("work"):
            pass
        with inst.stage("work"):
            pass
        assert inst.timers["work"] >= 0.0
        assert set(inst.timers) == {"work"}

    def test_nested_same_stage_not_double_counted(self):
        inst = obs.Instrumentation()
        with inst.stage("outer"):
            with inst.stage("outer"):
                pass
        # A single cumulative entry, not the sum of both frames.
        assert len(inst.timers) == 1
        # The inner no-op frame must not have closed the outer one early.
        assert "outer" not in inst._active

    def test_disabled_records_nothing(self):
        inst = obs.Instrumentation()
        inst.enabled = False
        inst.count("widgets")
        with inst.stage("work"):
            pass
        assert inst.counters == {}
        assert inst.timers == {}

    def test_delta_since_drops_zero_entries(self):
        inst = obs.Instrumentation()
        inst.count("before_only")
        before = inst.snapshot()
        inst.count("after", 3)
        delta = inst.delta_since(before)
        assert delta["counters"] == {"after": 3}

    def test_format_summary_empty(self):
        assert "no instrumentation" in obs.format_summary(
            {"counters": {}, "timers": {}}
        )

    def test_format_summary_lists_timers_then_counters(self):
        text = obs.format_summary(
            {"counters": {"hits": 2}, "timers": {"build": 1.5}}
        )
        lines = text.splitlines()
        assert "build" in lines[0]
        assert "hits" in lines[1]


class TestHistograms:
    def test_observe_accumulates_buckets(self):
        inst = obs.Instrumentation()
        inst.observe("latency", 0.5)
        inst.observe("latency", 0.5)
        inst.observe("latency", 2.0)
        snap = inst.snapshot()["histograms"]["latency"]
        assert snap["count"] == 3
        assert abs(snap["sum"] - 3.0) < 1e-9
        assert sum(snap["buckets"].values()) == 3

    def test_delta_since_only_new_observations(self):
        inst = obs.Instrumentation()
        inst.observe("latency", 1.0)
        before = inst.snapshot()
        inst.observe("latency", 1.0)
        inst.observe("other", 4.0)
        delta = inst.delta_since(before)
        assert delta["histograms"]["latency"]["count"] == 1
        assert delta["histograms"]["other"]["count"] == 1

    def test_merge_delta_folds_histograms(self):
        """The worker->supervisor folding protocol: merging per-worker
        deltas gives the same histogram as observing locally."""
        local = obs.Instrumentation()
        for value in (0.1, 0.2, 0.4, 8.0):
            local.observe("latency", value)

        supervisor = obs.Instrumentation()
        worker_a, worker_b = obs.Instrumentation(), obs.Instrumentation()
        worker_a.observe("latency", 0.1)
        worker_a.observe("latency", 0.2)
        worker_b.observe("latency", 0.4)
        worker_b.observe("latency", 8.0)
        supervisor.merge_delta(worker_a.snapshot())
        supervisor.merge_delta(worker_b.snapshot())

        merged = supervisor.snapshot()["histograms"]["latency"]
        direct = local.snapshot()["histograms"]["latency"]
        assert merged == direct

    def test_quantile_summary(self):
        from repro.obs.metrics import summarize

        inst = obs.Instrumentation()
        for value in range(1, 101):
            inst.observe("spread", float(value))
        digest = summarize(inst.snapshot()["histograms"]["spread"])
        assert digest["count"] == 100
        assert abs(digest["mean"] - 50.5) < 1e-9
        # bucket quantiles are approximate; log buckets bound the error
        assert 30 <= digest["p50"] <= 70
        assert digest["p90"] <= digest["p99"]

    def test_disabled_records_nothing(self):
        inst = obs.Instrumentation()
        inst.enabled = False
        inst.observe("latency", 1.0)
        inst.gauge("rss", 42)
        snap = inst.snapshot()
        assert snap.get("histograms", {}) == {}
        assert snap.get("gauges", {}) == {}

    def test_stage_feeds_same_named_histogram(self):
        inst = obs.Instrumentation()
        with inst.stage("build"):
            pass
        snap = inst.snapshot()
        assert snap["histograms"]["build"]["count"] == 1
        assert "build" in snap["timers"]

    def test_format_summary_includes_histogram_digest(self):
        inst = obs.Instrumentation()
        inst.observe("latency", 0.5)
        text = obs.format_summary(inst.snapshot())
        assert "latency" in text
        assert "p99" in text


class TestGauges:
    def test_gauge_last_write_wins(self):
        inst = obs.Instrumentation()
        inst.gauge("rss_bytes", 100)
        inst.gauge("rss_bytes", 250)
        assert inst.snapshot()["gauges"]["rss_bytes"] == 250

    def test_delta_since_reports_changed_gauges_only(self):
        inst = obs.Instrumentation()
        inst.gauge("stable", 7)
        inst.gauge("moving", 1)
        before = inst.snapshot()
        inst.gauge("moving", 2)
        delta = inst.delta_since(before)
        assert delta.get("gauges") == {"moving": 2}

    def test_merge_delta_overwrites_gauges(self):
        inst = obs.Instrumentation()
        inst.gauge("rss_bytes", 100)
        inst.merge_delta({"gauges": {"rss_bytes": 999}})
        assert inst.snapshot()["gauges"]["rss_bytes"] == 999


class TestThreadSafety:
    def test_concurrent_counts_sum_exactly(self):
        import threading

        inst = obs.Instrumentation()
        rounds = 2000

        def hammer():
            for _ in range(rounds):
                inst.count("hits")
                inst.observe("values", 1.0)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert inst.counters["hits"] == 4 * rounds
        assert inst.snapshot()["histograms"]["values"]["count"] == 4 * rounds

    def test_stage_reentrancy_is_per_thread(self):
        """Two threads timing the same stage concurrently must each get
        a frame (the reentrancy guard is thread-local, not global)."""
        import threading

        inst = obs.Instrumentation()
        barrier = threading.Barrier(2)

        def timed():
            with inst.stage("work"):
                barrier.wait(timeout=5)

        threads = [threading.Thread(target=timed) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert inst.snapshot()["histograms"]["work"]["count"] == 2


class TestEvaluationCounters:
    def test_formula_cache_hit_miss_counted(self, crash3):
        crash3.clear_caches()
        key = ("obs-test", 0)
        compute = lambda: TruthAssignment.constant(crash3, True)

        before = obs.snapshot()
        crash3.cached_evaluation(key, compute)
        mid = obs.delta_since(before)
        assert mid["counters"]["formula_cache_misses"] == 1

        before = obs.snapshot()
        crash3.cached_evaluation(key, compute)
        after = obs.delta_since(before)
        assert after["counters"]["formula_cache_hits"] == 1
        assert "formula_cache_misses" not in after["counters"]
        crash3.clear_caches()

    def test_fixpoint_iterations_counted(self, crash3):
        before = obs.snapshot()
        eval_common(crash3, NONFAULTY, TruthAssignment.constant(crash3, True))
        delta = obs.delta_since(before)
        assert delta["counters"]["fixpoint_iterations"] >= 1

    def test_build_counts_runs_and_views(self):
        from repro.model.adversary import ExhaustiveCrashAdversary
        from repro.model.system import build_system

        before = obs.snapshot()
        system = build_system(ExhaustiveCrashAdversary(3, 1, 2))
        delta = obs.delta_since(before)
        assert delta["counters"]["system_fast_builds"] == 1
        assert delta["counters"]["views_interned"] == len(system.table)
        assert "system_fastbuild" in delta["timers"]
        assert system.arrays().num_runs == len(system.runs)


class TestMergeDelta:
    def test_merge_folds_counters_and_timers(self):
        inst = obs.Instrumentation()
        inst.count("runs_built", 2)
        inst.merge_delta(
            {"counters": {"runs_built": 3, "chunks": 1},
             "timers": {"build_chunk": 0.5}}
        )
        inst.merge_delta({"timers": {"build_chunk": 0.25}})
        assert inst.counters == {"runs_built": 5, "chunks": 1}
        assert inst.timers["build_chunk"] == 0.75

    def test_merge_disabled_is_noop(self):
        inst = obs.Instrumentation()
        inst.enabled = False
        inst.merge_delta({"counters": {"runs_built": 3}})
        assert inst.counters == {}


class TestExperimentIntegration:
    @staticmethod
    def _result():
        return ExperimentResult(
            experiment_id="E99",
            title="dummy",
            paper_claim="n/a",
            ok=True,
            table="x",
        )

    def test_attach_instrumentation_stamps_delta(self):
        before = obs.snapshot()
        obs.count("system_cache_hits", 2)
        result = attach_instrumentation(self._result(), before)
        assert result.data["instrumentation"]["counters"][
            "system_cache_hits"
        ] == 2

    def test_render_includes_instrumentation_block(self):
        result = self._result()
        result.data["instrumentation"] = {
            "counters": {"system_cache_hits": 2},
            "timers": {"build_system": 0.25},
        }
        rendered = result.render()
        assert "instrumentation:" in rendered
        assert "system_cache_hits" in rendered
        assert "build_system" in rendered

    def test_render_omits_empty_instrumentation(self):
        result = self._result()
        result.data["instrumentation"] = {"counters": {}, "timers": {}}
        assert "instrumentation:" not in result.render()

    def test_run_experiment_attaches_instrumentation(self, monkeypatch):
        from repro.experiments import registry

        def dummy_runner():
            obs.count("system_cache_hits")
            return self._result()

        monkeypatch.setitem(registry.EXPERIMENTS, "E99", dummy_runner)
        result = registry.run_experiment("E99")
        instrumentation = result.data["instrumentation"]
        assert instrumentation["counters"]["system_cache_hits"] == 1


class TestCliStats:
    def test_stats_command(self, capsys):
        from repro.cli import main

        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        assert "instrumentation (this process):" in out
        assert "system cache:" in out
        assert "disk cache" not in out and "degraded:" not in out
