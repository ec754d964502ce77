"""Tests for :mod:`repro.trace` — span recording, export, and the
threading of spans through the builder, provider, fixpoints and registry."""

import json

import pytest

from repro import trace
from repro.trace import (
    Tracer,
    chrome_trace_events,
    export_spans,
    span_tree,
    write_chrome_trace,
    write_jsonl,
)


class TestTracerCore:
    def test_spans_nest_through_the_stack(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert inner.duration is not None
        assert outer.duration >= inner.duration

    def test_attributes_at_open_and_at_close(self):
        tracer = Tracer()
        with tracer.span("stage", n=3) as record:
            record.set("iterations", 7)
        (finished,) = tracer.collect()
        assert finished.attributes == {"n": 3, "iterations": 7}

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer()
        tracer.enabled = False
        with tracer.span("invisible") as record:
            record.set("key", "value")  # the null span absorbs this
        assert tracer.collect() == []
        assert tracer.watermark() == 0

    def test_ring_buffer_keeps_most_recent(self):
        tracer = Tracer(capacity=8)
        for index in range(20):
            with tracer.span(f"s{index}"):
                pass
        kept = tracer.collect()
        assert len(kept) <= 8
        assert kept[-1].name == "s19"

    def test_watermark_and_collect_window(self):
        tracer = Tracer()
        with tracer.span("before"):
            pass
        mark = tracer.watermark()
        with tracer.span("after"):
            pass
        names = [s.name for s in tracer.collect(mark)]
        assert names == ["after"]

    def test_current_span_id_tracks_stack(self):
        tracer = Tracer()
        assert tracer.current_span_id() is None
        with tracer.span("open") as record:
            assert tracer.current_span_id() == record.span_id
        assert tracer.current_span_id() is None

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_overflow_counts_dropped_spans(self):
        from repro import obs

        tracer = Tracer(capacity=4)
        before = obs.snapshot()
        for index in range(10):
            with tracer.span(f"s{index}"):
                pass
        assert tracer.dropped == 6
        delta = obs.delta_since(before)
        assert delta["counters"]["trace_spans_dropped"] == 6

    def test_status_reports_buffer_state(self):
        tracer = Tracer(capacity=4)
        for index in range(6):
            with tracer.span(f"s{index}"):
                pass
        status = tracer.status()
        assert status["enabled"] is True
        assert status["capacity"] == 4
        assert status["buffered"] == 4
        assert status["dropped"] == 2
        assert status["watermark"] == tracer.watermark()

    def test_module_tracer_status(self):
        from repro.trace import tracer_status

        status = tracer_status()
        assert status["capacity"] >= 1
        assert set(status) == {
            "enabled", "capacity", "buffered", "open", "watermark", "dropped"
        }


class TestCounterTracks:
    def test_counter_events_from_resource_samples(self):
        from repro.trace import chrome_counter_events

        samples = [
            {"perf": 10.0, "rss_bytes": 2 << 20, "cpu_pct": 50.0},
            {"perf": 11.0, "rss_bytes": 4 << 20, "cpu_pct": 25.0},
            {"rss_bytes": 1},  # no perf timestamp: skipped
        ]
        events = chrome_counter_events(samples, epoch=10.0)
        assert len(events) == 2
        first, second = events
        assert first["ph"] == "C"
        assert first["ts"] == 0.0
        assert second["ts"] == pytest.approx(1e6)
        assert first["args"]["rss_mib"] == 2.0
        assert second["args"]["cpu_pct"] == 25.0

    def test_write_chrome_trace_grafts_extra_events(self, tmp_path):
        from repro.trace import chrome_counter_events

        tracer = Tracer()
        with tracer.span("work"):
            pass
        counters = chrome_counter_events(
            [{"perf": 0.0, "rss_bytes": 1 << 20, "cpu_pct": 1.0}],
            epoch=0.0,
        )
        path = str(tmp_path / "trace.json")
        count = write_chrome_trace(
            tracer.collect(), path, extra_events=counters
        )
        payload = json.loads(open(path).read())
        assert count == 2  # one span + one counter event
        phases = {e["ph"] for e in payload["traceEvents"]}
        assert phases == {"X", "C"}


class TestGraft:
    def _worker_spans(self):
        worker = Tracer()
        with worker.span("chunk") as chunk:
            with worker.span("unit"):
                pass
        spans = export_spans(worker.collect())
        base = chunk.start
        for exported in spans:
            exported["start"] = float(exported["start"]) - base
        return spans

    def test_graft_reparents_and_remaps_ids(self):
        parent = Tracer()
        with parent.span("parallel_build") as build:
            adopted = parent.graft(
                self._worker_spans(),
                parent_id=build.span_id,
                offset=build.start,
            )
        assert adopted == 2
        by_name = {s.name: s for s in parent.collect()}
        chunk, unit = by_name["chunk"], by_name["unit"]
        assert chunk.parent_id == by_name["parallel_build"].span_id
        assert unit.parent_id == chunk.span_id
        assert chunk.span_id != 0  # remapped into the parent's sequence

    def test_graft_applies_time_offset(self):
        parent = Tracer()
        spans = [
            {"span_id": 0, "parent_id": None, "name": "w",
             "start": 0.25, "duration": 0.1, "attributes": {}},
        ]
        parent.graft(spans, parent_id=None, offset=2.0)
        (adopted,) = parent.collect()
        assert adopted.start == pytest.approx(2.25)

    def test_graft_disabled_is_noop(self):
        parent = Tracer()
        parent.enabled = False
        assert parent.graft(self._worker_spans()) == 0
        assert parent.collect() == []


class TestExport:
    def _sample(self):
        tracer = Tracer()
        with tracer.span("root", mode="crash"):
            with tracer.span("child"):
                pass
        return tracer.collect()

    def test_span_tree_nests_children(self):
        (root,) = span_tree(self._sample())
        assert root["name"] == "root"
        assert [c["name"] for c in root["children"]] == ["child"]

    def test_span_tree_orphans_become_roots(self):
        spans = self._sample()
        children_only = [s for s in spans if s.parent_id is not None]
        roots = span_tree(children_only)
        assert [r["name"] for r in roots] == ["child"]

    def test_chrome_events_shape(self):
        events = chrome_trace_events(self._sample())
        assert [e["name"] for e in events] == ["root", "child"]
        for event in events:
            assert event["ph"] == "X"
            assert event["ts"] >= 0 and event["dur"] >= 0
        assert events[0]["args"]["mode"] == "crash"

    def test_write_chrome_trace_loads_as_json(self, tmp_path):
        path = str(tmp_path / "trace.json")
        count = write_chrome_trace(self._sample(), path)
        payload = json.loads(open(path).read())
        assert count == 2
        assert len(payload["traceEvents"]) == 2
        assert payload["displayTimeUnit"] == "ms"

    def test_write_jsonl_round_trips(self, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        count = write_jsonl(self._sample(), path)
        lines = [json.loads(line) for line in open(path)]
        assert count == len(lines) == 2
        assert {line["name"] for line in lines} == {"root", "child"}


class TestPipelineIntegration:
    def test_build_system_emits_span_hierarchy(self):
        from repro.model.builder import restricted_system
        from repro.model.failures import (
            CrashBehavior,
            FailureMode,
            FailurePattern,
        )

        pattern = FailurePattern({0: CrashBehavior(1, frozenset())})
        mark = trace.TRACER.watermark()
        restricted_system(FailureMode.CRASH, 3, 1, 2, [pattern])
        spans = {s.name: s for s in trace.TRACER.collect(mark)}
        outer, build = spans["restricted_system"], spans["system_fastbuild"]
        assert build.parent_id == outer.span_id

    def test_fixpoint_span_reports_iterations(self, crash3):
        from repro.knowledge.formulas import Common, Exists
        from repro.knowledge.nonrigid import NONFAULTY

        crash3.clear_caches()
        mark = trace.TRACER.watermark()
        Common(NONFAULTY, Exists(1)).evaluate(crash3)
        spans = [
            s for s in trace.TRACER.collect(mark)
            if s.name == "fixpoint.common"
        ]
        assert spans and spans[0].attributes["iterations"] >= 1

    def test_run_experiment_attaches_span_tree(self):
        from repro.experiments.registry import run_experiment

        result = run_experiment("E3")
        tree = result.data["trace"]
        assert isinstance(tree, list) and tree
        root = tree[-1]
        assert root["name"] == "experiment.E3"
        assert root["children"], "experiment span has no nested spans"
        json.dumps(tree)  # must be JSON-serializable as-is

    def test_simulator_spans_capture_message_totals(self):
        from repro.model.config import InitialConfiguration
        from repro.model.failures import FailurePattern
        from repro.protocols.p0 import p0
        from repro.sim.engine import execute

        mark = trace.TRACER.watermark()
        execute(
            p0(), InitialConfiguration([0, 1, 1]), FailurePattern({}), 2, 1
        )
        # One execution is a batch of one: one span, as for any batch.
        (record,) = [
            s for s in trace.TRACER.collect(mark) if s.name.startswith("sim.")
        ]
        assert record.name == "sim.traces_over_scenarios"
        assert record.attributes["scenarios"] == 1
        assert record.attributes["states"] == 3 * 3
        assert record.attributes["sent"] == record.attributes["delivered"]
        assert record.attributes["sent"] > 0

    def test_one_span_per_simulator_batch(self):
        from repro.model.failures import FailureMode
        from repro.protocols.p0opt import p0opt
        from repro.sim.engine import (
            ScenarioViews,
            run_over_scenarios,
            traces_over_scenarios,
        )
        from repro.workloads.scenarios import exhaustive_scenarios

        scenarios = ScenarioViews(
            exhaustive_scenarios(FailureMode.CRASH, 3, 1, 3), 3, 1
        )
        mark = trace.TRACER.watermark()
        outcome = run_over_scenarios(p0opt(), scenarios, 3, 1)
        traces = traces_over_scenarios(p0opt(), scenarios, 3, 1)
        batch, kept = [
            s for s in trace.TRACER.collect(mark) if s.name.startswith("sim.")
        ]
        assert batch.name == "sim.run_over_scenarios"
        assert kept.name == "sim.traces_over_scenarios"
        assert batch.attributes["scenarios"] == len(outcome) == len(scenarios)
        assert 0 < batch.attributes["states"] < len(scenarios) * 3 * 4
        assert batch.attributes["sent"] == sum(t.total_sent() for t in traces)
        assert batch.attributes["delivered"] == sum(
            t.total_delivered() for t in traces
        )
        assert kept.attributes == batch.attributes

    def test_experiment_tree_has_one_span_per_batch(self):
        from repro.experiments.registry import run_experiment

        def names(nodes):
            for node in nodes:
                yield node["name"]
                yield from names(node["children"])

        found = list(names(run_experiment("E1").data["trace"]))
        assert found.count("sim.run_over_scenarios") == 2
        assert "sim.execute" not in found


class TestTraceCli:
    def test_trace_run_writes_chrome_trace(self, tmp_path, capsys):
        from repro.cli import main

        out = str(tmp_path / "trace.json")
        assert main(["trace", "run", "E03", "--out", out]) == 0
        payload = json.loads(open(out).read())
        names = {e["name"] for e in payload["traceEvents"]}
        assert any(n == "experiment.E3" for n in names)

    def test_trace_run_jsonl_format(self, tmp_path, capsys):
        from repro.cli import main

        out = str(tmp_path / "spans.jsonl")
        assert main(
            ["trace", "run", "E3", "--out", out, "--format", "jsonl"]
        ) == 0
        lines = [json.loads(line) for line in open(out)]
        assert any(line["name"] == "experiment.E3" for line in lines)


class TestExperimentIdNormalization:
    def test_normalize_variants(self):
        from repro.cli import normalize_experiment_id

        assert normalize_experiment_id("E04") == "E4"
        assert normalize_experiment_id("e21") == "E21"
        assert normalize_experiment_id("7") == "E7"
        assert normalize_experiment_id("E10") == "E10"
        assert normalize_experiment_id("bogus") == "bogus"
