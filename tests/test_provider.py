"""Tests for the SystemProvider: the in-memory LRU, the build lock that
lets concurrent misses on one cell build it once, and the rule that no
cell is written to disk."""

import os
import threading
import time

from repro.model import fastbuild
from repro.model.adversary import (
    ExhaustiveCrashAdversary,
    ExhaustiveOmissionAdversary,
)
from repro.model.builder import (
    clear_system_cache,
    crash_system,
    system_cache_info,
)
from repro.model.failures import FailureMode
from repro.model.provider import SystemProvider

from .oracles import build_graph, scenario_index, state_index


def assert_systems_identical(actual, expected):
    """Run-for-run identity: run order, each run's scenario, views,
    nonfaulty set and deliveries; *actual*'s scenario and state indexes
    against walks over *expected*'s runs.  *expected* may be a system or
    the oracle's object graph."""
    assert actual.n == expected.n
    assert actual.t == expected.t
    assert actual.horizon == expected.horizon
    assert actual.mode is expected.mode
    assert len(actual.runs) == len(expected.runs)
    assert actual.scenarios() == expected.scenarios()
    for mine, theirs in zip(actual.runs, expected.runs):
        assert mine == theirs
    assert_indexes_match(actual, expected)


def assert_indexes_match(system, oracle):
    """*system*'s scenario lookup and state index (view order included)
    equal the walks over *oracle*'s runs."""
    scenarios = scenario_index(oracle)
    assert {key: system.run_index_for(*key) for key in scenarios} == scenarios
    states = state_index(oracle)
    assert list(system.occurring_views()) == list(states)
    assert {view: system.same_state_points(view) for view in states} == states


class TestSystemCodec:
    """A provider cell, built as arrays and wrapped as the system, equals
    a fresh object-graph enumeration once its graph is materialized."""

    def test_crash_round_trip_equals_fresh_enumeration(self):
        assert_systems_identical(
            SystemProvider().get(FailureMode.CRASH, 4, 1, 3),
            build_graph(ExhaustiveCrashAdversary(4, 1, 3)),
        )

    def test_omission_round_trip_equals_fresh_enumeration(self):
        assert_systems_identical(
            SystemProvider().get(FailureMode.OMISSION, 3, 1, 3),
            build_graph(ExhaustiveOmissionAdversary(3, 1, 3)),
        )


class TestMemoryCacheLayer:
    def test_hits_and_misses_counted(self):
        provider = SystemProvider()
        provider.get(FailureMode.CRASH, 3, 1, 2)
        provider.get(FailureMode.CRASH, 3, 1, 2)
        info = provider.cache_info()
        assert info["misses"] == 1
        assert info["hits"] == 1
        assert info["size"] == 1
        assert info["keys"] == [("crash", 3, 1, 2)]

    def test_lru_bound_and_eviction_stats(self):
        provider = SystemProvider(max_memory_entries=2)
        provider.get(FailureMode.CRASH, 2, 1, 1)
        provider.get(FailureMode.CRASH, 2, 1, 2)
        provider.get(FailureMode.CRASH, 3, 1, 1)
        info = provider.cache_info()
        assert info["size"] == 2
        assert info["evictions"] == 1
        # The oldest key was the one evicted.
        assert ("crash", 2, 1, 1) not in info["keys"]

        stats = provider.clear()
        assert stats["evicted"] == 2
        assert provider.cache_info()["size"] == 0

    def test_lru_order_refreshed_by_hits(self):
        provider = SystemProvider(max_memory_entries=2)
        provider.get(FailureMode.CRASH, 2, 1, 1)
        provider.get(FailureMode.CRASH, 2, 1, 2)
        provider.get(FailureMode.CRASH, 2, 1, 1)  # refresh
        provider.get(FailureMode.CRASH, 3, 1, 1)  # evicts (2, 1, 2)
        keys = provider.cache_info()["keys"]
        assert ("crash", 2, 1, 1) in keys
        assert ("crash", 2, 1, 2) not in keys


class TestBuilderCacheApi:
    def test_clear_system_cache_returns_eviction_stats(self):
        crash_system(3, 1, 2)
        stats = clear_system_cache()
        assert isinstance(stats, dict)
        assert stats["evicted"] >= 1

    def test_system_cache_info_exposes_hits_misses_size(self):
        clear_system_cache()
        before = system_cache_info()
        crash_system(3, 1, 2)
        crash_system(3, 1, 2)
        after = system_cache_info()
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"] + 1
        assert after["size"] >= 1
        for key in ("max_size", "evictions"):
            assert key in after


def _wrap_build(monkeypatch, before_build):
    """Route every provider build through *before_build* first; returns
    the list of ``(mode, n, t, horizon)`` cells built."""
    real = fastbuild.build_arrays
    built = []

    def build_arrays(*cell, **kwargs):
        built.append(cell)
        before_build(cell)
        return real(*cell, **kwargs)

    monkeypatch.setattr(fastbuild, "build_arrays", build_arrays)
    return built


def _run_threads(*targets):
    threads = [threading.Thread(target=target) for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()


class TestBuildLock:
    def test_misses_on_one_cell_build_once(self, monkeypatch):
        built = _wrap_build(monkeypatch, lambda cell: time.sleep(0.2))
        provider = SystemProvider()
        barrier = threading.Barrier(2)
        systems = []

        def fetch():
            barrier.wait(timeout=30)
            systems.append(provider.get(FailureMode.CRASH, 3, 1, 2))

        _run_threads(fetch, fetch)
        assert built == [(FailureMode.CRASH, 3, 1, 2)]
        assert len(systems) == 2 and systems[0] is systems[1]
        info = provider.cache_info()
        assert (info["misses"], info["hits"]) == (1, 1)

    def test_builds_run_one_at_a_time(self, monkeypatch):
        lock = threading.Lock()
        running = [0, 0]  # now, most at once

        def track(cell):
            with lock:
                running[0] += 1
                running[1] = max(running)
            time.sleep(0.2)
            with lock:
                running[0] -= 1

        built = _wrap_build(monkeypatch, track)
        provider = SystemProvider()
        _run_threads(
            lambda: provider.get(FailureMode.CRASH, 3, 1, 1),
            lambda: provider.get(FailureMode.CRASH, 3, 1, 2),
        )
        assert len(built) == 2
        assert running[1] == 1

    def test_hits_do_not_wait_for_a_build(self, monkeypatch):
        provider = SystemProvider()
        resident = provider.get(FailureMode.CRASH, 2, 1, 1)
        started, release = threading.Event(), threading.Event()

        def block(cell):
            started.set()
            release.wait(timeout=60)

        _wrap_build(monkeypatch, block)
        building = threading.Thread(
            target=provider.get, args=(FailureMode.CRASH, 3, 1, 2)
        )
        building.start()
        try:
            assert started.wait(timeout=30)
            hits = []
            reader = threading.Thread(
                target=lambda: hits.append(
                    provider.get(FailureMode.CRASH, 2, 1, 1)
                )
            )
            reader.start()
            reader.join(timeout=10)
            # Answered while the build still held the build lock.
            assert hits == [resident]
        finally:
            release.set()
            building.join(timeout=60)
        assert not building.is_alive()


class TestNoCellFiles:
    def test_no_cell_file_written(self, tmp_path, monkeypatch):
        from repro.experiments.registry import run_experiment
        from repro.serve.session import QueryEngine

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_system_cache()
        assert run_experiment("E4").ok
        engine = QueryEngine()
        cell = {"mode": "omission", "n": 3, "t": 1}
        engine.execute(
            "eval", {**cell, "horizon": 2, "formula": {"kind": "true"}}
        )
        engine.execute("extend", {**cell, "horizon": 3})
        engine.execute(
            "monitor", {**cell, "config": "011", "rounds": 2}
        )
        written = [
            name
            for _, _, names in os.walk(str(tmp_path))
            for name in names
            if name.startswith("system_")
        ]
        assert written == []
