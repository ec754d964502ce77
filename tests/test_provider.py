"""Tests for the SystemProvider pipeline: the disk and LRU cache layers,
fail-closed loading of the cell files and the cross-process drill."""

import json
import os
import shutil
import signal
import subprocess
import sys

import numpy as np
import pytest

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
from repro.model.partition import SystemArrays
from repro.model.provider import SystemProvider

from .oracles import build_graph, scenario_index, state_index
from .test_fastbuild import assert_arrays_byte_identical


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


def _cell_files(directory):
    names = os.listdir(str(directory))
    return sorted(name for name in names if name.startswith("system_"))


def _repairs():
    from repro import obs

    return obs.snapshot()["counters"].get("arrays_cache_repairs", 0)


class TestSystemCodec:
    """The stored cell: save, load, validate, materialize."""

    @staticmethod
    def _round_trip(tmp_path, mode, n, t, horizon):
        from repro.io.system_codec import system_from_arrays
        from repro.model.fastbuild import build_arrays

        path = str(tmp_path / "cell.npz")
        build_arrays(mode, n, t, horizon).save(path)
        loaded = SystemArrays.load(path)
        loaded.validate(mode.value, n, t, horizon)
        return system_from_arrays(loaded)

    def test_crash_round_trip_equals_fresh_enumeration(self, tmp_path):
        assert_systems_identical(
            self._round_trip(tmp_path, FailureMode.CRASH, 4, 1, 3),
            build_graph(ExhaustiveCrashAdversary(4, 1, 3)),
        )

    def test_omission_round_trip_equals_fresh_enumeration(self, tmp_path):
        assert_systems_identical(
            self._round_trip(tmp_path, FailureMode.OMISSION, 3, 1, 3),
            build_graph(ExhaustiveOmissionAdversary(3, 1, 3)),
        )

    def test_payload_is_versioned(self, tmp_path):
        from repro.model.fastbuild import build_arrays
        from repro.model.partition import ARRAYS_VERSION

        path = str(tmp_path / "cell.npz")
        build_arrays(FailureMode.CRASH, 3, 1, 2).save(path)
        with np.load(path, allow_pickle=False) as bundle:
            meta = json.loads(bytes(bundle["meta"]).decode("utf-8"))
        assert meta["arrays_version"] == ARRAYS_VERSION

    def test_wrong_codec_version_rejected(self, tmp_path):
        from repro.errors import ConfigurationError
        from repro.model.fastbuild import build_arrays

        path = str(tmp_path / "cell.npz")
        build_arrays(FailureMode.CRASH, 3, 1, 2).save(path)
        _rewrite_npz(path, meta=_meta(arrays_version=-1))
        with pytest.raises(ConfigurationError):
            SystemArrays.load(path)


class TestDiskCacheLayer:
    def test_cross_provider_disk_hit(self, tmp_path):
        first = SystemProvider(cache_dir=str(tmp_path))
        built = first.get(FailureMode.CRASH, 3, 1, 2)
        assert first.cache_info()["disk_misses"] == 1

        second = SystemProvider(cache_dir=str(tmp_path))
        loaded = second.get(FailureMode.CRASH, 3, 1, 2)
        assert second.cache_info()["disk_hits"] == 1
        assert loaded is not built
        assert_systems_identical(loaded, built)

    def test_one_npz_per_cell(self, tmp_path):
        provider = SystemProvider(cache_dir=str(tmp_path))
        provider.get(FailureMode.CRASH, 3, 1, 2)
        provider.get_arrays(FailureMode.CRASH, 3, 1, 2)
        (name,) = _cell_files(tmp_path)
        assert name.endswith(".npz")
        assert provider.has_current_cell(FailureMode.CRASH, 3, 1, 2)

    def test_corrupted_cache_file_recovers(self, tmp_path):
        provider = SystemProvider(cache_dir=str(tmp_path))
        provider.get(FailureMode.CRASH, 3, 1, 2)
        (name,) = _cell_files(tmp_path)
        with open(os.path.join(str(tmp_path), name), "wb") as handle:
            handle.write(b"this is not a cache file")
        repairs = _repairs()
        fresh = SystemProvider(cache_dir=str(tmp_path))
        system = fresh.get(FailureMode.CRASH, 3, 1, 2)
        assert len(system.runs) > 0
        assert fresh.cache_info()["disk_hits"] == 0
        assert _repairs() == repairs + 1

        # The rebuild replaced the corrupt file with a valid one.
        after = SystemProvider(cache_dir=str(tmp_path))
        after.get(FailureMode.CRASH, 3, 1, 2)
        assert after.cache_info()["disk_hits"] == 1

    def test_truncated_file_unlinked_and_rewritten(self, tmp_path):
        provider = SystemProvider(cache_dir=str(tmp_path))
        built = provider.get(FailureMode.CRASH, 3, 1, 2)
        (name,) = _cell_files(tmp_path)
        path = os.path.join(str(tmp_path), name)
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data[: len(data) // 2])

        fresh = SystemProvider(cache_dir=str(tmp_path))
        assert_systems_identical(fresh.get(FailureMode.CRASH, 3, 1, 2), built)
        assert fresh.cache_info()["disk_hits"] == 0
        after = SystemProvider(cache_dir=str(tmp_path))
        assert_systems_identical(after.get(FailureMode.CRASH, 3, 1, 2), built)
        assert after.cache_info()["disk_hits"] == 1

    def test_disk_can_be_disabled(self, tmp_path):
        provider = SystemProvider(cache_dir=str(tmp_path), disk_cache=False)
        provider.get(FailureMode.CRASH, 3, 1, 2)
        assert os.listdir(str(tmp_path)) == []

    def test_disk_entries_inventory(self, tmp_path):
        provider = SystemProvider(cache_dir=str(tmp_path))
        provider.get(FailureMode.CRASH, 3, 1, 2)
        (entry,) = provider.disk_entries()
        assert entry["bytes"] > 0
        assert "crash_n3_t1_h2" in entry["file"]


class TestMemoryCacheLayer:
    def test_hits_and_misses_counted(self, tmp_path):
        provider = SystemProvider(cache_dir=str(tmp_path), disk_cache=False)
        provider.get(FailureMode.CRASH, 3, 1, 2)
        provider.get(FailureMode.CRASH, 3, 1, 2)
        info = provider.cache_info()
        assert info["misses"] == 1
        assert info["hits"] == 1
        assert info["size"] == 1
        assert info["keys"] == [("crash", 3, 1, 2)]

    def test_lru_bound_and_eviction_stats(self):
        provider = SystemProvider(max_memory_entries=2, disk_cache=False)
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
        provider = SystemProvider(max_memory_entries=2, disk_cache=False)
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
        assert "disk_files_removed" in stats

    def test_system_cache_info_exposes_hits_misses_size(self):
        clear_system_cache()
        before = system_cache_info()
        crash_system(3, 1, 2)
        crash_system(3, 1, 2)
        after = system_cache_info()
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"] + 1
        assert after["size"] >= 1
        for key in ("max_size", "evictions", "disk_enabled", "cache_dir"):
            assert key in after


class TestDiskCacheEnvNormalization:
    @pytest.mark.parametrize("value", ["False", "NO", " 0 ", "OFF", "no "])
    def test_falsy_values_disable_disk(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_DISK_CACHE", value)
        assert SystemProvider().disk_enabled is False

    @pytest.mark.parametrize("value", ["1", "true", " YES ", ""])
    def test_other_values_keep_disk_enabled(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_DISK_CACHE", value)
        assert SystemProvider().disk_enabled is True

    def test_explicit_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISK_CACHE", "0")
        assert SystemProvider(disk_cache=True).disk_enabled is True


class TestStaleCacheFilePruning:
    @staticmethod
    def _stale_sibling(tmp_path):
        """A plausible cache file of the same cell with an old version stamp."""
        name = "system_crash_n3_t1_h2_a0_v0.9.9.npz"
        with open(os.path.join(str(tmp_path), name), "wb") as handle:
            handle.write(b"stale arrays")
        return name

    def test_store_prunes_stale_siblings(self, tmp_path):
        stale = self._stale_sibling(tmp_path)
        provider = SystemProvider(cache_dir=str(tmp_path))
        provider.get(FailureMode.CRASH, 3, 1, 2)
        names = os.listdir(str(tmp_path))
        assert stale not in names
        # only the current cell file remains
        assert len(names) == 1
        assert provider.cache_info()["disk_prunes"] == 1

    def test_prune_spares_other_cells(self, tmp_path):
        other = "system_crash_n3_t1_h3_a0_v0.9.9.npz"
        with open(os.path.join(str(tmp_path), other), "wb") as handle:
            handle.write(b"stale arrays")
        provider = SystemProvider(cache_dir=str(tmp_path))
        provider.get(FailureMode.CRASH, 3, 1, 2)
        assert other in os.listdir(str(tmp_path))
        assert provider.cache_info()["disk_prunes"] == 0

    def test_disk_entries_flag_stale_files(self, tmp_path):
        stale = self._stale_sibling(tmp_path)
        provider = SystemProvider(cache_dir=str(tmp_path), disk_cache=False)
        entries = provider.disk_entries()
        assert [entry["file"] for entry in entries] == [stale]
        assert entries[0]["stale"] is True
        assert provider.cache_info()["disk_stale"] == 1

    def test_current_file_not_flagged_stale(self, tmp_path):
        provider = SystemProvider(cache_dir=str(tmp_path))
        provider.get(FailureMode.CRASH, 3, 1, 2)
        (entry,) = provider.disk_entries()
        assert entry["stale"] is False


class TestArraysCacheLayer:
    def test_arrays_memo_separate_from_systems(self, tmp_path):
        provider = SystemProvider(cache_dir=str(tmp_path))
        provider.get(FailureMode.CRASH, 3, 1, 2)
        provider.get_arrays(FailureMode.CRASH, 3, 1, 2)
        info = provider.cache_info()
        # Arrays must not leak into the system LRU's keys or size.
        assert info["size"] == 1
        assert info["keys"] == [("crash", 3, 1, 2)]
        assert info["arrays_size"] == 1

    def test_arrays_pressure_never_evicts_systems(self):
        provider = SystemProvider(max_memory_entries=2, disk_cache=False)
        provider.get(FailureMode.CRASH, 2, 1, 1)
        provider.get(FailureMode.CRASH, 2, 1, 2)
        provider.get_arrays(FailureMode.CRASH, 2, 1, 1)
        provider.get_arrays(FailureMode.CRASH, 2, 1, 2)
        info = provider.cache_info()
        assert info["evictions"] == 0
        hits = info["hits"]
        provider.get(FailureMode.CRASH, 2, 1, 1)
        provider.get(FailureMode.CRASH, 2, 1, 2)
        assert provider.cache_info()["hits"] == hits + 2

    def test_arrays_lru_bounded_separately(self):
        provider = SystemProvider(max_arrays_entries=1, disk_cache=False)
        provider.get_arrays(FailureMode.CRASH, 2, 1, 1)
        provider.get_arrays(FailureMode.CRASH, 2, 1, 2)
        info = provider.cache_info()
        assert info["arrays_size"] == 1
        assert info["arrays_evictions"] == 1
        assert info["evictions"] == 0

    def test_clear_reports_arrays_evictions(self):
        provider = SystemProvider(disk_cache=False)
        provider.get_arrays(FailureMode.CRASH, 2, 1, 1)
        stats = provider.clear()
        assert stats["arrays_evicted"] == 1
        assert provider.cache_info()["arrays_size"] == 0

    def test_arrays_store_prunes_stale_npz_siblings(self, tmp_path):
        # get_arrays stores through the same path as get, so a cold
        # arrays-only workflow cleans up old-version siblings too.
        stale = "system_crash_n3_t1_h2_a0_c0_v0.9.9.npz"
        with open(os.path.join(str(tmp_path), stale), "wb") as handle:
            handle.write(b"stale arrays")
        provider = SystemProvider(cache_dir=str(tmp_path))
        provider.get_arrays(FailureMode.CRASH, 3, 1, 2)
        names = os.listdir(str(tmp_path))
        assert stale not in names
        assert len(names) == 1


def _rewrite_npz(path, **changes):
    """Rewrite the cell file at *path* with some members transformed."""
    with np.load(path, allow_pickle=False) as bundle:
        members = {name: bundle[name] for name in bundle.files}
    for name, change in changes.items():
        members[name] = change(members[name].copy())
    with open(path, "wb") as handle:
        np.savez_compressed(handle, **members)


def _meta(**fields):
    def change(raw):
        meta = json.loads(bytes(raw).decode("utf-8"))
        meta.update(fields)
        return np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)

    return change


def _set(index, value):
    def change(array):
        array[index] = value
        return array

    return change


def _per_run(change):
    """The same change applied to every per-run member."""
    members = ("views", "init", "nonfaulty", "deliveries")
    return {name: change for name in members}


def _swap_runs(array):
    array[[1, 2]] = array[[2, 1]]
    return array


#: Ways a crash n=3 t=1 h=2 cell file can be foreign or tampered with.
_TAMPERS = {
    "arrays-version": {"meta": _meta(arrays_version=0)},
    "meta-mode": {"meta": _meta(mode="omission")},
    "meta-horizon": {"meta": _meta(horizon=3)},
    "views-shape": {"views": lambda views: views[:, :2]},
    "views-dtype": {"views": lambda views: views.astype(np.int64)},
    "deliveries-shape": {"deliveries": lambda deliv: deliv[:, :, :2]},
    "owner-length": {"owner": lambda owner: owner[:-1]},
    "view-id-out-of-range": {"views": _set((0, 0, 0), 10**6)},
    "negative-view-id": {"views": _set((0, 0, 0), -1)},
    "wrong-owner": {"views": lambda views: views[:, :, [1, 0, 2]]},
    "wrong-time": {"vtime": lambda vtime: vtime[::-1].copy()},
    "broken-chain": {"prev": _set(slice(None), -1)},
    "not-occurring": {"occurs": _set(0, False)},
    "run-dropped": _per_run(lambda array: array[:-1]),
    "runs-reordered": _per_run(_swap_runs),
    "init-flipped": {"init": lambda init: 1 - init},
}


class TestFailClosedCellFiles:
    """A cell file that is not exactly the requested cell is never used:
    it is unlinked, counted as ``arrays_cache_repairs`` and rebuilt."""

    @staticmethod
    def _fresh_reference(mode, n, t, horizon):
        from repro.model.fastbuild import build_arrays

        return build_arrays(mode, n, t, horizon)

    @pytest.mark.parametrize("case", sorted(_TAMPERS))
    def test_tampered_file_rebuilt(self, tmp_path, case):
        SystemProvider(cache_dir=str(tmp_path)).get_arrays(
            FailureMode.CRASH, 3, 1, 2
        )
        (name,) = _cell_files(tmp_path)
        _rewrite_npz(os.path.join(str(tmp_path), name), **_TAMPERS[case])
        repairs = _repairs()
        fresh = SystemProvider(cache_dir=str(tmp_path))
        arrays = fresh.get_arrays(FailureMode.CRASH, 3, 1, 2)
        assert fresh.cache_info()["disk_hits"] == 0
        assert _repairs() == repairs + 1
        assert_arrays_byte_identical(
            arrays, self._fresh_reference(FailureMode.CRASH, 3, 1, 2)
        )
        # The rebuild left a valid file behind.
        after = SystemProvider(cache_dir=str(tmp_path))
        after.get_arrays(FailureMode.CRASH, 3, 1, 2)
        assert after.cache_info()["disk_hits"] == 1

    def test_relabelled_state_rebuilt(self, tmp_path):
        # One occurrence relabelled to another view of the same owner,
        # time and predecessor: only the interning check can tell.
        def relabel(views):
            width, n = views.shape[1], views.shape[2]
            flat = views.reshape(-1).tolist()
            first = {}
            for position, view in enumerate(flat):
                first.setdefault(view, position)
            for run in range(len(views)):
                for p in range(n):
                    position = (run * width + 1) * n + p
                    if first[flat[position]] == position:
                        continue
                    for earlier in range(run):
                        other = int(views[earlier, 1, p])
                        if (
                            other != flat[position]
                            and views[earlier, 0, p] == views[run, 0, p]
                            and first[other] < position
                        ):
                            views[run, 1, p] = other
                            return views
            raise AssertionError("no relabelling found")

        SystemProvider(cache_dir=str(tmp_path)).get_arrays(
            FailureMode.OMISSION, 3, 1, 1
        )
        (name,) = _cell_files(tmp_path)
        _rewrite_npz(os.path.join(str(tmp_path), name), views=relabel)
        repairs = _repairs()
        fresh = SystemProvider(cache_dir=str(tmp_path))
        arrays = fresh.get_arrays(FailureMode.OMISSION, 3, 1, 1)
        assert _repairs() == repairs + 1
        assert_arrays_byte_identical(
            arrays, self._fresh_reference(FailureMode.OMISSION, 3, 1, 1)
        )

    def test_tampered_file_never_materialized(self, tmp_path):
        SystemProvider(cache_dir=str(tmp_path)).get(FailureMode.CRASH, 3, 1, 2)
        (name,) = _cell_files(tmp_path)
        _rewrite_npz(
            os.path.join(str(tmp_path), name), **_TAMPERS["runs-reordered"]
        )
        fresh = SystemProvider(cache_dir=str(tmp_path))
        system = fresh.get(FailureMode.CRASH, 3, 1, 2)
        assert fresh.cache_info()["disk_hits"] == 0
        assert_systems_identical(
            system, build_graph(ExhaustiveCrashAdversary(3, 1, 2))
        )

    def test_other_cells_file_under_this_cells_name(self, tmp_path):
        # A crash file copied to the omission cell's name must not answer
        # for the omission cell.
        SystemProvider(cache_dir=str(tmp_path)).get_arrays(
            FailureMode.CRASH, 3, 1, 3
        )
        (crash_file,) = [
            name
            for name in os.listdir(str(tmp_path))
            if name.startswith("system_crash_n3_t1_h3_")
            and name.endswith(".npz")
        ]
        shutil.copy(
            os.path.join(str(tmp_path), crash_file),
            os.path.join(
                str(tmp_path),
                crash_file.replace("system_crash_", "system_omission_"),
            ),
        )
        fresh = SystemProvider(cache_dir=str(tmp_path))
        arrays = fresh.get_arrays(FailureMode.OMISSION, 3, 1, 3)
        assert (arrays.mode, arrays.num_runs) == ("omission", 1520)
        assert_arrays_byte_identical(
            arrays, self._fresh_reference(FailureMode.OMISSION, 3, 1, 3)
        )


#: One cache operation per process of the drill.
_DRILL_SCRIPT = """
import os, signal, sys
from repro.model.failures import FailureMode
from repro.model.partition import SystemArrays
from repro.model.provider import SystemProvider

action, horizon = sys.argv[1], int(sys.argv[2])
provider = SystemProvider()
if action == "die-in-save":
    def save(self, path):
        with open(path, "wb") as handle:
            handle.write(b"PK partial write")
        os.kill(os.getpid(), signal.SIGKILL)

    SystemArrays.save = save
provider.get(FailureMode.OMISSION, 3, 1, horizon)
"""


class TestCrossProcessDrill:
    """Concurrent writers and a killed writer on one cache dir leave only
    whole, correct cells behind."""

    @staticmethod
    def _spawn(cache_dir, *args):
        import repro

        env = {
            k: v for k, v in os.environ.items() if not k.startswith("REPRO_")
        }
        env["REPRO_CACHE_DIR"] = cache_dir
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        return subprocess.Popen(
            [sys.executable, "-c", _DRILL_SCRIPT, *map(str, args)], env=env
        )

    def _together(self, cache_dir, *commands):
        processes = [self._spawn(cache_dir, *command) for command in commands]
        return [process.wait(timeout=120) for process in processes]

    def test_concurrent_writers_and_killed_writer(self, tmp_path):
        from repro.model.fastbuild import build_arrays

        cache_dir = str(tmp_path)
        together = self._together
        assert together(cache_dir, ("get", 2), ("get", 2)) == [0, 0]
        assert together(cache_dir, ("get", 3), ("get", 3)) == [0, 0]
        assert together(cache_dir, ("die-in-save", 1)) == [-signal.SIGKILL]

        (orphan,) = [
            name for name in os.listdir(cache_dir) if name.endswith(".tmp.npz")
        ]
        assert orphan.startswith("system_omission_n3_t1_h1_")
        reader = SystemProvider(cache_dir=cache_dir)
        entries = reader.disk_entries()
        assert orphan not in [entry["file"] for entry in entries]
        assert len(entries) == 2
        assert not any(entry["stale"] for entry in entries)

        for horizon in (2, 3):
            arrays = reader.get_arrays(FailureMode.OMISSION, 3, 1, horizon)
            assert_arrays_byte_identical(
                arrays, build_arrays(FailureMode.OMISSION, 3, 1, horizon)
            )
            assert_systems_identical(
                reader.get(FailureMode.OMISSION, 3, 1, horizon),
                build_graph(ExhaustiveOmissionAdversary(3, 1, horizon)),
            )
        assert reader.cache_info()["disk_hits"] == 4

        # The next store into the cell prunes the dead writer's temp file.
        reader.get(FailureMode.OMISSION, 3, 1, 1)
        assert orphan not in os.listdir(cache_dir)
