"""Tests for the sharded, checkpointed, fault-tolerant execution engine.

Covers the engine mechanics (fault-spec parsing, env validation,
checkpoint integrity), the supervised pool's crash/hang/corruption recovery
via the deterministic ``REPRO_EXEC_FAULTS`` harness, SIGKILL-and-resume of a
whole batch, and the verdict-parity guarantee: E9/E14/E20 run through the
sharded path produce the same results as the monolithic path, and for E9
as its claims recomputed by the reference evaluator.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.errors import ConfigurationError, ShardExecutionError
from repro.exec import (
    CheckpointStore,
    FAULTS_ENV,
    FaultAction,
    Shard,
    ShardPool,
    list_batches,
    parse_faults,
    plan_for,
    register_task,
    run_batch,
)
from repro.exec.checkpoint import CHECKPOINT_VERSION
from repro.exec.plan import BatchPlan
from repro.exec.pool import (
    BACKOFF_ENV,
    RETRIES_ENV,
    TIMEOUT_ENV,
    WORKERS_ENV,
    resolve_backoff,
    resolve_retries,
    resolve_timeout,
    resolve_workers,
)
from repro.exec.shard import params_digest
from repro.experiments.framework import ExperimentResult

from . import oracles

#: data keys that legitimately differ between monolithic and sharded runs.
NONPARITY_KEYS = {"instrumentation", "trace", "batch"}


@pytest.fixture(autouse=True)
def _isolated_exec_env(monkeypatch):
    """Keep fault specs and pool tuning from leaking between tests."""
    for name in (FAULTS_ENV, WORKERS_ENV, TIMEOUT_ENV, RETRIES_ENV, BACKOFF_ENV):
        monkeypatch.delenv(name, raising=False)


@register_task("test.echo")
def _echo_task(params):
    marker_dir = params.get("marker_dir")
    if marker_dir:
        name = f"shard{params['index']}_{os.getpid()}_{time.time_ns()}"
        with open(os.path.join(marker_dir, name), "w", encoding="utf-8"):
            pass
    time.sleep(params.get("sleep", 0.0))
    return {"value": params["index"] * 10}


def _toy_plan(count=3, sleeps=None, marker_dir=None):
    """A plan over ``test.echo`` shards ``work/0..count-1``."""
    sleeps = list(sleeps if sleeps is not None else [0.0] * count)
    shards = []
    for index in range(count):
        params = {"index": index, "sleep": sleeps[index]}
        if marker_dir:
            params["marker_dir"] = marker_dir
        shards.append(
            Shard(shard_id=f"work/{index}", task="test.echo", params=params)
        )

    def finalize(results):
        return ExperimentResult(
            experiment_id="EX",
            title="toy batch",
            paper_claim="(engine test)",
            ok=True,
            table="toy",
            data={
                "values": [
                    results[f"work/{index}"]["value"] for index in range(count)
                ]
            },
        )

    return BatchPlan(
        experiment_id="EX",
        params={"count": count, "sleeps": sleeps},
        shards=shards,
        finalize=finalize,
    )


def _counters(result):
    return result.data["instrumentation"]["counters"]


def assert_results_match(mono, sharded):
    """The sharded path's verdict-parity guarantee."""
    assert sharded.experiment_id == mono.experiment_id
    assert sharded.title == mono.title
    assert sharded.ok == mono.ok
    assert sharded.table == mono.table
    assert sharded.notes == mono.notes
    mono_data = {k: v for k, v in mono.data.items() if k not in NONPARITY_KEYS}
    sharded_data = {
        k: v for k, v in sharded.data.items() if k not in NONPARITY_KEYS
    }
    assert sharded_data == mono_data


class TestFaultSpec:
    def test_parse_full_spec(self):
        plan = parse_faults("kill:work/0@1, hang:a/b ,corrupt:c")
        assert plan["work/0"] == FaultAction("kill", "work/0", 1)
        assert plan["a/b"] == FaultAction("hang", "a/b", 0)
        assert plan["c"] == FaultAction("corrupt", "c", 0)
        assert parse_faults("") == {}

    @pytest.mark.parametrize(
        "spec",
        ["explode:work/0", "kill", "kill:", "kill:s@x", "kill:s@-1", "kill:@2"],
    )
    def test_malformed_spec_names_variable(self, spec):
        with pytest.raises(ConfigurationError) as excinfo:
            parse_faults(spec)
        assert FAULTS_ENV in str(excinfo.value)


class TestEnvConfig:
    @pytest.mark.parametrize(
        "name, resolver, bad",
        [
            (WORKERS_ENV, resolve_workers, "zero"),
            (WORKERS_ENV, resolve_workers, "0"),
            (TIMEOUT_ENV, resolve_timeout, "soon"),
            (TIMEOUT_ENV, resolve_timeout, "0"),
            (RETRIES_ENV, resolve_retries, "-1"),
            (RETRIES_ENV, resolve_retries, "many"),
            (BACKOFF_ENV, resolve_backoff, "fast"),
        ],
    )
    def test_malformed_value_names_variable_and_value(
        self, monkeypatch, name, resolver, bad
    ):
        monkeypatch.setenv(name, bad)
        with pytest.raises(ConfigurationError) as excinfo:
            resolver()
        message = str(excinfo.value)
        assert name in message
        assert repr(bad) in message

    def test_blank_value_means_default(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "   ")
        assert resolve_workers() >= 1
        monkeypatch.setenv(RETRIES_ENV, "")
        assert resolve_retries() == 2

    def test_explicit_values_win(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "7")
        assert resolve_workers() == 7
        assert resolve_workers(2) == 2
        monkeypatch.setenv(TIMEOUT_ENV, "12.5")
        assert resolve_timeout() == 12.5


class TestCheckpointStore:
    def test_roundtrip_and_validation(self, tmp_path):
        store = CheckpointStore("batchA", root=str(tmp_path))
        digest = params_digest({"x": 1})
        store.store("s/1", digest, {"value": 7})
        assert store.load("s/1", digest) == {"value": 7}
        # wrong shard, drifted inputs: both are misses, not errors
        assert store.load("s/2", digest) is None
        assert store.load("s/1", params_digest({"x": 2})) is None
        assert store.completed_ids() == ["s__1"]

    def test_corrupt_checkpoint_degrades_to_miss(self, tmp_path):
        store = CheckpointStore("batchB", root=str(tmp_path))
        digest = params_digest({"x": 1})
        store.store("s/1", digest, {"value": 7})
        path = store.shard_path("s/1")
        blob = open(path, "r", encoding="utf-8").read()
        # truncated file
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(blob[: len(blob) // 2])
        assert store.load("s/1", digest) is None
        # syntactically valid but tampered payload: checksum rejects it
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(blob.replace('"value": 7', '"value": 8'))
        assert store.load("s/1", digest) is None

    def test_manifest_matching(self, tmp_path):
        store = CheckpointStore("batchC", root=str(tmp_path))
        meta = {"experiment": "E9", "params_digest": "abc"}
        assert not store.manifest_matches(meta)
        store.write_manifest(meta)
        assert store.manifest_matches(meta)
        assert not store.manifest_matches({**meta, "params_digest": "xyz"})
        # A stored key the batch lacks (an older layout's) fails the match.
        assert not store.manifest_matches({"experiment": "E9"})

    def test_clear_and_list_batches(self, tmp_path):
        root = str(tmp_path)
        store = CheckpointStore("batchD", root=root)
        store.write_manifest({"experiment": "EX"})
        store.store("s/1", "d", {"v": 1})
        entries = list_batches(root)
        assert [e["batch"] for e in entries] == ["batchD"]
        assert entries[0]["experiment"] == "EX"
        assert entries[0]["shards"] == 1
        assert entries[0]["stale"] is False
        assert entries[0]["bytes"] > 0
        store.clear()
        assert store.completed_ids() == []
        assert store.load_manifest() is None

    def test_stale_version_records_degrade_to_miss(self, tmp_path):
        """A checkpoint written under an older spec version (the
        run-level-shard era) must be invalidated, never resumed: the
        payload checksum still validates after a version rewrite, so only
        the explicit version check can reject it."""
        store = CheckpointStore("batchE", root=str(tmp_path))
        digest = params_digest({"x": 1})
        store.store("s/1", digest, {"value": 7})
        path = store.shard_path("s/1")
        record = json.loads(open(path, "r", encoding="utf-8").read())
        record["checkpoint_version"] = CHECKPOINT_VERSION - 1
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
        assert store.load("s/1", digest) is None

    def test_stale_version_manifest_never_matches(self, tmp_path):
        store = CheckpointStore("batchF", root=str(tmp_path))
        meta = {"experiment": "E9"}
        store.write_manifest(meta)
        manifest = store.load_manifest()
        manifest["checkpoint_version"] = CHECKPOINT_VERSION - 1
        with open(store.manifest_path(), "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        assert not store.manifest_matches(meta)
        (entry,) = list_batches(str(tmp_path))
        assert entry["stale"] is True

    def test_health_snapshot_roundtrip_and_status_fields(self, tmp_path):
        root = str(tmp_path)
        store = CheckpointStore("batchG", root=root)
        store.write_manifest({"experiment": "E9"})
        assert store.load_health() is None
        store.write_health(
            {
                "workers": 2,
                "inflight": [
                    {"shard": "s/1", "attempt": 1, "heartbeat_age": 0.25}
                ],
                "shard_retries": {"s/1": 2},
                "retry_causes": {"timeout": 2},
            }
        )
        entry = next(e for e in list_batches(root) if e["batch"] == "batchG")
        assert entry["retries"] == 2
        assert entry["retry_causes"] == {"timeout": 2}
        assert entry["inflight"] == 1
        assert entry["max_heartbeat_age"] == 0.25
        store.clear()
        assert store.load_health() is None


class TestShardPool:
    def test_runs_shards_to_completion(self, tmp_path):
        plan = _toy_plan(count=5)
        with ShardPool(2, backoff=0.01) as pool:
            results = pool.run(plan.shards)
        assert results["work/3"] == {"value": 30}
        assert len(results) == 5

    def test_workers_persist_across_runs(self):
        shards = _toy_plan(count=3).shards
        with ShardPool(2, backoff=0.01) as pool:
            pool.run(shards)
            first_pids = set(pool._workers)
            pool.run(shards)
            assert set(pool._workers) == first_pids

    def test_empty_stage_is_a_noop(self):
        assert ShardPool(2).run([]) == {}

    def test_duplicate_shard_ids_rejected(self):
        shard = Shard(shard_id="dup", task="test.echo", params={"index": 0})
        with ShardPool(1) as pool:
            with pytest.raises(ShardExecutionError):
                pool.run([shard, shard])

    def test_task_exception_exhausts_retries(self, tmp_path):
        shard = Shard(shard_id="boom", task="no.such.task", params={})
        with ShardPool(1, retries=1, backoff=0.01) as pool:
            with pytest.raises(ShardExecutionError) as excinfo:
                pool.run([shard])
        assert "boom" in str(excinfo.value)


class TestFaultInjection:
    """The acceptance drills: a worker killed mid-shard and a hung shard
    hitting its timeout are both retried and the batch completes."""

    def test_worker_killed_mid_shard_is_retried(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "kill:work/1@0")
        result = run_batch(
            _toy_plan(count=3),
            workers=2,
            backoff=0.01,
            checkpoint_root=str(tmp_path / "exec"),
        )
        assert result.data["values"] == [0, 10, 20]
        counters = _counters(result)
        assert counters.get("exec_worker_restarts", 0) >= 1
        assert counters.get("exec_shard_retries", 0) >= 1
        assert counters.get("exec_shard_retries_worker-death", 0) >= 1
        assert counters["exec_shards_completed"] == 3
        assert result.data["batch"]["retry_causes"].get("worker-death", 0) >= 1

    def test_hung_shard_hits_timeout_and_is_retried(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "hang:work/0@0")
        result = run_batch(
            _toy_plan(count=2),
            workers=2,
            timeout=1.5,
            backoff=0.01,
            checkpoint_root=str(tmp_path / "exec"),
        )
        assert result.data["values"] == [0, 10]
        counters = _counters(result)
        assert counters.get("exec_shard_timeouts", 0) >= 1
        assert counters.get("exec_shard_retries", 0) >= 1
        assert (
            counters.get("exec_shard_retries_timeout", 0)
            + counters.get("exec_shard_retries_stale-heartbeat", 0)
        ) >= 1

    def test_corrupted_payload_fails_checksum_and_is_retried(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(FAULTS_ENV, "corrupt:work/2@0")
        result = run_batch(
            _toy_plan(count=3),
            workers=2,
            backoff=0.01,
            checkpoint_root=str(tmp_path / "exec"),
        )
        assert result.data["values"] == [0, 10, 20]
        counters = _counters(result)
        assert counters.get("exec_shard_retries", 0) >= 1
        assert counters.get("exec_shard_retries_checksum", 0) >= 1

    def test_exhausted_retries_raise(self, tmp_path, monkeypatch):
        # attempt-pinned faults fire once, so exhaust by allowing no retries
        monkeypatch.setenv(FAULTS_ENV, "kill:work/0@0")
        with pytest.raises(ShardExecutionError):
            run_batch(
                _toy_plan(count=1),
                workers=1,
                retries=0,
                backoff=0.01,
                checkpoint_root=str(tmp_path / "exec"),
            )


class TestResume:
    def test_sigkilled_batch_resumes_from_durable_shards(self, tmp_path):
        """SIGKILL the whole batch mid-run; ``--resume`` re-executes only
        the shards that never reached a durable checkpoint."""
        marker_dir = str(tmp_path / "markers")
        os.makedirs(marker_dir)
        root = str(tmp_path / "exec")
        count = 4
        sleeps = [0.0, 0.4, 0.4, 0.4]

        def victim():
            os.setsid()  # own process group, so killpg reaps the workers too
            run_batch(
                _toy_plan(count=count, sleeps=sleeps, marker_dir=marker_dir),
                workers=1,
                checkpoint_root=root,
            )

        plan = _toy_plan(count=count, sleeps=sleeps, marker_dir=marker_dir)
        store = CheckpointStore(plan.batch_key(), root=root)
        ctx = multiprocessing.get_context("fork")
        process = ctx.Process(target=victim)
        process.start()
        deadline = time.time() + 30.0
        while not store.completed_ids():
            assert time.time() < deadline, "no checkpoint appeared in 30s"
            assert process.is_alive(), "batch finished before it was killed"
            time.sleep(0.01)
        os.killpg(process.pid, signal.SIGKILL)
        process.join(timeout=10.0)
        durable = len(store.completed_ids())
        assert 1 <= durable < count

        result = run_batch(plan, workers=1, resume=True, checkpoint_root=root)
        assert result.data["values"] == [0, 10, 20, 30]
        assert result.data["batch"]["resumed"] == durable
        counters = _counters(result)
        assert counters["exec_shards_resumed"] == durable
        assert counters["exec_shards_completed"] == count - durable
        # shard 0 was durable before the kill: it must not have re-executed
        markers = os.listdir(marker_dir)
        assert sum(1 for name in markers if name.startswith("shard0_")) == 1

    def test_resume_with_drifted_params_starts_fresh(self, tmp_path):
        root = str(tmp_path / "exec")
        run_batch(_toy_plan(count=2), workers=1, checkpoint_root=root)
        drifted = _toy_plan(count=2, sleeps=[0.01, 0.01])
        result = run_batch(drifted, workers=1, resume=True, checkpoint_root=root)
        assert result.data["batch"]["resumed"] == 0

    def test_resume_rejects_run_level_era_checkpoints(self, tmp_path):
        """Rewind a completed batch's checkpoints to spec version 1 (the
        run-level-shard era); ``--resume`` must re-execute everything
        rather than resume payloads sharded along a different axis."""
        root = str(tmp_path / "exec")
        plan = _toy_plan(count=3)
        run_batch(plan, workers=1, checkpoint_root=root)
        store = CheckpointStore(plan.batch_key(), root=root)
        for path in [store.manifest_path()] + [
            os.path.join(store.shard_dir, name + ".json")
            for name in store.completed_ids()
        ]:
            record = json.loads(open(path, "r", encoding="utf-8").read())
            record["checkpoint_version"] = 1
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(record, handle)
        result = run_batch(
            _toy_plan(count=3), workers=1, resume=True, checkpoint_root=root
        )
        assert result.data["batch"]["resumed"] == 0
        assert _counters(result)["exec_shards_completed"] == 3

    def test_resume_replays_everything_when_complete(self, tmp_path):
        root = str(tmp_path / "exec")
        plan = _toy_plan(count=3)
        first = run_batch(plan, workers=2, checkpoint_root=root)
        again = run_batch(
            _toy_plan(count=3), workers=2, resume=True, checkpoint_root=root
        )
        assert again.data["values"] == first.data["values"]
        assert again.data["batch"]["resumed"] == 3
        assert _counters(again).get("exec_shards_completed", 0) == 0


def reference_e9(n, t, horizon):
    """E9's result with every claim measured by the per-point oracles of
    ``tests/oracles.py``: the witness run's decisions from the reference
    firing-table scan, ``C□_{N∧Z^{Λ,1}} ∃1`` and the beliefs in it from
    the reference evaluator.  Only the pairs of
    :func:`~repro.protocols.f_lambda.f_lambda_sequence` come from
    production."""
    from repro.core.decision_sets import DecisionPair
    from repro.experiments.e09_omission_nontermination import (
        build_result,
        perturbed_cases,
        witness_target,
    )
    from repro.knowledge.formulas import Believes, ContinualCommon, Exists
    from repro.knowledge.nonrigid import nonfaulty_and_zeros
    from repro.model.builder import omission_system
    from repro.protocols.f_lambda import f_lambda_sequence

    system = omission_system(n, t, horizon)
    _, first, second = f_lambda_sequence(system)
    target = system.run_index_for(*witness_target(n, horizon))
    nonfaulty = system.runs[target].nonfaulty
    times = oracles.first_times(system, second)
    nobody_decides = all(
        oracles.decision_for(times, target, processor) is None
        for processor in nonfaulty
    )
    cbox = ContinualCommon(
        nonfaulty_and_zeros(DecisionPair(*oracles.sticky_pair(system, first))),
        Exists(1),
    )
    cbox_rows = oracles.evaluate(cbox, system)
    perturbed_rows = [
        [label, cbox_rows[system.run_index_for(config, pattern)][0]]
        for label, config, pattern in perturbed_cases(n, horizon)
    ]
    belief_never = not any(
        any(oracles.evaluate(Believes(processor, cbox), system)[target])
        for processor in nonfaulty
    )
    return build_result(
        len(system.runs),
        n,
        t,
        horizon,
        nobody_decides=nobody_decides,
        belief_never=belief_never,
        perturbed_rows=perturbed_rows,
    )


class TestVerdictParity:
    """Sharded and monolithic paths must agree byte-for-byte on verdicts."""

    @pytest.mark.parametrize("evaluator", ["chunked", "reference"])
    def test_e9_parity_all_kernels(self, evaluator, tmp_path, monkeypatch):
        """E9's monolithic result, from the limb kernel (``chunked``) or
        with its claims recomputed by the reference evaluator
        (``reference``), equals the sharded batch's."""
        from repro.experiments.e09_omission_nontermination import run as e9_run

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        mono = (e9_run if evaluator == "chunked" else reference_e9)(3, 1, 2)
        sharded = run_batch(
            plan_for("E9", n=3, t=1, horizon=2),
            workers=2,
            checkpoint_root=str(tmp_path / "exec"),
        )
        assert_results_match(mono, sharded)

    def test_e9_proposition_cell(self, tmp_path, monkeypatch):
        """The benchmark cell n=5, t=2, h=1 meets Proposition 6.3's
        hypotheses (t > 1, n >= t + 2): every claim holds, monolithic and
        on two workers alike."""
        from repro.experiments.registry import run_experiment

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        mono = run_experiment("E9", n=5, t=2, horizon=1)
        sharded = run_batch(
            plan_for("E9", n=5, t=2, horizon=1),
            workers=2,
            checkpoint_root=str(tmp_path / "exec"),
        )
        assert mono.ok
        assert mono.table.count("True") == 3
        assert "False" not in mono.table
        assert_results_match(mono, sharded)

    def test_e20_parity_exact(self, tmp_path):
        from repro.experiments.e20_scaling_gains import run as e20_run

        cells = ((3, 1), (4, 1))
        mono = e20_run(cells=cells, samples=40, seed=5)
        sharded = run_batch(
            plan_for("E20", cells=cells, samples=40, seed=5),
            workers=2,
            checkpoint_root=str(tmp_path / "exec"),
        )
        assert_results_match(mono, sharded)

    def test_e14_parity_modulo_timings(self, tmp_path):
        """E14 cells build their arrays with ``build_arrays`` inside the
        pool's daemonic workers.  Crash n=4, t=3, h=1 has 27,120 scenarios: a
        cell that large must build there too (a daemonic worker may not
        start processes of its own)."""
        from repro.experiments.e14_scaling import run as e14_run
        from repro.model.failures import FailureMode

        def structural(table):
            scaling, _, messages = table.partition("\n\n")
            # columns 6-7 of the scaling table are wall-clock measurements
            rows = [line.split()[:6] for line in scaling.splitlines()]
            return rows, messages

        for cell in ((FailureMode.CRASH, 3, 1, 2), (FailureMode.CRASH, 4, 3, 1)):
            cells = (cell,)
            mono = e14_run(cells=cells)
            sharded = run_batch(
                plan_for("E14", cells=cells),
                workers=2,
                checkpoint_root=str(tmp_path / "exec"),
            )
            assert sharded.ok == mono.ok
            assert sharded.notes == mono.notes
            assert structural(sharded.table) == structural(mono.table)

    def test_unknown_experiment_lists_wired_plans(self):
        for experiment_id in ("E7", "E4", "E5", "E21"):
            with pytest.raises(ConfigurationError) as excinfo:
                plan_for(experiment_id)
            message = str(excinfo.value)
            assert repr(experiment_id) in message
            listed = message.rsplit(": ", 1)[1].split(", ")
            assert set(listed) == {"E9", "E14", "E20"}


class TestTelemetryJournal:
    """Every batch run writes a schema-valid telemetry.jsonl next to its
    checkpoints, and folding it back reproduces the run's shape."""

    def test_run_emits_schema_valid_journal(self, tmp_path):
        from repro.obs.journal import (
            fold_journal,
            read_journal,
            validate_journal,
        )

        root = str(tmp_path / "exec")
        plan = _toy_plan(count=4)
        result = run_batch(plan, workers=2, checkpoint_root=root)
        journal_path = result.data["batch"]["journal"]
        store = CheckpointStore(plan.batch_key(), root=root)
        assert journal_path == store.journal_path()
        assert validate_journal(journal_path) == []

        folded = fold_journal(read_journal(journal_path))
        assert folded["meta"]["batch"] == plan.batch_key()
        assert folded["meta"]["experiment"] == "EX"
        assert folded["shards"]["done"] == 4
        assert folded["shards"]["started"] == 4
        assert folded["done"]["ok"] is True
        assert folded["done"]["shards"] == 4
        # the supervisor's counter delta folded back through merge_delta
        assert folded["metrics"]["counters"]["exec_shards_completed"] == 4
        hist = folded["metrics"]["histograms"]["exec_shard_seconds"]
        assert hist["count"] == 4
        # every shard_done carries worker provenance
        assert sum(w["shards_done"] for w in folded["workers"].values()) == 4

    def test_resumed_batch_journals_resumed_shards(self, tmp_path):
        from repro.obs.journal import fold_journal, read_journal

        root = str(tmp_path / "exec")
        run_batch(_toy_plan(count=3), workers=1, checkpoint_root=root)
        again = run_batch(
            _toy_plan(count=3), workers=1, resume=True, checkpoint_root=root
        )
        folded = fold_journal(read_journal(again.data["batch"]["journal"]))
        assert folded["shards"]["resumed"] == 3
        assert folded["shards"]["done"] == 0

    def test_retry_events_carry_cause(self, tmp_path, monkeypatch):
        from repro.obs.journal import fold_journal, read_journal

        monkeypatch.setenv(FAULTS_ENV, "kill:work/1@0")
        result = run_batch(
            _toy_plan(count=3),
            workers=2,
            backoff=0.01,
            checkpoint_root=str(tmp_path / "exec"),
        )
        folded = fold_journal(read_journal(result.data["batch"]["journal"]))
        assert folded["shards"]["retries_by_cause"].get("worker-death", 0) >= 1

    def test_clear_removes_journal(self, tmp_path):
        root = str(tmp_path / "exec")
        plan = _toy_plan(count=2)
        run_batch(plan, workers=1, checkpoint_root=root)
        store = CheckpointStore(plan.batch_key(), root=root)
        assert os.path.exists(store.journal_path())
        store.clear()
        assert not os.path.exists(store.journal_path())

    def test_list_batches_reports_journal(self, tmp_path):
        root = str(tmp_path / "exec")
        plan = _toy_plan(count=2)
        run_batch(plan, workers=1, checkpoint_root=root)
        entry = next(
            e for e in list_batches(root) if e["batch"] == plan.batch_key()
        )
        assert entry["journal"] is not None
        assert entry["journal_bytes"] > 0


@register_task("test.kernel_cell")
def _kernel_cell_task(params):
    """C and C□ of ∃1 by fixpoint on a freshly built cell, so the chunked
    index and its fixpoints run, and observe their histograms, in the
    process that runs the shard."""
    from repro.io.system_codec import system_from_arrays
    from repro.knowledge import NONFAULTY, Common, ContinualCommon, Exists
    from repro.model.failures import FailureMode
    from repro.model.fastbuild import build_arrays

    system = system_from_arrays(
        build_arrays(
            FailureMode(params["mode"]),
            params["n"],
            params["t"],
            params["horizon"],
        )
    )
    formulas = (
        Common(NONFAULTY, Exists(1)),
        ContinualCommon(NONFAULTY, Exists(1), force_fixpoint=True),
    )
    return {
        "true": [formula.evaluate(system).count_true() for formula in formulas]
    }


def _kernel_plan():
    """Four reduced cells, one ``test.kernel_cell`` shard each."""
    cells = [
        ["crash", 3, 1, 2],
        ["crash", 3, 1, 3],
        ["omission", 3, 1, 2],
        ["omission", 3, 2, 2],
    ]
    shards = [
        Shard(
            shard_id=f"evaluate/cell-{index}",
            task="test.kernel_cell",
            params={"mode": mode, "n": n, "t": t, "horizon": horizon},
        )
        for index, (mode, n, t, horizon) in enumerate(cells)
    ]

    def finalize(results):
        return ExperimentResult(
            experiment_id="EX",
            title="kernel cells",
            paper_claim="(engine test)",
            ok=True,
            table="kernel",
            data={
                "true": [results[shard.shard_id]["true"] for shard in shards]
            },
        )

    return BatchPlan(
        experiment_id="EX",
        params={"cells": cells},
        shards=shards,
        finalize=finalize,
    )


class TestHistogramMergeParity:
    """The supervisor's merged histograms must be independent of how the
    work was sharded across processes: running a plan's shards
    in-process one by one and through the pool yields identical
    deterministic histograms (bucket counts AND sums).

    The wired plans observe no histogram whose values are deterministic
    (E14's cells take the components path of ``C□`` and record only
    wall times; E9 is one shard), so the plan here evaluates fixpoints
    on four reduced cells."""

    #: histograms whose values are properties of the cells and formulas,
    #: not wall-clock — these must merge exactly.
    DETERMINISTIC_HISTOGRAMS = (
        "chunked_group_entries",
        "fixpoint_iterations_per_call",
    )

    def test_pool_and_inprocess_histograms_identical(self, tmp_path):
        from repro import obs
        from repro.exec.shard import run_task

        plan = _kernel_plan()
        before = obs.snapshot()
        results = {
            shard.shard_id: run_task(shard.task, shard.params)
            for shard in plan.shards
        }
        inproc = obs.delta_since(before)
        expected = plan.finalize(results).data["true"]

        before = obs.snapshot()
        result = run_batch(
            _kernel_plan(), workers=2, checkpoint_root=str(tmp_path / "exec")
        )
        pooled = obs.delta_since(before)
        assert result.data["true"] == expected
        assert result.data["batch"]["shards"] == 4

        for key in self.DETERMINISTIC_HISTOGRAMS:
            mono_hist = inproc["histograms"][key]
            pool_hist = pooled["histograms"][key]
            assert mono_hist["count"] > 0, key
            assert pool_hist["count"] == mono_hist["count"], key
            assert pool_hist["buckets"] == mono_hist["buckets"], key
            assert abs(pool_hist["sum"] - mono_hist["sum"]) < 1e-9, key


class TestE9Batch:
    """E9's plan is one ``e9.cell`` shard: it resumes without executing,
    and a checkpoint directory of another layout is cleared, not
    resumed."""

    PARAMS = {"n": 3, "t": 1, "horizon": 2}

    def _run(self, root, resume=False):
        return run_batch(
            plan_for("E9", **self.PARAMS),
            workers=2,
            resume=resume,
            checkpoint_root=root,
        )

    def test_plan_is_one_cell_shard(self):
        (shard,) = plan_for("E9", **self.PARAMS).shards
        assert shard.task == "e9.cell"
        assert shard.params == self.PARAMS

    def test_resume_executes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        root = str(tmp_path / "exec")
        first = self._run(root)
        again = self._run(root, resume=True)
        assert again.data["batch"]["shards"] == 1
        assert again.data["batch"]["resumed"] == 1
        assert _counters(again).get("exec_shards_completed", 0) == 0
        assert again.table == first.table
        assert_results_match(first, again)

    @pytest.mark.parametrize(
        "stale",
        [
            {"partition": "limb"},
            {"checkpoint_version": CHECKPOINT_VERSION - 1},
        ],
        ids=["limb-partition", "previous-version"],
    )
    def test_other_layout_is_cleared_not_resumed(
        self, stale, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        root = str(tmp_path / "exec")
        first = self._run(root)
        plan = plan_for("E9", **self.PARAMS)
        store = CheckpointStore(plan.batch_key(), root=root)
        manifest = store.load_manifest()
        with open(store.manifest_path(), "w", encoding="utf-8") as handle:
            json.dump({**manifest, **stale}, handle)
        again = self._run(root, resume=True)
        assert again.data["batch"]["resumed"] == 0
        assert _counters(again)["exec_shards_completed"] == 1
        assert again.table == first.table
        assert store.load_manifest() == manifest


class TestCli:
    def test_batch_run_and_status(self, tmp_path, monkeypatch, capsys):
        from repro import cli

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        status = cli.main(
            ["batch", "run", "E20", "--param", "samples=20",
             "--param", "seed=3", "--workers", "1"]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "E20" in out
        assert "(batch E20_" in out

        assert cli.main(["batch", "status"]) == 0
        out = capsys.readouterr().out
        assert "E20" in out
        # the health columns from the heartbeat/retry snapshot
        assert "retries" in out
        assert "beat age" in out

    def test_batch_status_marks_other_versions_stale(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro import cli

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        old = CheckpointStore("E9_0123456789ab_limb")
        old.write_manifest({"experiment": "E9"})
        manifest = old.load_manifest()
        manifest["checkpoint_version"] = CHECKPOINT_VERSION - 1
        with open(old.manifest_path(), "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        CheckpointStore("E20_0123456789ab").write_manifest(
            {"experiment": "E20"}
        )
        assert cli.main(["batch", "status"]) == 0
        out = capsys.readouterr().out
        assert "E9_0123456789ab_limb (stale)" in out
        assert "E20_0123456789ab (stale)" not in out
        assert "can be deleted" in out

    def test_shard_size_option_is_gone(self, capsys):
        from repro import cli

        with pytest.raises(SystemExit) as excinfo:
            cli.main(["batch", "run", "E9", "--shard-size", "64"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --shard-size 64" in err

    def test_batch_run_without_ids_is_usage_error(self, capsys):
        from repro import cli

        assert cli.main(["batch", "run"]) == 2
        assert "nothing to run" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args,message",
        [
            (
                [experiment_id],
                f"no batch plan for {experiment_id} (batch plans: E14, E20, "
                f"E9); run `repro-eba run {experiment_id}` instead",
            )
            for experiment_id in ("E7", "E4", "E5", "E21")
        ]
        + [
            (["E99"], "unknown experiment 'E99'; try `repro-eba list`"),
            (["--param", "n=x"], "--param 'n=x' has a non-integer value 'x'"),
            (["--param", "n"], "--param 'n' must look like key=value"),
        ],
    )
    def test_batch_run_bad_input_fails_closed(self, args, message, capsys):
        """Checked before anything runs: E9 comes first and never starts."""
        from repro import cli

        assert cli.main(["batch", "run", "E9", *args]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"repro-eba: {message}\n"

    def test_batch_help_lists_exactly_the_wired_plans(self, capsys):
        from repro import cli
        from repro.exec.plan import EXEC_PLANS

        with pytest.raises(SystemExit) as excinfo:
            cli.main(["batch", "--help"])
        assert excinfo.value.code == 0
        help_text = " ".join(capsys.readouterr().out.split())
        expected = ", ".join(sorted(EXEC_PLANS))
        assert f"experiment ids with batch plans ({expected})" in help_text

    def test_batch_top_once_renders_worker_rows(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro import cli

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert (
            cli.main(
                ["batch", "run", "E20", "--param", "samples=20",
                 "--param", "seed=3", "--workers", "2"]
            )
            == 0
        )
        capsys.readouterr()
        assert cli.main(["batch", "top", "--once"]) == 0
        out = capsys.readouterr().out
        assert "experiment E20" in out
        assert "state finished (ok" in out
        assert "worker" in out and "rss" in out and "p95" in out
        # at least one worker row with a latency quantile
        assert "ms" in out

    def test_batch_top_unknown_batch_is_usage_error(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro import cli

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert cli.main(["batch", "top", "NOPE", "--once"]) == 2
        assert "no checkpointed batch" in capsys.readouterr().err

    def test_metrics_journal_emits_prometheus_text(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro import cli

        root = str(tmp_path / "exec")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        result = run_batch(_toy_plan(count=3), workers=1, checkpoint_root=root)
        capsys.readouterr()
        journal = result.data["batch"]["journal"]
        assert cli.main(["metrics", "--journal", journal]) == 0
        out = capsys.readouterr().out
        assert "repro_exec_shards_completed_total 3" in out
        assert "repro_exec_shard_seconds_bucket" in out
        assert 'le="+Inf"' in out

    def test_interrupt_exits_130_and_flushes(self, monkeypatch, capsys):
        from repro import cli

        def boom(argv=None):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_dispatch", boom)
        assert cli.main(["stats"]) == 130
        err = capsys.readouterr().err
        assert "interrupted (SIGINT)" in err

    def test_interrupt_writes_trace_file_when_asked(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro import cli, trace

        out_path = str(tmp_path / "interrupt_trace.jsonl")
        monkeypatch.setenv("REPRO_INTERRUPT_TRACE", out_path)

        def boom(argv=None):
            with trace.span("doomed.work"):
                pass
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_dispatch", boom)
        assert cli.main(["stats"]) == 130
        err = capsys.readouterr().err
        assert "interrupted (SIGINT)" in err
        assert os.path.exists(out_path)
