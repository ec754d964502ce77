"""Micro-benchmarks for the sharded execution engine.

Two costs matter for the engine itself (the shard *payloads* are someone
else's wall time): how fast the supervised pool turns around small shards
(fork, dispatch, heartbeat, checksum, collect), and how fast a fully
checkpointed batch resumes (manifest + per-shard validation with zero
shards re-executed).  Both feed the bench-regression job, so a scheduler
or checkpoint-format slowdown fails CI via ``repro-eba bench-compare``.
"""

from __future__ import annotations

from repro.exec import Shard, ShardPool, register_task, run_batch
from repro.exec.plan import BatchPlan
from repro.experiments.framework import ExperimentResult


@register_task("bench.sum")
def _bench_sum(params):
    return {"total": sum(range(params["start"], params["stop"]))}


def _shards(count, width=1000):
    return [
        Shard(
            shard_id=f"bench/{index}",
            task="bench.sum",
            params={"start": index * width, "stop": (index + 1) * width},
        )
        for index in range(count)
    ]


def _plan(count):
    def finalize(results):
        return ExperimentResult(
            experiment_id="EX",
            title="exec bench",
            paper_claim="(engine benchmark)",
            ok=True,
            table="bench",
            data={
                "totals": [
                    results[f"bench/{index}"]["total"]
                    for index in range(count)
                ]
            },
        )

    return BatchPlan(
        experiment_id="EX",
        params={"count": count},
        shards=_shards(count),
        finalize=finalize,
    )


def test_exec_pool_shard_throughput(benchmark):
    """16 trivial shards through a 2-worker pool: pure engine overhead."""
    shards = _shards(16)

    def run():
        with ShardPool(2, backoff=0.01) as pool:
            results = pool.run(shards)
        assert len(results) == 16
        return results

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_exec_resume_overhead(benchmark, tmp_path):
    """Resuming a fully checkpointed 32-shard batch re-executes nothing;
    this times the manifest + per-shard validation path alone."""
    root = str(tmp_path / "exec")
    run_batch(_plan(32), workers=2, checkpoint_root=root)

    def resume():
        result = run_batch(_plan(32), workers=1, resume=True, checkpoint_root=root)
        assert result.data["batch"]["resumed"] == 32
        return result

    benchmark.pedantic(resume, rounds=3, iterations=1)
