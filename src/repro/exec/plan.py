"""Batch plans: stage DAGs, the batch runner and the plan registry.

A :class:`BatchPlan` is a linear DAG of :class:`Stage` objects — build the
system, evaluate the formula set (one or more fan-out stages), assemble the
verdict tables.  Each stage

1. optionally runs a ``prepare`` hook in the supervisor (e.g. load the
   enumerated system into the worker context so forked workers inherit it
   copy-on-write);
2. produces a deterministic shard list via ``make_shards``;
3. has its shards executed by :class:`~repro.exec.pool.ShardPool` (with
   checkpointing, retry and fault tolerance), already-checkpointed shards
   being skipped on ``--resume``;
4. folds the payloads into the shared batch context via ``reduce``, where
   the next stage's ``make_shards`` can see them.

``finalize`` turns the accumulated context into an
:class:`~repro.experiments.framework.ExperimentResult` — for the wired
experiments (E9, E14, E20) through the *same* assembly helpers the
monolithic path uses, which is what makes the sharded verdicts
byte-identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from .. import obs, trace
from ..errors import ConfigurationError
from .checkpoint import CheckpointStore
from .shard import Shard, params_digest

#: Registered plan factories, keyed by experiment id.
EXEC_PLANS: Dict[str, Callable[..., "BatchPlan"]] = {}


def register_plan(
    experiment_id: str,
) -> Callable[[Callable[..., "BatchPlan"]], Callable[..., "BatchPlan"]]:
    """Decorator registering a plan factory for an experiment id."""

    def decorate(factory: Callable[..., "BatchPlan"]):
        EXEC_PLANS[experiment_id] = factory
        return factory

    return decorate


def wired_plans() -> List[str]:
    """The experiment ids that have a batch plan, sorted."""
    from . import tasks  # noqa: F401  (populates EXEC_PLANS on first use)

    return sorted(EXEC_PLANS)


def plan_for(experiment_id: str, **params: Any) -> "BatchPlan":
    """The batch plan for an experiment; unknown ids raise with the known
    set listed (mirroring the experiment registry's behaviour)."""
    known = wired_plans()
    if experiment_id not in known:
        raise ConfigurationError(
            f"no batch plan for experiment {experiment_id!r}; "
            f"sharded execution is wired for: {', '.join(known)}"
        )
    return EXEC_PLANS[experiment_id](**params)


@dataclass
class Stage:
    """One stage of a batch plan."""

    name: str
    make_shards: Callable[[Dict[str, Any]], List[Shard]]
    reduce: Callable[[Dict[str, Dict[str, Any]], Dict[str, Any]], None]
    prepare: Optional[Callable[[Dict[str, Any]], None]] = None


@dataclass
class BatchPlan:
    """A complete sharded computation for one experiment."""

    experiment_id: str
    params: Dict[str, Any]
    stages: List[Stage]
    finalize: Callable[[Dict[str, Any]], Any]
    context: Dict[str, Any] = field(default_factory=dict)
    #: Sharding scheme the plan's stages use (``"run"`` for run-range /
    #: per-cell fan-out, ``"limb"`` for limb-block shards over the
    #: chunked kernel's group tables).  Part of the batch key: a
    #: checkpoint directory written under one scheme is never resumed by
    #: a plan sharding under another.
    partition: str = "run"

    def params_digest(self) -> str:
        return params_digest(self.params)

    def batch_key(self) -> str:
        """Checkpoint-directory key: experiment + inputs + partition
        scheme.

        The partition scheme is part of the key because run-range and
        limb-block shards decompose the same truth table along different
        axes, so one scheme's shard payloads are never *resume* state for
        the other.
        """
        return (
            f"{self.experiment_id}_{self.params_digest()[:12]}"
            f"_{self.partition}"
        )

    def manifest_meta(self) -> Dict[str, Any]:
        from .. import __version__

        return {
            "experiment": self.experiment_id,
            "params_digest": self.params_digest(),
            "partition": self.partition,
            "library_version": __version__,
        }


def run_batch(
    plan: BatchPlan,
    *,
    workers: Optional[int] = None,
    resume: bool = False,
    shard_size: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: Optional[int] = None,
    backoff: Optional[float] = None,
    checkpoint_root: Optional[str] = None,
):
    """Execute *plan* to completion and return its ``ExperimentResult``.

    With ``resume=True``, shards whose checkpoints validate (same inputs,
    same checkpoint/library version) are served from disk and only the
    missing shards execute; otherwise the batch's checkpoint directory is
    cleared and every shard runs.  Completed shards are checkpointed as
    they finish, so the batch can be killed at any instant and resumed.
    """
    from ..experiments.framework import attach_instrumentation, attach_trace
    from ..obs.journal import TelemetryJournal
    from ..obs.resource import ResourceSampler
    from .pool import ShardPool

    store = CheckpointStore(plan.batch_key(), root=checkpoint_root)
    meta = plan.manifest_meta()
    if not (resume and store.manifest_matches(meta)):
        store.clear()
        store.write_manifest(meta)
        resume = False
    pool = ShardPool(
        workers, timeout=timeout, retries=retries, backoff=backoff
    )
    # Run-scoped telemetry journal next to the checkpoints.  Best-effort
    # throughout: the journal observes the run, it never fails it.
    try:
        journal: Optional[TelemetryJournal] = TelemetryJournal(
            store.journal_path(),
            batch=plan.batch_key(),
            experiment=plan.experiment_id,
        )
    except OSError:
        journal = None

    def emit(event: str, fields: Dict[str, Any]) -> None:
        if journal is not None:
            journal.emit(event, **fields)

    pool.on_event = emit
    sampler = ResourceSampler(
        on_sample=lambda sample: emit(
            "resource_sample",
            {
                "scope": "supervisor",
                "worker": 0,
                "rss_bytes": sample.get("rss_bytes", 0.0),
                "cpu_seconds": sample.get("cpu_seconds", 0.0),
                "majflt": sample.get("majflt", 0.0),
                "minflt": sample.get("minflt", 0.0),
            },
        )
    )
    context = plan.context
    context.update(
        {
            "experiment": plan.experiment_id,
            "params": dict(plan.params),
            "shard_size": shard_size,
        }
    )
    before = obs.snapshot()
    mark = trace.watermark()
    started = time.perf_counter()
    total_shards = 0
    resumed_shards = 0

    def snapshot_health() -> None:
        # Durable, best-effort: `batch status` and `batch top` read this
        # to show retry counts and worker heartbeat/RSS for running or
        # interrupted batches; a write failure must never fail the batch.
        try:
            snapshot = pool.health_snapshot()
            store.write_health(snapshot)
            emit("health", {"snapshot": snapshot})
        except Exception:
            pass

    ok = False
    try:
        sampler.start()
        with trace.span(
            f"experiment.{plan.experiment_id}",
            experiment=plan.experiment_id,
            batch=plan.batch_key(),
        ):
            for stage in plan.stages:
                stage_started = time.perf_counter()
                if stage.prepare is not None:
                    with trace.span("exec.prepare", stage=stage.name):
                        stage.prepare(context)
                shards = stage.make_shards(context)
                emit(
                    "stage_start",
                    {"stage": stage.name, "shards": len(shards)},
                )
                total_shards += len(shards)
                results: Dict[str, Dict[str, Any]] = {}
                to_run: List[Shard] = []
                for shard in shards:
                    payload = (
                        store.load(shard.shard_id, shard.params_digest())
                        if resume
                        else None
                    )
                    if payload is not None:
                        results[shard.shard_id] = payload
                        resumed_shards += 1
                        obs.count("exec_shards_resumed")
                        emit("shard_resumed", {"shard": shard.shard_id})
                    else:
                        to_run.append(shard)
                if to_run:
                    with trace.span(
                        "exec.stage", stage=stage.name, shards=len(to_run)
                    ):
                        results.update(
                            pool.run(
                                to_run,
                                on_complete=lambda s, p: store.store(
                                    s.shard_id, s.params_digest(), p
                                ),
                            )
                        )
                    snapshot_health()
                stage.reduce(results, context)
                emit(
                    "stage_done",
                    {
                        "stage": stage.name,
                        "seconds": round(
                            time.perf_counter() - stage_started, 6
                        ),
                    },
                )
            result = plan.finalize(context)
        ok = True
    finally:
        snapshot_health()
        pool.close()
        sampler.stop()
        if journal is not None:
            delta = obs.delta_since(before)
            journal.emit("counter_delta", scope="supervisor", delta=delta)
            for name, stats in _span_summaries(mark).items():
                journal.emit(
                    "span_summary",
                    name=name,
                    spans=stats["spans"],
                    seconds=stats["seconds"],
                )
            journal.emit(
                "batch_done",
                seconds=round(time.perf_counter() - started, 6),
                shards=total_shards,
                ok=ok,
            )
            journal.close()
    attach_instrumentation(result, before)
    attach_trace(result, mark)
    result.data["batch"] = {
        "key": plan.batch_key(),
        "stages": [stage.name for stage in plan.stages],
        "shards": total_shards,
        "resumed": resumed_shards,
        "workers": pool.workers,
        "wall_seconds": time.perf_counter() - started,
        "retries": sum(pool.shard_retries.values()),
        "retry_causes": dict(pool.retry_causes),
        "journal": store.journal_path() if journal is not None else None,
    }
    return result


def _span_summaries(mark: int) -> Dict[str, Dict[str, Any]]:
    """Per-name span count/total-seconds since trace watermark *mark*."""
    summaries: Dict[str, Dict[str, Any]] = {}
    for span_record in trace.collect(mark):
        entry = summaries.setdefault(
            span_record.name, {"spans": 0, "seconds": 0.0}
        )
        entry["spans"] += 1
        entry["seconds"] = round(
            entry["seconds"] + (span_record.duration or 0.0), 6
        )
    return summaries
