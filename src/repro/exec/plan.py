"""Batch plans: a plan's shards, the batch runner and the plan registry.

A :class:`BatchPlan` is a map: a deterministic list of independent
shards, executed by :class:`~repro.exec.pool.ShardPool` (with
checkpointing, retry and fault tolerance; already-checkpointed shards
are skipped on ``--resume``), and a ``finalize`` that turns their
payloads, keyed by shard id, into an
:class:`~repro.experiments.framework.ExperimentResult` — for the wired
experiments (E9, E14, E20) through the *same* assembly helpers the
monolithic path uses, which is what makes the sharded verdicts
byte-identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
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


#: The journal's stage name for a batch's one round of shards.
STAGE = "evaluate"


@dataclass
class BatchPlan:
    """A sharded computation for one experiment: independent *shards*
    and a *finalize* that renders their payloads, keyed by shard id."""

    experiment_id: str
    params: Dict[str, Any]
    shards: List[Shard]
    finalize: Callable[[Dict[str, Dict[str, Any]]], Any]

    def params_digest(self) -> str:
        return params_digest(self.params)

    def batch_key(self) -> str:
        """Checkpoint-directory key: experiment + inputs."""
        return f"{self.experiment_id}_{self.params_digest()[:12]}"

    def manifest_meta(self) -> Dict[str, Any]:
        from .. import __version__

        return {
            "experiment": self.experiment_id,
            "params_digest": self.params_digest(),
            "library_version": __version__,
        }


def run_batch(
    plan: BatchPlan,
    *,
    workers: Optional[int] = None,
    resume: bool = False,
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
    before = obs.snapshot()
    mark = trace.watermark()
    started = time.perf_counter()
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
            emit(
                "stage_start", {"stage": STAGE, "shards": len(plan.shards)}
            )
            results: Dict[str, Dict[str, Any]] = {}
            to_run: List[Shard] = []
            for shard in plan.shards:
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
                    "exec.stage", stage=STAGE, shards=len(to_run)
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
            emit(
                "stage_done",
                {
                    "stage": STAGE,
                    "seconds": round(time.perf_counter() - started, 6),
                },
            )
            result = plan.finalize(results)
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
                shards=len(plan.shards),
                ok=ok,
            )
            journal.close()
    attach_instrumentation(result, before)
    attach_trace(result, mark)
    result.data["batch"] = {
        "key": plan.batch_key(),
        "shards": len(plan.shards),
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
