"""``repro.exec`` — sharded, checkpointed, fault-tolerant batch execution.

The monolithic path runs an experiment as one in-process call; this package
runs the same computation as a **batch**: a map over the experiment's
cells as deterministic shards, executed on a supervised process pool
with per-shard timeouts, bounded retry with exponential backoff and
heartbeat-based dead-worker detection.  Completed shards are checkpointed
to versioned files under ``.repro_cache/exec/`` so an interrupted batch
resumes from the last durable shard (``repro-eba batch run E9 --resume``).

Layout:

* :mod:`repro.exec.shard` — shard descriptors and the task registry
  workers execute from;
* :mod:`repro.exec.pool` — the supervised process pool;
* :mod:`repro.exec.checkpoint` — durable per-shard payload storage;
* :mod:`repro.exec.faults` — the deterministic fault-injection harness
  (``REPRO_EXEC_FAULTS``) the tests use to prove crash/retry/resume;
* :mod:`repro.exec.plan` — batch plans, ``run_batch`` and the
  per-experiment plan registry;
* :mod:`repro.exec.tasks` — the shard task implementations (E9's cell,
  E14/E20 sweep cells).

The sharded path carries a **verdict-parity guarantee**: for a given
parameter cell it produces an :class:`~repro.experiments.framework.
ExperimentResult` whose verdict table, ``ok`` flag and measurement data are
identical to the monolithic path's (asserted for E9/E14/E20 in
``tests/test_exec.py``).
"""

from __future__ import annotations

from .checkpoint import CheckpointStore, exec_root, list_batches
from .faults import FAULTS_ENV, FaultAction, parse_faults
from .plan import EXEC_PLANS, BatchPlan, plan_for, run_batch
from .pool import ShardPool
from .shard import Shard, get_task, register_task

__all__ = [
    "BatchPlan",
    "CheckpointStore",
    "EXEC_PLANS",
    "FAULTS_ENV",
    "FaultAction",
    "Shard",
    "ShardPool",
    "exec_root",
    "get_task",
    "list_batches",
    "parse_faults",
    "plan_for",
    "register_task",
    "run_batch",
]
