"""Shard descriptors, deterministic chunking and the worker task registry.

A :class:`Shard` is the unit of scheduling: a stable id, the name of a
registered task, and a JSON-serializable parameter dict.  Shard ids and
parameters are derived purely from the experiment's parameters and the
system's deterministic enumeration order, so the same batch always produces
the same shard set — which is what makes checkpoints addressable and
resume sound.

Tasks are plain functions ``params -> payload`` registered by name with
:func:`register_task`.  Workers are forked from the supervisor *after* the
stage's ``prepare`` hook has loaded any heavy shared state (typically the
enumerated :class:`~repro.model.system.System`) into the module-level
worker context, so children inherit it copy-on-write instead of
re-deserializing it per process.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

from ..errors import ConfigurationError

TaskFn = Callable[[Dict[str, Any]], Dict[str, Any]]

_TASKS: Dict[str, TaskFn] = {}

#: Shared state visible to tasks (set by stage ``prepare`` hooks before the
#: pool forks; inherited copy-on-write by workers).
_WORKER_CONTEXT: Dict[str, Any] = {}


def register_task(name: str) -> Callable[[TaskFn], TaskFn]:
    """Decorator registering a task implementation under *name*."""

    def decorate(fn: TaskFn) -> TaskFn:
        _TASKS[name] = fn
        return fn

    return decorate


def get_task(name: str) -> TaskFn:
    """Look up a registered task; unknown names raise ``ConfigurationError``."""
    try:
        return _TASKS[name]
    except KeyError:
        known = ", ".join(sorted(_TASKS))
        raise ConfigurationError(
            f"unknown shard task {name!r}; registered tasks: {known}"
        ) from None


def run_task(name: str, params: Dict[str, Any]) -> Dict[str, Any]:
    """Execute a registered task (in-worker entry point)."""
    return get_task(name)(params)


#: Bumped on every context change; the pool compares it against the epoch
#: its workers were forked at, so stale workers are recycled instead of
#: serving shards against an outdated context.
_CONTEXT_EPOCH = 0


def set_worker_context(**values: Any) -> None:
    """Publish shared state for tasks (call before the pool forks)."""
    global _CONTEXT_EPOCH
    _WORKER_CONTEXT.update(values)
    _CONTEXT_EPOCH += 1


def worker_context(key: str) -> Any:
    """Read shared state published by :func:`set_worker_context`."""
    if key not in _WORKER_CONTEXT:
        raise ConfigurationError(
            f"worker context has no {key!r}; the stage's prepare hook must "
            "publish it via set_worker_context() before shards run"
        )
    return _WORKER_CONTEXT[key]


def clear_worker_context() -> None:
    """Drop all shared state (test isolation)."""
    global _CONTEXT_EPOCH
    _WORKER_CONTEXT.clear()
    _CONTEXT_EPOCH += 1


def context_epoch() -> int:
    """The current worker-context generation."""
    return _CONTEXT_EPOCH


def params_digest(params: Dict[str, Any]) -> str:
    """Stable SHA-256 of a JSON-serializable parameter dict."""
    blob = json.dumps(params, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def payload_digest(payload: Dict[str, Any]) -> str:
    """Canonical SHA-256 of a task payload (checksum for transport and
    checkpoint integrity)."""
    return params_digest(payload)


def chunk_ranges(total: int, size: int) -> List[Tuple[int, int]]:
    """Split ``range(total)`` into deterministic ``[start, stop)`` chunks.

    The last chunk absorbs the remainder; ``total == 0`` yields no chunks.
    """
    if size <= 0:
        raise ConfigurationError(f"chunk size must be >= 1, got {size}")
    return [(start, min(start + size, total)) for start in range(0, total, size)]


@dataclass(frozen=True)
class Shard:
    """One schedulable unit of a batch stage."""

    shard_id: str
    task: str
    params: Dict[str, Any] = field(default_factory=dict)
    stage: str = ""

    def params_digest(self) -> str:
        """Digest binding a checkpoint to this shard's exact inputs."""
        return params_digest({"task": self.task, "params": self.params})
