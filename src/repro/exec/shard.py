"""Shard descriptors and the worker task registry.

A :class:`Shard` is the unit of scheduling: a stable id, the name of a
registered task, and a JSON-serializable parameter dict.  Shard ids and
parameters are derived purely from the experiment's parameters, so the
same batch always produces the same shard set — which is what makes
checkpoints addressable and resume sound.

Tasks are plain functions ``params -> payload`` registered by name with
:func:`register_task`; a task loads whatever it needs itself (a cell
through the provider) rather than reading state the supervisor prepared.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict

from ..errors import ConfigurationError

TaskFn = Callable[[Dict[str, Any]], Dict[str, Any]]

_TASKS: Dict[str, TaskFn] = {}


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


def params_digest(params: Dict[str, Any]) -> str:
    """Stable SHA-256 of a JSON-serializable parameter dict."""
    blob = json.dumps(params, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def payload_digest(payload: Dict[str, Any]) -> str:
    """Canonical SHA-256 of a task payload (checksum for transport and
    checkpoint integrity)."""
    return params_digest(payload)


@dataclass(frozen=True)
class Shard:
    """One schedulable unit of a batch."""

    shard_id: str
    task: str
    params: Dict[str, Any] = field(default_factory=dict)

    def params_digest(self) -> str:
        """Digest binding a checkpoint to this shard's exact inputs."""
        return params_digest({"task": self.task, "params": self.params})
