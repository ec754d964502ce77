"""Durable shard checkpoints under ``.repro_cache/exec/``.

Layout::

    <cache_root>/exec/<batch_key>/manifest.json
    <cache_root>/exec/<batch_key>/health.json
    <cache_root>/exec/<batch_key>/telemetry.jsonl
    <cache_root>/exec/<batch_key>/shards/<shard_id>.json

``telemetry.jsonl`` is the run-scoped event journal
(:mod:`repro.obs.journal`) the batch runner writes next to the
checkpoints; like ``health.json`` it is run metadata, not a checkpoint —
:meth:`CheckpointStore.clear` removes both so a fresh run starts a fresh
record.

The manifest records the batch's identity (experiment, parameter digest)
plus the checkpoint spec version and library version; ``--resume`` only
reuses a directory whose manifest is exactly the batch being launched.
Each shard file is a versioned record carrying the shard's
parameter digest and a canonical SHA-256 of its payload; a load validates
all of them and returns ``None`` on any mismatch or corruption, so a stale
or truncated checkpoint silently degrades to a cache miss and the shard is
re-executed.  Writes are atomic (``mkstemp`` + ``os.replace``), which is
what makes "resume from the last durable shard" safe against SIGKILL at
any instant.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Dict, List, Optional

from .shard import payload_digest

#: Bump when the checkpoint record layout — or the meaning of the shard
#: payloads — changes; both the manifest check and the per-record check
#: reject other versions wholesale, so an old directory is cleared, never
#: resumed, and ``batch status`` marks one of another version stale.
CHECKPOINT_VERSION = 3

#: Environment variable relocating the cache root (shared with the system
#: disk cache in :mod:`repro.model.provider`).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

DEFAULT_CACHE_DIR = ".repro_cache"


def exec_root(root: Optional[str] = None) -> str:
    """The directory batch checkpoints live under."""
    if root is not None:
        return root
    return os.path.join(
        os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR), "exec"
    )


def _sanitize(shard_id: str) -> str:
    return "".join(
        ch if ch.isalnum() or ch in "._-" else "__" for ch in shard_id
    )


def _atomic_write(path: str, blob: bytes) -> None:
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


class CheckpointStore:
    """Checkpoint directory for one batch."""

    def __init__(self, batch_key: str, root: Optional[str] = None) -> None:
        self.batch_key = batch_key
        self.directory = os.path.join(exec_root(root), _sanitize(batch_key))
        self.shard_dir = os.path.join(self.directory, "shards")

    # -- manifest ---------------------------------------------------------

    def manifest_path(self) -> str:
        return os.path.join(self.directory, "manifest.json")

    def write_manifest(self, meta: Dict[str, Any]) -> None:
        record = dict(meta)
        record["checkpoint_version"] = CHECKPOINT_VERSION
        _atomic_write(
            self.manifest_path(),
            json.dumps(record, sort_keys=True, indent=2).encode("utf-8"),
        )

    def load_manifest(self) -> Optional[Dict[str, Any]]:
        try:
            with open(self.manifest_path(), "r", encoding="utf-8") as handle:
                record = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(record, dict):
            return None
        return record

    def manifest_matches(self, meta: Dict[str, Any]) -> bool:
        """Whether the stored manifest is exactly *meta* at the current
        checkpoint version (a key of another layout fails the match)."""
        return self.load_manifest() == {
            **meta,
            "checkpoint_version": CHECKPOINT_VERSION,
        }

    # -- health snapshots -------------------------------------------------

    def health_path(self) -> str:
        return os.path.join(self.directory, "health.json")

    def write_health(self, snapshot: Dict[str, Any]) -> None:
        """Persist a pool health snapshot (see
        :meth:`repro.exec.pool.ShardPool.health_snapshot`) for
        ``batch status``."""
        _atomic_write(
            self.health_path(),
            json.dumps(snapshot, sort_keys=True, indent=2).encode("utf-8"),
        )

    def load_health(self) -> Optional[Dict[str, Any]]:
        try:
            with open(self.health_path(), "r", encoding="utf-8") as handle:
                record = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(record, dict):
            return None
        return record

    # -- telemetry journal ------------------------------------------------

    def journal_path(self) -> str:
        """Where the run's ``telemetry.jsonl`` event journal lives."""
        return os.path.join(self.directory, "telemetry.jsonl")

    # -- shard records ----------------------------------------------------

    def shard_path(self, shard_id: str) -> str:
        return os.path.join(self.shard_dir, _sanitize(shard_id) + ".json")

    def store(
        self, shard_id: str, params_digest: str, payload: Dict[str, Any]
    ) -> None:
        record = {
            "checkpoint_version": CHECKPOINT_VERSION,
            "shard_id": shard_id,
            "params_digest": params_digest,
            "payload_sha256": payload_digest(payload),
            "payload": payload,
        }
        _atomic_write(
            self.shard_path(shard_id),
            json.dumps(record, sort_keys=True).encode("utf-8"),
        )

    def load(
        self, shard_id: str, params_digest: str
    ) -> Optional[Dict[str, Any]]:
        """The checkpointed payload, or ``None`` unless every validation
        (version, shard identity, input digest, payload checksum) passes."""
        try:
            with open(self.shard_path(shard_id), "r", encoding="utf-8") as handle:
                record = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(record, dict):
            return None
        if record.get("checkpoint_version") != CHECKPOINT_VERSION:
            return None
        if record.get("shard_id") != shard_id:
            return None
        if record.get("params_digest") != params_digest:
            return None
        payload = record.get("payload")
        if not isinstance(payload, dict):
            return None
        if record.get("payload_sha256") != payload_digest(payload):
            return None
        return payload

    def completed_ids(self) -> List[str]:
        """Sanitized shard ids with a checkpoint file on disk."""
        try:
            names = os.listdir(self.shard_dir)
        except OSError:
            return []
        return sorted(
            name[: -len(".json")] for name in names if name.endswith(".json")
        )

    def clear(self) -> None:
        """Delete every checkpoint of this batch (fresh, non-resumed run)."""
        for directory in (self.shard_dir, self.directory):
            try:
                names = os.listdir(directory)
            except OSError:
                continue
            for name in names:
                path = os.path.join(directory, name)
                if os.path.isfile(path):
                    try:
                        os.unlink(path)
                    except OSError:
                        pass


def list_batches(root: Optional[str] = None) -> List[Dict[str, Any]]:
    """Inventory of checkpointed batches (for ``repro-eba batch status``)."""
    base = exec_root(root)
    entries: List[Dict[str, Any]] = []
    try:
        names = sorted(os.listdir(base))
    except OSError:
        return entries
    for name in names:
        store = CheckpointStore(name, root=root)
        if not os.path.isdir(store.directory):
            continue
        manifest = store.load_manifest() or {}
        # Another version's directory is never resumed; it can be deleted.
        stale = manifest.get("checkpoint_version") != CHECKPOINT_VERSION
        shard_ids = store.completed_ids()
        size = 0
        for shard_id in shard_ids:
            try:
                size += os.path.getsize(
                    os.path.join(store.shard_dir, shard_id + ".json")
                )
            except OSError:
                pass
        health = store.load_health() or {}
        retries = health.get("shard_retries") or {}
        inflight = health.get("inflight") or []
        beat_ages = [
            entry["heartbeat_age"]
            for entry in inflight
            if isinstance(entry, dict)
            and entry.get("heartbeat_age") is not None
        ]
        journal_path = store.journal_path()
        try:
            journal_bytes = os.path.getsize(journal_path)
        except OSError:
            journal_bytes = None
        entries.append(
            {
                "batch": name,
                "experiment": manifest.get("experiment", "?"),
                "shards": len(shard_ids),
                "bytes": size,
                "retries": sum(retries.values()),
                "retry_causes": health.get("retry_causes") or {},
                "inflight": len(inflight),
                "max_heartbeat_age": max(beat_ages) if beat_ages else None,
                "journal": journal_path if journal_bytes is not None else None,
                "journal_bytes": journal_bytes,
                "manifest": manifest,
                "health": health,
                "stale": stale,
            }
        )
    return entries
