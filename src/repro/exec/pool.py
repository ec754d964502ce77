"""Supervised process pool executing shards with retry and health checks.

The supervisor forks one process per worker slot and assigns each worker
exactly one shard at a time over a dedicated queue — the supervisor
therefore always knows which shard a dead or stuck worker was holding.
Workers persist across :meth:`ShardPool.run` calls and are torn down
when the batch ends.
Health is tracked three ways:

* **liveness** — ``Process.is_alive()``; a worker that died mid-shard
  (e.g. SIGKILL) is detected, its shard is rescheduled, and a replacement
  worker is forked;
* **heartbeats** — each worker runs a daemon thread posting a beat every
  ``heartbeat`` seconds; a worker that is alive but silent past the stale
  threshold (frozen/stopped) is killed and replaced;
* **per-shard timeout** — a shard running past ``timeout`` seconds is
  presumed hung, its worker is killed, and the shard is retried.

Failed attempts (death, timeout, checksum mismatch, task exception) are
retried up to ``retries`` times with exponential backoff
(``backoff * 2**attempt``, non-blocking — other shards keep dispatching
while a retry waits).  Exhausting retries raises
:class:`~repro.errors.ShardExecutionError`.  Every retry is counted
twice in :mod:`repro.obs`: once under the aggregate
``exec_shard_retries`` and once under a per-cause counter
(``exec_shard_retries_<cause>`` for causes ``task-error``, ``checksum``,
``worker-death``, ``timeout``, ``stale-heartbeat``); the pool also keeps
per-shard retry counts and exposes a :meth:`ShardPool.health_snapshot`
(in-flight shard ages, worker heartbeat ages, retry tallies) that the
batch runner persists for ``repro-eba batch status``.

Every completed shard ships its payload (canonical JSON bytes plus a
SHA-256 the supervisor re-verifies), its :mod:`repro.obs` counter delta and
its :mod:`repro.trace` spans; the supervisor folds deltas into the parent
instrumentation — histograms merging per-bucket alongside the counters —
and grafts spans under the stage span, so a sharded batch reports the same
counters and a coherent timeline as an in-process run.  The supervisor
additionally records every shard's wall time in the
``exec_shard_seconds`` histogram.

Heartbeats double as the resource-telemetry channel: roughly once a
second the beat thread attaches a :func:`repro.obs.resource.read_sample`
(RSS, CPU seconds, fault counters) to the beat, giving the supervisor a
per-worker resource series with no extra thread or pipe.  The latest
sample per worker lands in :meth:`ShardPool.health_snapshot` and — via
the pool's :attr:`~ShardPool.on_event` hook — in the batch run's
telemetry journal, alongside ``worker_spawned`` / ``worker_retired`` and
shard lifecycle events, all tagged with worker/shard provenance.

Results and heartbeats travel over a **per-worker pipe**, not a shared
queue.  A shared ``multiprocessing.Queue`` serializes writers through one
cross-process lock held by each sender's feeder thread; SIGKILLing a
worker (the ``retire`` path for checksum mismatches, timeouts and stale
heartbeats) could land mid-write and strand that lock forever, freezing
every *other* worker's results and heartbeats and cascading into
spurious stale-heartbeat retries until the shard's attempts were
exhausted.  With one pipe per worker a kill can only tear the killed
worker's own channel — the supervisor sees EOF, retires it and
reschedules its shard, and the rest of the pool is untouched.

Pool sizing and limits resolve from ``REPRO_EXEC_WORKERS``,
``REPRO_EXEC_TIMEOUT``, ``REPRO_EXEC_RETRIES`` and ``REPRO_EXEC_BACKOFF``
when not passed explicitly; malformed values raise
:class:`~repro.errors.ConfigurationError` naming the variable and value.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import signal
import threading
import time
from multiprocessing import connection as mp_connection
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from .. import obs, trace
from ..errors import ConfigurationError, ShardExecutionError
from ..obs.resource import read_sample
from . import faults as fault_mod
from .shard import Shard, run_task

WORKERS_ENV = "REPRO_EXEC_WORKERS"
TIMEOUT_ENV = "REPRO_EXEC_TIMEOUT"
RETRIES_ENV = "REPRO_EXEC_RETRIES"
BACKOFF_ENV = "REPRO_EXEC_BACKOFF"

DEFAULT_TIMEOUT = 600.0
DEFAULT_RETRIES = 2
DEFAULT_BACKOFF = 0.5
DEFAULT_HEARTBEAT = 0.5

#: A worker whose last heartbeat is older than this many heartbeat
#: intervals (and at least this many seconds) is presumed frozen.  Generous
#: on purpose: a GIL-bound compute burst must not read as death.
STALE_BEATS = 20
STALE_FLOOR_SECONDS = 10.0

#: Minimum seconds between resource samples shipped with heartbeats; a
#: 0.5 s beat does not need to read ``/proc`` every time.
SAMPLE_EVERY = 1.0


def _env_int(name: str, default: int, minimum: int = 1) -> int:
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"{name} must be an integer >= {minimum}, got {raw!r}"
        ) from None
    if value < minimum:
        raise ConfigurationError(
            f"{name} must be an integer >= {minimum}, got {raw!r}"
        )
    return value


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        value = float(raw)
    except ValueError:
        raise ConfigurationError(
            f"{name} must be a number > 0, got {raw!r}"
        ) from None
    if value <= 0:
        raise ConfigurationError(f"{name} must be a number > 0, got {raw!r}")
    return value


def resolve_workers(workers: Optional[int] = None) -> int:
    """Worker count: explicit argument, else ``REPRO_EXEC_WORKERS``, else
    ``min(4, cores)``."""
    if workers is None:
        workers = _env_int(WORKERS_ENV, min(4, os.cpu_count() or 1))
    if workers < 1:
        raise ConfigurationError(f"need workers >= 1, got {workers}")
    return workers


def resolve_timeout(timeout: Optional[float] = None) -> float:
    return timeout if timeout is not None else _env_float(TIMEOUT_ENV, DEFAULT_TIMEOUT)


def resolve_retries(retries: Optional[int] = None) -> int:
    return (
        retries
        if retries is not None
        else _env_int(RETRIES_ENV, DEFAULT_RETRIES, minimum=0)
    )


def resolve_backoff(backoff: Optional[float] = None) -> float:
    return backoff if backoff is not None else _env_float(BACKOFF_ENV, DEFAULT_BACKOFF)


def _worker_main(work_queue, conn, heartbeat: float) -> None:
    """Worker loop: execute assigned shards until told to stop.

    Results and heartbeats go out over *conn*, this worker's private pipe
    to the supervisor.  ``Connection.send`` writes from the calling thread
    under an in-process lock — there is no cross-process write lock to
    strand, so a worker SIGKILLed mid-send can only tear its own pipe
    (the supervisor reads it as EOF), never freeze its siblings.

    Each result carries canonical payload bytes, their SHA-256 (computed
    *before* any ``corrupt`` fault fires, so corruption is detectable), the
    worker's obs delta for the shard and its exported trace spans (starts
    relative to the shard span, for grafting).
    """
    pid = os.getpid()
    stop = threading.Event()
    send_lock = threading.Lock()

    def post(message) -> bool:
        try:
            with send_lock:
                conn.send(message)
            return True
        except Exception:
            return False

    def beat() -> None:
        # Beats carry a resource sample roughly once per SAMPLE_EVERY so
        # the supervisor gets a per-worker RSS/CPU series for free.  The
        # first beat goes out (with a sample) immediately, so even shards
        # faster than the interval leave a per-worker resource record.
        last_sampled = time.time()
        try:
            first = read_sample()
        except Exception:
            first = None
        if not post(("hb", pid, last_sampled, first)):
            return
        while not stop.wait(heartbeat):
            now = time.time()
            sample = None
            if now - last_sampled >= SAMPLE_EVERY:
                try:
                    sample = read_sample()
                except Exception:
                    sample = None
                last_sampled = now
            if not post(("hb", pid, now, sample)):
                return

    threading.Thread(target=beat, daemon=True).start()
    fault_plan = fault_mod.active_faults()
    while True:
        item = work_queue.get()
        if item is None:
            stop.set()
            return
        shard_id, task_name, params, attempt = item
        post(("started", pid, shard_id, attempt))
        try:
            action = fault_mod.fault_for(fault_plan, shard_id, attempt)
            if action is not None and action.mode == "kill":
                os.kill(pid, signal.SIGKILL)
            if action is not None and action.mode == "hang":
                time.sleep(fault_mod.HANG_SECONDS)
            obs_before = obs.snapshot()
            mark = trace.TRACER.watermark()
            started = time.perf_counter()
            with trace.TRACER.span(
                "exec.shard", shard=shard_id, task=task_name, attempt=attempt
            ) as shard_span:
                payload = run_task(task_name, params)
            elapsed = time.perf_counter() - started
            spans = trace.export_spans(trace.TRACER.collect(mark))
            base = shard_span.start if spans else 0.0
            for exported in spans:
                exported["start"] = float(exported["start"]) - base
            blob = json.dumps(payload, sort_keys=True).encode("utf-8")
            digest = hashlib.sha256(blob).hexdigest()
            if action is not None and action.mode == "corrupt":
                blob = b'{"corrupted": ' + blob + b"}"
            post(
                (
                    "done",
                    pid,
                    shard_id,
                    attempt,
                    blob,
                    digest,
                    obs.delta_since(obs_before),
                    spans,
                    elapsed,
                )
            )
        except KeyboardInterrupt:
            stop.set()
            return
        except BaseException as exc:
            post(
                ("error", pid, shard_id, attempt, f"{type(exc).__name__}: {exc}")
            )


class _Worker:
    """A forked worker process, its assignment queue and result pipe."""

    def __init__(self, ctx, heartbeat: float) -> None:
        self.queue = ctx.Queue()
        self.conn, child_conn = ctx.Pipe(duplex=False)
        self.process = ctx.Process(
            target=_worker_main,
            args=(self.queue, child_conn, heartbeat),
            daemon=True,
        )
        self.process.start()
        # Drop the parent's copy of the send end so a worker death reads
        # as EOF on ``conn`` instead of a silent hang.
        child_conn.close()
        self.pid: int = self.process.pid or 0
        self.last_beat = time.time()

    def alive(self) -> bool:
        return self.process.is_alive()

    def kill(self) -> None:
        if self.process.is_alive():
            self.process.kill()
        self.process.join(timeout=5.0)
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - double close
            pass


class ShardPool:
    """Run lists of shards to completion under supervision.

    Workers are forked lazily on the first :meth:`run` and **persist
    across calls** and are torn down by :meth:`close` — the batch
    runner closes the pool when the batch ends.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        timeout: Optional[float] = None,
        retries: Optional[int] = None,
        backoff: Optional[float] = None,
        heartbeat: float = DEFAULT_HEARTBEAT,
    ) -> None:
        self.workers = resolve_workers(workers)
        self.timeout = resolve_timeout(timeout)
        self.retries = resolve_retries(retries)
        self.backoff = resolve_backoff(backoff)
        self.heartbeat = heartbeat
        self.stale_after = max(STALE_BEATS * heartbeat, STALE_FLOOR_SECONDS)
        self._ctx = None
        self._workers: Dict[int, _Worker] = {}
        self._idle: Deque[int] = deque()
        #: Cumulative retries per shard id, across every :meth:`run`.
        self.shard_retries: Dict[str, int] = {}
        #: Cumulative retries per failure cause, across every :meth:`run`.
        self.retry_causes: Dict[str, int] = {}
        #: The active :meth:`run`'s in-flight map (pid -> shard, attempt,
        #: dispatch time); empty between runs.
        self._inflight: Dict[int, Tuple[Shard, int, float]] = {}
        #: Latest heartbeat-shipped resource sample per worker pid.
        self.worker_samples: Dict[int, Dict[str, float]] = {}
        #: Optional telemetry hook ``(event_name, fields_dict)``; the batch
        #: runner points it at the run's journal.  Exceptions are swallowed
        #: — telemetry must never fail a shard.
        self.on_event: Optional[Callable[[str, Dict[str, Any]], None]] = None

    def _emit(self, event: str, **fields: Any) -> None:
        hook = self.on_event
        if hook is not None:
            try:
                hook(event, fields)
            except Exception:
                pass

    def health_snapshot(self) -> Dict[str, Any]:
        """Point-in-time worker/shard health for ``batch status``.

        JSON-serializable: in-flight shards with their attempt number,
        how long they have been running and the owning worker's heartbeat
        age, a per-worker detail table (heartbeat age plus the latest
        heartbeat-shipped RSS/CPU sample), and the cumulative per-shard
        and per-cause retry tallies.
        """
        now = time.time()
        inflight = []
        for pid, (shard, attempt, dispatched) in sorted(
            self._inflight.items()
        ):
            worker = self._workers.get(pid)
            inflight.append(
                {
                    "shard": shard.shard_id,
                    "pid": pid,
                    "attempt": attempt,
                    "running_seconds": round(now - dispatched, 3),
                    "heartbeat_age": round(
                        now - worker.last_beat, 3
                    )
                    if worker is not None
                    else None,
                }
            )
        worker_rows = []
        for pid, worker in sorted(self._workers.items()):
            sample = self.worker_samples.get(pid)
            worker_rows.append(
                {
                    "pid": pid,
                    "alive": worker.alive(),
                    "heartbeat_age": round(now - worker.last_beat, 3),
                    "rss_bytes": sample.get("rss_bytes") if sample else None,
                    "cpu_seconds": (
                        sample.get("cpu_seconds") if sample else None
                    ),
                }
            )
        return {
            "updated": now,
            "workers": len(self._workers),
            "worker_detail": worker_rows,
            "inflight": inflight,
            "shard_retries": dict(self.shard_retries),
            "retry_causes": dict(self.retry_causes),
        }

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut down all workers and release their channels."""
        for worker in list(self._workers.values()):
            try:
                worker.queue.put(None)
            except Exception:
                pass
        deadline = time.time() + 2.0
        for worker in list(self._workers.values()):
            worker.process.join(timeout=max(0.0, deadline - time.time()))
            worker.kill()
        self._workers.clear()
        self._idle.clear()
        self.worker_samples.clear()
        self._ctx = None

    def _ensure_ready(self, pool_size: int) -> None:
        """Prune dead workers and top up to *pool_size*."""
        if self._ctx is None:
            try:
                self._ctx = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX fallback
                self._ctx = multiprocessing.get_context()
        for pid in list(self._idle):
            worker = self._workers.get(pid)
            if worker is None or not worker.alive():
                self._idle.remove(pid)
                self._workers.pop(pid, None)
        while len(self._workers) < pool_size:
            self._spawn()

    def _spawn(self) -> None:
        worker = _Worker(self._ctx, self.heartbeat)
        self._workers[worker.pid] = worker
        self._idle.append(worker.pid)
        self._emit("worker_spawned", worker=worker.pid)

    def run(
        self,
        shards: List[Shard],
        *,
        on_complete: Optional[Callable[[Shard, Dict[str, Any]], None]] = None,
    ) -> Dict[str, Dict[str, Any]]:
        """Execute *shards*, returning ``{shard_id: payload}``.

        *on_complete* fires in the supervisor as each shard's payload is
        verified — the batch runner uses it to checkpoint durably before
        this call returns.
        """
        if not shards:
            return {}
        by_id = {shard.shard_id: shard for shard in shards}
        if len(by_id) != len(shards):
            raise ShardExecutionError("duplicate shard ids in batch stage")
        pool_size = min(self.workers, len(shards))
        self._ensure_ready(pool_size)
        workers = self._workers
        idle = self._idle
        # (shard, attempt, not_before): retries wait out their backoff here
        # without blocking dispatch of other shards.
        pending: Deque[Tuple[Shard, int, float]] = deque(
            (shard, 0, 0.0) for shard in shards
        )
        inflight = self._inflight
        inflight.clear()
        done: Dict[str, Dict[str, Any]] = {}
        # Last worker each shard was dispatched to (provenance for the
        # shard_retry telemetry event).
        pid_of: Dict[str, int] = {}

        def spawn() -> None:
            self._spawn()

        def retire(pid: int, *, respawn: bool) -> None:
            worker = workers.pop(pid, None)
            if worker is not None:
                worker.kill()
            if pid in idle:
                idle.remove(pid)
            self.worker_samples.pop(pid, None)
            self._emit("worker_retired", worker=pid)
            if respawn and len(workers) < pool_size:
                spawn()
                obs.count("exec_worker_restarts")

        def reschedule(
            shard: Shard, attempt: int, why: str, cause: str
        ) -> None:
            if attempt + 1 > self.retries:
                raise ShardExecutionError(
                    f"shard {shard.shard_id!r} failed after "
                    f"{attempt + 1} attempt(s): {why}"
                )
            obs.count("exec_shard_retries")
            obs.count(f"exec_shard_retries_{cause}")
            self.shard_retries[shard.shard_id] = (
                self.shard_retries.get(shard.shard_id, 0) + 1
            )
            self.retry_causes[cause] = self.retry_causes.get(cause, 0) + 1
            self._emit(
                "shard_retry",
                shard=shard.shard_id,
                worker=pid_of.get(shard.shard_id, 0),
                attempt=attempt,
                cause=cause,
            )
            delay = self.backoff * (2 ** attempt)
            pending.append((shard, attempt + 1, time.time() + delay))

        pool_span = trace.TRACER.span(
            "exec.pool", shards=len(shards), workers=pool_size
        )
        span_obj = pool_span.__enter__()
        parent_span = trace.TRACER.current_span_id()
        graft_offset = getattr(span_obj, "start", 0.0)
        try:
            while len(done) < len(by_id):
                now = time.time()
                # Dispatch ready pending shards to idle workers.
                if idle and pending:
                    deferred: List[Tuple[Shard, int, float]] = []
                    while idle and pending:
                        shard, attempt, not_before = pending.popleft()
                        if not_before > now:
                            deferred.append((shard, attempt, not_before))
                            continue
                        pid = idle.popleft()
                        inflight[pid] = (shard, attempt, now)
                        pid_of[shard.shard_id] = pid
                        workers[pid].queue.put(
                            (shard.shard_id, shard.task, shard.params, attempt)
                        )
                        self._emit(
                            "shard_started",
                            shard=shard.shard_id,
                            worker=pid,
                            attempt=attempt,
                        )
                    pending.extendleft(reversed(deferred))
                # Drain ready result pipes (or time out for health checks).
                conn_map = {
                    worker.conn: worker_pid
                    for worker_pid, worker in workers.items()
                    if not worker.conn.closed
                }
                try:
                    ready = mp_connection.wait(
                        list(conn_map), timeout=min(self.heartbeat, 0.25)
                    )
                except OSError:  # pragma: no cover - race with retire()
                    ready = []
                messages = []
                for conn in ready:
                    try:
                        messages.append(conn.recv())
                    except (EOFError, OSError):
                        # The worker's send end is gone — death, or a send
                        # torn mid-write by SIGKILL.  Close our end so the
                        # pipe stops polling ready; the liveness check
                        # below retires the worker and reschedules.
                        try:
                            conn.close()
                        except OSError:
                            pass
                for message in messages:
                    kind = message[0]
                    pid = message[1]
                    worker = workers.get(pid)
                    if kind == "hb":
                        if worker is not None:
                            worker.last_beat = message[2]
                            sample = message[3] if len(message) > 3 else None
                            if sample is not None:
                                self.worker_samples[pid] = sample
                                self._emit(
                                    "resource_sample",
                                    scope="worker",
                                    worker=pid,
                                    rss_bytes=sample.get("rss_bytes", 0.0),
                                    cpu_seconds=sample.get(
                                        "cpu_seconds", 0.0
                                    ),
                                    majflt=sample.get("majflt", 0.0),
                                    minflt=sample.get("minflt", 0.0),
                                )
                    elif kind == "started":
                        if pid in inflight:
                            shard, attempt, _ = inflight[pid]
                            inflight[pid] = (shard, attempt, time.time())
                    elif kind == "done" and worker is not None and pid in inflight:
                        shard, attempt, _ = inflight.pop(pid)
                        _, _, shard_id, _, blob, digest, delta, spans, elapsed = (
                            message
                        )
                        worker.last_beat = time.time()
                        if hashlib.sha256(blob).hexdigest() != digest:
                            retire(pid, respawn=True)
                            reschedule(
                                shard,
                                attempt,
                                "payload checksum mismatch",
                                "checksum",
                            )
                            continue
                        payload = json.loads(blob.decode("utf-8"))
                        obs.merge_delta(delta)
                        obs.observe("exec_shard_seconds", elapsed)
                        trace.TRACER.graft(
                            spans, parent_id=parent_span, offset=graft_offset
                        )
                        self._emit(
                            "shard_done",
                            shard=shard_id,
                            worker=pid,
                            attempt=attempt,
                            seconds=round(float(elapsed), 6),
                            bytes=len(blob),
                        )
                        if shard_id not in done:
                            done[shard_id] = payload
                            obs.count("exec_shards_completed")
                            if on_complete is not None:
                                on_complete(shard, payload)
                        idle.append(pid)
                    elif kind == "error" and pid in inflight:
                        shard, attempt, _ = inflight.pop(pid)
                        idle.append(pid)
                        reschedule(shard, attempt, message[4], "task-error")
                # Health checks on inflight workers.
                now = time.time()
                for pid in list(inflight):
                    worker = workers.get(pid)
                    shard, attempt, started = inflight[pid]
                    if worker is None or not worker.alive():
                        inflight.pop(pid)
                        retire(pid, respawn=True)
                        reschedule(
                            shard,
                            attempt,
                            "worker died mid-shard",
                            "worker-death",
                        )
                    elif now - started > self.timeout:
                        inflight.pop(pid)
                        obs.count("exec_shard_timeouts")
                        retire(pid, respawn=True)
                        reschedule(
                            shard,
                            attempt,
                            f"shard exceeded timeout ({self.timeout:g}s)",
                            "timeout",
                        )
                    elif now - worker.last_beat > self.stale_after:
                        inflight.pop(pid)
                        retire(pid, respawn=True)
                        reschedule(
                            shard,
                            attempt,
                            "worker heartbeat went stale",
                            "stale-heartbeat",
                        )
                # Replace idle workers that died outside a shard.
                for pid in list(idle):
                    worker = workers.get(pid)
                    if worker is None or not worker.alive():
                        retire(pid, respawn=bool(pending))
        except BaseException:
            # a failed run may leave workers mid-shard; don't let their
            # late results bleed into a subsequent run
            self.close()
            raise
        finally:
            pool_span.__exit__(None, None, None)
        return done
