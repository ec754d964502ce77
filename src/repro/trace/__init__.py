"""Structured span tracing: *where* inside a workload the time went.

:mod:`repro.obs` answers "how much, in total" with flat process-wide
counters and stage timers; this module answers "where, exactly" with a tree
of **spans**.  A span is one timed region — a system enumeration, a fixpoint
evaluation, a simulator batch, an experiment — with a name, a parent,
free-form attributes (iteration counts, cache outcomes, parameters) and a
wall-clock interval.  Spans nest: the builder span opened while experiment
E4 enumerates its crash system is a child of E4's experiment span, and the
fixpoint spans opened by its formula evaluations nest below that.

Design constraints, in priority order:

1. **Always-on and cheap.**  Like :data:`repro.obs.OBS`, the process-wide
   :data:`TRACER` is enabled by default.  Opening a span is one object
   allocation plus two ``perf_counter`` calls; spans wrap whole stages
   (an enumeration, a fixpoint, one simulator batch), never inner
   loops, so tracing costs well under 5% on the micro benches (asserted in
   ``benchmarks/bench_micro_core.py``).
2. **Bounded, with visible overflow.**  Finished spans land in a ring
   buffer (:data:`DEFAULT_CAPACITY` entries); a long-running process
   keeps the most recent window instead of growing without bound.
   Evictions are no longer silent: every dropped span increments the
   tracer's :attr:`Tracer.dropped` total and the ``trace_spans_dropped``
   obs counter, and :func:`tracer_status` (surfaced by
   ``repro-eba stats``) reports watermark/capacity/drops.
3. **Mergeable.**  Worker processes of the sharded batch engine
   (:mod:`repro.exec`) trace into their own tracer and export their
   ``exec.shard`` spans; the supervisor grafts them under its
   ``exec.pool`` span (:meth:`Tracer.graft`), so the per-worker timeline
   survives the process boundary instead of being silently dropped.

Export formats:

* :func:`write_jsonl` — one span per line, machine-readable;
* :func:`chrome_trace_events` / :func:`write_chrome_trace` — the Chrome
  trace-event format, loadable in Perfetto / ``chrome://tracing``
  (``repro-eba trace run E4 --out trace.json``); resource-sample series
  from :mod:`repro.obs.resource` graft in as counter tracks
  (:func:`chrome_counter_events`) so RSS/CPU rise and fall under the
  span timeline;
* :func:`span_tree` — the nested dict form that
  ``ExperimentResult.data["trace"]`` carries.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

__all__ = [
    "Span",
    "Tracer",
    "TRACER",
    "span",
    "watermark",
    "collect",
    "tracer_status",
    "span_tree",
    "export_spans",
    "chrome_trace_events",
    "chrome_counter_events",
    "write_chrome_trace",
    "write_jsonl",
    "DEFAULT_CAPACITY",
]

#: Ring-buffer bound on finished spans kept by a tracer.
DEFAULT_CAPACITY = 16384


class Span:
    """One timed region of the workload.

    Attributes:
        span_id: Monotonically increasing id within the owning tracer.
        parent_id: Id of the enclosing span, or ``None`` for a root.
        name: Stage name (``"system_fastbuild"``, ``"fixpoint.common"``, ...).
        start: Seconds since the tracer's epoch at which the span opened.
        duration: Wall seconds the span covered (``None`` while open).
        attributes: Free-form key/value payload (parameters, counts).
    """

    __slots__ = ("span_id", "parent_id", "name", "start", "duration", "attributes")

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        start: float,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.duration: Optional[float] = None
        self.attributes: Dict[str, object] = {}

    def set(self, key: str, value: object) -> None:
        """Attach one attribute to the span."""
        self.attributes[key] = value

    def to_dict(self) -> Dict[str, object]:
        """Machine-readable form (used by every export path)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": round(self.start, 9),
            "duration": None if self.duration is None else round(self.duration, 9),
            "attributes": dict(self.attributes),
        }


class _NullSpan:
    """Stand-in yielded while tracing is disabled; absorbs attributes."""

    __slots__ = ()

    def set(self, key: str, value: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """Nested span recorder with a bounded ring buffer of finished spans.

    Spans nest through an explicit stack: the span open at the time a new
    one starts becomes its parent.  The reproduction is single-threaded per
    process (parallelism is process-based), so one stack suffices; worker
    processes each own a fresh tracer whose spans are grafted back by the
    parent.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"need capacity >= 1, got {capacity}")
        self.capacity = capacity
        self.enabled = True
        #: Total spans evicted from the ring buffer over this tracer's life.
        self.dropped = 0
        self._epoch = time.perf_counter()
        self._finished: List[Span] = []
        self._stack: List[Span] = []
        self._next_id = 0

    # -- recording ----------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attributes: object) -> Iterator[object]:
        """Open a nested span for the enclosed block.

        Yields the :class:`Span` so the block can attach attributes that are
        only known at the end (iteration counts, cache outcomes); while the
        tracer is disabled a no-op stand-in is yielded instead.
        """
        if not self.enabled:
            yield _NULL_SPAN
            return
        parent = self._stack[-1].span_id if self._stack else None
        record = Span(
            self._next_id, parent, name, time.perf_counter() - self._epoch
        )
        self._next_id += 1
        if attributes:
            record.attributes.update(attributes)
        self._stack.append(record)
        try:
            yield record
        finally:
            self._stack.pop()
            record.duration = (
                time.perf_counter() - self._epoch - record.start
            )
            self._append(record)

    def _append(self, record: Span) -> None:
        self._finished.append(record)
        overflow = len(self._finished) - self.capacity
        if overflow > 0:
            # Drop the oldest in one slice instead of popping per span, and
            # account for the loss so stats can surface it.
            del self._finished[:overflow]
            self.dropped += overflow
            from repro import obs

            obs.count("trace_spans_dropped", overflow)

    def status(self) -> Dict[str, object]:
        """Ring-buffer health: capacity, fill, watermark and drop totals."""
        return {
            "enabled": self.enabled,
            "capacity": self.capacity,
            "buffered": len(self._finished),
            "open": len(self._stack),
            "watermark": self._next_id,
            "dropped": self.dropped,
        }

    def current_span_id(self) -> Optional[int]:
        """Id of the innermost open span, or ``None``."""
        return self._stack[-1].span_id if self._stack else None

    @property
    def epoch(self) -> float:
        """``perf_counter`` value at which this tracer's clock started.

        Span starts are relative to this; counter tracks built from
        resource samples use it to land on the same timeline."""
        return self._epoch

    # -- collection ---------------------------------------------------------

    def watermark(self) -> int:
        """Marker for :meth:`collect`: the next span id to be assigned."""
        return self._next_id

    def collect(self, since: int = 0) -> List[Span]:
        """Finished spans with ``span_id >= since`` (oldest evicted first).

        Spans are returned in completion order; parents complete after
        their children, so consumers that need start order should sort.
        """
        return [s for s in self._finished if s.span_id >= since]

    def clear(self) -> None:
        """Drop all finished spans (open spans are unaffected)."""
        self._finished.clear()

    # -- cross-process merge -------------------------------------------------

    def graft(
        self,
        spans: List[Dict[str, object]],
        *,
        parent_id: Optional[int] = None,
        offset: float = 0.0,
    ) -> int:
        """Adopt exported *spans* from another tracer (a worker process).

        Ids are reassigned to this tracer's sequence (internal parent links
        preserved); spans without a parent in the batch are attached to
        *parent_id*; starts are shifted by *offset* seconds so the worker's
        chunk-relative timeline lands inside the parent's build span.

        Returns the number of spans adopted.
        """
        if not self.enabled or not spans:
            return 0
        mapping: Dict[int, int] = {}
        batch_ids = {int(s["span_id"]) for s in spans}
        for exported in spans:
            old_id = int(exported["span_id"])
            record = Span(
                self._next_id,
                None,
                str(exported["name"]),
                float(exported["start"]) + offset,
            )
            mapping[old_id] = self._next_id
            self._next_id += 1
            old_parent = exported.get("parent_id")
            if old_parent is not None and int(old_parent) in batch_ids:
                record.parent_id = mapping.get(int(old_parent))
            else:
                record.parent_id = parent_id
            duration = exported.get("duration")
            record.duration = None if duration is None else float(duration)
            attributes = exported.get("attributes")
            if isinstance(attributes, dict):
                record.attributes.update(attributes)
            self._append(record)
        return len(spans)


#: The process-wide tracer.
TRACER = Tracer()


def span(name: str, **attributes: object):
    """Open a span on the process-wide :data:`TRACER`."""
    return TRACER.span(name, **attributes)


def watermark() -> int:
    """Collection marker on the process-wide tracer."""
    return TRACER.watermark()


def collect(since: int = 0) -> List[Span]:
    """Finished spans of the process-wide tracer since *since*."""
    return TRACER.collect(since)


def tracer_status() -> Dict[str, object]:
    """Ring-buffer health of the process-wide tracer."""
    return TRACER.status()


# -- export -------------------------------------------------------------------


def export_spans(spans: List[Span]) -> List[Dict[str, object]]:
    """Spans as plain dicts, sorted by start time (for JSONL / grafting)."""
    return [s.to_dict() for s in sorted(spans, key=lambda s: s.start)]


def span_tree(spans: List[Span]) -> List[Dict[str, object]]:
    """Nest *spans* into parent/children trees (the ``data["trace"]`` form).

    Spans whose parent is absent from the batch (evicted from the ring
    buffer, or genuinely a root) become roots.  Children are ordered by
    start time.
    """
    nodes: Dict[int, Dict[str, object]] = {}
    for record in sorted(spans, key=lambda s: s.start):
        node = record.to_dict()
        node["children"] = []
        nodes[record.span_id] = node
    roots: List[Dict[str, object]] = []
    for node in nodes.values():
        parent = node["parent_id"]
        if parent is not None and parent in nodes:
            nodes[parent]["children"].append(node)  # type: ignore[union-attr]
        else:
            roots.append(node)
    return roots


def chrome_trace_events(spans: List[Span]) -> List[Dict[str, object]]:
    """Spans as Chrome trace-event format complete events (``"ph": "X"``).

    The produced list loads directly in Perfetto or ``chrome://tracing``;
    timestamps are microseconds since the tracer epoch, and span attributes
    travel in ``args``.
    """
    events: List[Dict[str, object]] = []
    for record in sorted(spans, key=lambda s: s.start):
        events.append(
            {
                "name": record.name,
                "ph": "X",
                "ts": round(record.start * 1e6, 3),
                "dur": round((record.duration or 0.0) * 1e6, 3),
                "pid": 0,
                "tid": 0,
                "args": {
                    "span_id": record.span_id,
                    "parent_id": record.parent_id,
                    **record.attributes,
                },
            }
        )
    return events


def chrome_counter_events(
    samples: List[Dict[str, float]],
    *,
    name: str = "resources",
    pid: int = 0,
    epoch: Optional[float] = None,
) -> List[Dict[str, object]]:
    """Resource samples as Chrome trace counter-track events (``"ph": "C"``).

    Each sample (the :func:`repro.obs.resource.read_sample` shape) becomes
    one counter event carrying RSS (MiB, so the track is readable next to
    CPU) and CPU%.  Timestamps come from the sample's monotonic ``perf``
    field, shifted by *epoch* (pass the tracer's epoch so the counter track
    lines up with the span timeline); samples without ``perf`` are skipped.
    """
    events: List[Dict[str, object]] = []
    for sample in samples:
        perf = sample.get("perf")
        if perf is None:
            continue
        ts = float(perf) - (epoch if epoch is not None else 0.0)
        if ts < 0:
            continue
        events.append(
            {
                "name": name,
                "ph": "C",
                "ts": round(ts * 1e6, 3),
                "pid": pid,
                "tid": 0,
                "args": {
                    "rss_mib": round(
                        float(sample.get("rss_bytes", 0.0)) / (1024 * 1024), 2
                    ),
                    "cpu_pct": round(float(sample.get("cpu_pct", 0.0)), 2),
                },
            }
        )
    return events


def write_chrome_trace(
    spans: List[Span],
    path: str,
    *,
    extra_events: Optional[List[Dict[str, object]]] = None,
) -> int:
    """Write *spans* (plus optional pre-built events, e.g. counter tracks
    from :func:`chrome_counter_events`) to *path* in Chrome trace-event
    JSON.

    Returns the number of events written.
    """
    events = chrome_trace_events(spans)
    if extra_events:
        events.extend(extra_events)
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
    return len(events)


def write_jsonl(spans: List[Span], path: str) -> int:
    """Write *spans* to *path* as one JSON object per line."""
    exported = export_spans(spans)
    with open(path, "w") as handle:
        for entry in exported:
            handle.write(json.dumps(entry))
            handle.write("\n")
    return len(exported)
