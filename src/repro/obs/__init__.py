"""Telemetry: process-wide counters, stage timers, histograms and gauges.

Every hot path of the stack reports into one lightweight, always-on
:class:`Instrumentation` instance (:data:`OBS`):

* the system builder counts runs built and views interned and times the
  enumeration stage;
* :meth:`repro.model.system.System.cached_evaluation` counts formula-cache
  hits/misses and times cache-miss evaluations;
* the fixpoint evaluators in :mod:`repro.knowledge.semantics` and
  :mod:`repro.model.chunked` count iterations and record
  **iterations-to-convergence** and **eliminated limbs per round**
  histograms — the distribution-shaped quantities (elimination depth for
  ``C□``/``C◇``, frontier decay) that cumulative counters hide;
* the :class:`~repro.model.provider.SystemProvider` counts system-cache
  hits, misses (each one build) and evictions;
* the sharded batch engine in :mod:`repro.exec` counts shard lifecycle
  events, records per-shard wall-time histograms
  (``exec_shard_seconds``) and folds each worker's delta back into the
  supervisor via :func:`merge_delta` — histograms merge per-bucket,
  exactly like counters add;
* every :func:`stage` additionally records its duration into a histogram
  of the same name, so cumulative timers come with distributions
  (system build latencies included) for free.

The cost model stays "a few dict operations per event": counters are dict
increments, timers wrap whole stages, and a histogram observe is one
bisect over ~50 fixed log-spaced bounds (see :mod:`repro.obs.metrics`) —
keeping everything on costs well under 5% on the micro benches (asserted
in ``benchmarks/bench_micro_core.py``).

The instance is **thread-safe**: mutation happens under a lock, and the
``stage()`` reentrancy set is thread-local, so the background resource
sampler (:mod:`repro.obs.resource`) and future daemon worker threads can
report concurrently without racing dict updates or suppressing each
other's same-named stages.

Consumers take a :func:`snapshot` before a workload and a
:func:`delta_since` after it; :func:`repro.experiments.registry.run_experiment`
does exactly that to stamp every ``ExperimentResult.data`` with its own
stage timings, and ``repro-eba --stats`` prints the process totals.
``repro-eba metrics`` renders the same snapshot as Prometheus text
exposition (:func:`repro.obs.metrics.prometheus_text`), and batch runs
stream deltas into a run-scoped telemetry journal
(:mod:`repro.obs.journal`).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional

from .metrics import Histogram, histogram_delta, summarize

__all__ = [
    "Instrumentation",
    "OBS",
    "count",
    "stage",
    "observe",
    "gauge",
    "snapshot",
    "delta_since",
    "merge_delta",
    "reset",
    "format_summary",
]


class Instrumentation:
    """Named counters, cumulative wall-time stages, histograms and gauges.

    Stages are reentrancy-safe: a nested ``stage("x")`` inside an open
    ``stage("x")`` is a no-op, so recursive evaluation (formulas evaluating
    their operands) never double-counts wall time.  The reentrancy set is
    per-thread, so the same stage name running concurrently in two threads
    is timed in both instead of one silently suppressing the other.
    """

    __slots__ = (
        "counters",
        "timers",
        "histograms",
        "gauges",
        "enabled",
        "_lock",
        "_local",
    )

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.timers: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.gauges: Dict[str, float] = {}
        self.enabled = True
        self._lock = threading.Lock()
        self._local = threading.local()

    @property
    def _active(self) -> set:
        """This thread's set of currently-open stage names."""
        active = getattr(self._local, "active", None)
        if active is None:
            active = self._local.active = set()
        return active

    def count(self, name: str, delta: int = 1) -> None:
        """Add *delta* to counter *name*."""
        if self.enabled:
            with self._lock:
                self.counters[name] = self.counters.get(name, 0) + delta

    def observe(self, name: str, value: float) -> None:
        """Record *value* into histogram *name* (shared log buckets)."""
        if self.enabled:
            with self._lock:
                histogram = self.histograms.get(name)
                if histogram is None:
                    histogram = self.histograms[name] = Histogram()
                histogram.observe(value)

    def gauge(self, name: str, value: float) -> None:
        """Set gauge *name* to *value* (last write wins)."""
        if self.enabled:
            with self._lock:
                self.gauges[name] = value

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Accumulate the wall time of the enclosed block under *name*.

        Each completed (non-reentrant) frame also lands one observation in
        the histogram of the same name, so every stage gets a latency
        distribution alongside its cumulative timer.
        """
        active = self._active
        if not self.enabled or name in active:
            yield
            return
        active.add(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            active.discard(name)
            elapsed = time.perf_counter() - start
            with self._lock:
                self.timers[name] = self.timers.get(name, 0.0) + elapsed
                histogram = self.histograms.get(name)
                if histogram is None:
                    histogram = self.histograms[name] = Histogram()
                histogram.observe(elapsed)

    def snapshot(self) -> Dict[str, Any]:
        """A copyable, JSON-ready view of the current totals."""
        with self._lock:
            return {
                "counters": dict(self.counters),
                "timers": dict(self.timers),
                "histograms": {
                    name: histogram.snapshot()
                    for name, histogram in self.histograms.items()
                },
                "gauges": dict(self.gauges),
            }

    def delta_since(self, before: Dict[str, Any]) -> Dict[str, Any]:
        """Totals accumulated since *before* (zero entries dropped).

        Histogram entries diff per-bucket; gauges report their current
        value when it changed since *before*.
        """
        current = self.snapshot()
        counters_before = before.get("counters", {})
        timers_before = before.get("timers", {})
        histograms_before = before.get("histograms", {})
        gauges_before = before.get("gauges", {})
        counters = {
            name: value - counters_before.get(name, 0)
            for name, value in current["counters"].items()
            if value - counters_before.get(name, 0)
        }
        timers = {
            name: round(value - timers_before.get(name, 0.0), 6)
            for name, value in current["timers"].items()
            if value - timers_before.get(name, 0.0) > 0.0
        }
        histograms = {}
        for name, snap in current["histograms"].items():
            diff = histogram_delta(snap, histograms_before.get(name))
            if diff is not None:
                histograms[name] = diff
        gauges = {
            name: value
            for name, value in current["gauges"].items()
            if gauges_before.get(name) != value
        }
        delta: Dict[str, Any] = {"counters": counters, "timers": timers}
        if histograms:
            delta["histograms"] = histograms
        if gauges:
            delta["gauges"] = gauges
        return delta

    def merge_delta(self, delta: Dict[str, Any]) -> None:
        """Fold a snapshot/delta from another process into this instance.

        Used by the sharded batch engine: each worker returns the
        :func:`delta_since` it accumulated, and the supervisor folds those
        into its own totals so sharded and in-process runs report
        identical counters — and, bucket for bucket, identical
        histograms.  Gauges are last-write-wins.
        """
        if not self.enabled:
            return
        with self._lock:
            for name, value in delta.get("counters", {}).items():
                self.counters[name] = self.counters.get(name, 0) + int(value)
            for name, value in delta.get("timers", {}).items():
                self.timers[name] = self.timers.get(name, 0.0) + float(value)
            for name, snap in (delta.get("histograms") or {}).items():
                histogram = self.histograms.get(name)
                if histogram is None:
                    histogram = self.histograms[name] = Histogram()
                histogram.merge(snap)
            for name, value in (delta.get("gauges") or {}).items():
                self.gauges[name] = value

    def reset(self) -> None:
        """Zero all counters, timers, histograms and gauges (for tests)."""
        with self._lock:
            self.counters.clear()
            self.timers.clear()
            self.histograms.clear()
            self.gauges.clear()


#: The process-wide instrumentation sink.
OBS = Instrumentation()


def count(name: str, delta: int = 1) -> None:
    """Add *delta* to the process-wide counter *name*."""
    OBS.count(name, delta)


def observe(name: str, value: float) -> None:
    """Record *value* into the process-wide histogram *name*."""
    OBS.observe(name, value)


def gauge(name: str, value: float) -> None:
    """Set the process-wide gauge *name* to *value*."""
    OBS.gauge(name, value)


def stage(name: str):
    """Time the enclosed block under the process-wide stage *name*."""
    return OBS.stage(name)


def snapshot() -> Dict[str, Any]:
    """Current process-wide totals."""
    return OBS.snapshot()


def delta_since(before: Dict[str, Any]) -> Dict[str, Any]:
    """Process-wide totals accumulated since *before*."""
    return OBS.delta_since(before)


def merge_delta(delta: Dict[str, Any]) -> None:
    """Fold a worker-process delta into the process-wide totals."""
    OBS.merge_delta(delta)


def reset() -> None:
    """Zero the process-wide totals (mainly for tests)."""
    OBS.reset()


def format_summary(summary: Optional[Dict[str, Any]] = None) -> str:
    """Human-readable one-block rendering of a snapshot/delta.

    With no argument, renders the current process totals.  Timers first
    (sorted by descending wall time), then counters (alphabetically),
    then gauges, then histogram digests (count / mean / p50 / p90 / p99).
    """
    if summary is None:
        summary = snapshot()
    timers = summary.get("timers", {})
    counters = summary.get("counters", {})
    gauges = summary.get("gauges", {})
    histograms = summary.get("histograms", {})
    lines = []
    for name, seconds in sorted(timers.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {name:<28} {seconds:9.3f}s")
    for name, value in sorted(counters.items()):
        lines.append(f"  {name:<28} {int(value):>10}")
    for name, value in sorted(gauges.items()):
        lines.append(f"  {name:<28} {value:>14.3f} (gauge)")
    for name in sorted(histograms):
        snap = histograms[name]
        digest = summarize(
            snap.snapshot() if isinstance(snap, Histogram) else snap
        )
        lines.append(
            f"  {name:<28} n={digest['count']:<7} "
            f"mean={digest['mean']:.4g} p50={digest['p50']:.4g} "
            f"p90={digest['p90']:.4g} p99={digest['p99']:.4g}"
        )
    if not lines:
        return "  (no instrumentation recorded)"
    return "\n".join(lines)
