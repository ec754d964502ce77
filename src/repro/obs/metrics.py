"""Distribution metrics: fixed-bucket histograms and their exports.

The counter/timer layer in :mod:`repro.obs` answers "how much, in total";
histograms answer "how is it *distributed*" — per-shard wall times,
fixpoint iterations-to-convergence, eliminated limbs per round, state-group
sweep sizes.  Those are exactly the quantities whose tails matter (a p99
shard latency drives the batch's critical path; the fixpoint elimination
depth for ``C□``/``C◇`` is the paper's own complexity measure), and a
cumulative timer hides them completely.

Design constraints:

* **Fixed log-spaced buckets.**  Every histogram shares one bucket scheme
  (powers of two from ``2^-20`` to ``2^30``, plus an overflow bucket), so
  two histograms of the same name — one per worker process — merge by
  plain per-bucket addition, with no rebinning and no data-dependent
  layout.  That is what lets worker histograms fold into the supervisor
  over the existing :func:`repro.obs.merge_delta` pipe exactly like
  counters do.
* **O(log buckets) observes.**  Recording is one ``bisect`` over ~50
  bounds plus two dict updates; cheap enough for the always-on policy the
  counters already follow.
* **Plain-dict snapshots.**  A snapshot is JSON-ready (string bucket
  keys), diffable (:func:`histogram_delta`) and mergeable
  (:class:`Histogram.merge`), so it travels untouched through worker
  pipes, the telemetry journal and checkpointed batch results.

Exports: :func:`summarize` estimates p50/p90/p99 (and the mean) from the
bucket counts; :func:`prometheus_text` renders a full instrumentation
snapshot — counters, timers, gauges and histograms — in the Prometheus
text exposition format (``repro-eba metrics``).
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Any, Dict, List, Optional

__all__ = [
    "BUCKET_BOUNDS",
    "OVERFLOW_INDEX",
    "Histogram",
    "bucket_index",
    "bucket_upper",
    "bucket_lower",
    "histogram_delta",
    "summarize",
    "quantile",
    "quantile_from_values",
    "prometheus_text",
]

#: Shared upper bounds of the log-spaced buckets: ``2^-20 .. 2^30``.
#: A value lands in the first bucket whose bound it does not exceed;
#: values above the last bound land in the overflow bucket.
BUCKET_BOUNDS: List[float] = [float(2.0 ** e) for e in range(-20, 31)]

#: Index of the overflow ("+Inf") bucket.
OVERFLOW_INDEX = len(BUCKET_BOUNDS)


def bucket_index(value: float) -> int:
    """The bucket a value lands in (log-spaced; 0 for values <= 2^-20)."""
    if value <= BUCKET_BOUNDS[0]:
        return 0
    return bisect_left(BUCKET_BOUNDS, value)


def bucket_upper(index: int) -> float:
    """Upper bound of bucket *index* (``inf`` for the overflow bucket)."""
    if index >= OVERFLOW_INDEX:
        return float("inf")
    return BUCKET_BOUNDS[index]


def bucket_lower(index: int) -> float:
    """Lower bound of bucket *index* (0 for the first)."""
    if index <= 0:
        return 0.0
    return BUCKET_BOUNDS[index - 1]


class Histogram:
    """Counts of observed values in the shared log-spaced buckets.

    Mutation is not locked here — the owning
    :class:`repro.obs.Instrumentation` serializes access.
    """

    __slots__ = ("count", "total", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        #: Sparse ``{bucket_index: count}``.
        self.buckets: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        index = bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1
        self.count += 1
        self.total += value

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready form: string bucket keys, stable field names."""
        return {
            "count": self.count,
            "sum": round(self.total, 9),
            "buckets": {
                str(index): count
                for index, count in sorted(self.buckets.items())
            },
        }

    def merge(self, delta: Dict[str, Any]) -> None:
        """Fold a snapshot/delta (e.g. from a worker process) into this."""
        for key, count in (delta.get("buckets") or {}).items():
            index = int(key)
            self.buckets[index] = self.buckets.get(index, 0) + int(count)
        self.count += int(delta.get("count", 0))
        self.total += float(delta.get("sum", 0.0))


def histogram_delta(
    current: Dict[str, Any], before: Optional[Dict[str, Any]]
) -> Optional[Dict[str, Any]]:
    """Per-bucket difference of two snapshots (``None`` if nothing new)."""
    if before is None:
        return current if current.get("count") else None
    count = int(current.get("count", 0)) - int(before.get("count", 0))
    if count <= 0:
        return None
    before_buckets = before.get("buckets") or {}
    buckets = {}
    for key, value in (current.get("buckets") or {}).items():
        diff = int(value) - int(before_buckets.get(key, 0))
        if diff:
            buckets[key] = diff
    return {
        "count": count,
        "sum": round(
            float(current.get("sum", 0.0)) - float(before.get("sum", 0.0)), 9
        ),
        "buckets": buckets,
    }


def quantile(snapshot: Dict[str, Any], q: float) -> float:
    """Estimate the *q*-quantile from bucket counts.

    Linear interpolation inside the bucket the quantile falls into; the
    overflow bucket reports its lower bound (the estimate is then a floor).
    """
    count = int(snapshot.get("count", 0))
    if count <= 0:
        return 0.0
    target = q * count
    seen = 0
    for key in sorted(
        (snapshot.get("buckets") or {}), key=lambda k: int(k)
    ):
        index = int(key)
        bucket_count = int(snapshot["buckets"][key])
        if seen + bucket_count >= target:
            lower = bucket_lower(index)
            upper = bucket_upper(index)
            if upper == float("inf"):
                return lower
            fraction = (target - seen) / bucket_count
            return lower + (upper - lower) * fraction
        seen += bucket_count
    return bucket_upper(OVERFLOW_INDEX)


def summarize(snapshot: Dict[str, Any]) -> Dict[str, float]:
    """Count / mean / p50 / p90 / p99 digest of a histogram snapshot."""
    count = int(snapshot.get("count", 0))
    total = float(snapshot.get("sum", 0.0))
    return {
        "count": count,
        "mean": total / count if count else 0.0,
        "p50": quantile(snapshot, 0.50),
        "p90": quantile(snapshot, 0.90),
        "p99": quantile(snapshot, 0.99),
    }


def quantile_from_values(values: List[float], q: float) -> float:
    """Exact quantile of raw values (nearest-rank with interpolation)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


# -- Prometheus text exposition ----------------------------------------------

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(name: str) -> str:
    cleaned = _NAME_RE.sub("_", name)
    if not cleaned or not (cleaned[0].isalpha() or cleaned[0] == "_"):
        cleaned = "_" + cleaned
    return cleaned


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def prometheus_text(
    summary: Dict[str, Any], *, prefix: str = "repro"
) -> str:
    """Render an instrumentation snapshot in Prometheus text exposition.

    Counters become ``<prefix>_<name>_total``, cumulative stage timers
    become ``<prefix>_stage_seconds_total{stage="..."}``, gauges pass
    through as gauges, and histograms render with the standard
    cumulative ``_bucket{le=...}`` / ``_sum`` / ``_count`` series.
    """
    lines: List[str] = []
    counters = summary.get("counters") or {}
    for name in sorted(counters):
        metric = f"{prefix}_{_metric_name(name)}_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_format_value(counters[name])}")
    timers = summary.get("timers") or {}
    if timers:
        metric = f"{prefix}_stage_seconds_total"
        lines.append(f"# TYPE {metric} counter")
        for name in sorted(timers):
            lines.append(
                f'{metric}{{stage="{_metric_name(name)}"}} '
                f"{_format_value(round(float(timers[name]), 9))}"
            )
    gauges = summary.get("gauges") or {}
    for name in sorted(gauges):
        metric = f"{prefix}_{_metric_name(name)}"
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(gauges[name])}")
    histograms = summary.get("histograms") or {}
    for name in sorted(histograms):
        snapshot = histograms[name]
        metric = f"{prefix}_{_metric_name(name)}"
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        buckets = snapshot.get("buckets") or {}
        for key in sorted(buckets, key=lambda k: int(k)):
            cumulative += int(buckets[key])
            le = _format_value(bucket_upper(int(key)))
            lines.append(f'{metric}_bucket{{le="{le}"}} {cumulative}')
        count = int(snapshot.get("count", 0))
        lines.append(f'{metric}_bucket{{le="+Inf"}} {count}')
        lines.append(
            f"{metric}_sum {_format_value(float(snapshot.get('sum', 0.0)))}"
        )
        lines.append(f"{metric}_count {count}")
    if not lines:
        return "# (no instrumentation recorded)\n"
    return "\n".join(lines) + "\n"
