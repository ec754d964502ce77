"""Experiment framework: uniform results for the reproduction harness.

Each experiment module exposes ``run(**params) -> ExperimentResult``; the
registry in :mod:`repro.experiments.registry` maps experiment ids (E1..E21,
mirroring DESIGN.md's index) to those functions.  The benchmark suite calls
``run`` under ``pytest-benchmark`` and asserts ``result.ok``;
``EXPERIMENTS.md`` is generated from the same results, so the document and
the benches can never drift apart.

Every result carries the instrumentation accumulated while it ran
(:mod:`repro.obs` stage timings and cache counters) under
``data["instrumentation"]``; :func:`attach_instrumentation` is the helper
the registry uses to stamp it, and :meth:`ExperimentResult.render` appends
the summary to the report block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List

from .. import obs, trace


@dataclass
class ExperimentResult:
    """Outcome of one reproduction experiment.

    Attributes:
        experiment_id: Index entry (``"E1"`` ... ``"E21"``).
        title: Human-readable title.
        paper_claim: What the paper asserts (proposition/theorem text, in
            brief).
        ok: Whether the measured behaviour matches the claim.
        table: Rendered plain-text table of the measured rows.
        notes: Free-form measurement notes (parameters, regimes,
            substitutions used).
        data: Machine-readable measurements for further analysis; the
            registry adds an ``"instrumentation"`` entry with the stage
            timings and cache counters observed while the experiment ran.
    """

    experiment_id: str
    title: str
    paper_claim: str
    ok: bool
    table: str
    notes: List[str] = field(default_factory=list)
    data: Dict[str, object] = field(default_factory=dict)

    def render(self) -> str:
        """Full plain-text report block for this experiment."""
        status = "REPRODUCED" if self.ok else "MISMATCH"
        lines = [
            f"== {self.experiment_id}: {self.title} [{status}] ==",
            f"Paper claim: {self.paper_claim}",
            "",
            self.table,
        ]
        if self.notes:
            lines.append("")
            lines.extend(f"note: {note}" for note in self.notes)
        instrumentation = self.data.get("instrumentation")
        if isinstance(instrumentation, dict) and (
            instrumentation.get("counters") or instrumentation.get("timers")
        ):
            lines.append("")
            lines.append("instrumentation:")
            lines.append(obs.format_summary(instrumentation))
        return "\n".join(lines)


def attach_instrumentation(
    result: ExperimentResult, before: Dict[str, Dict[str, float]]
) -> ExperimentResult:
    """Stamp *result* with the instrumentation accumulated since *before*.

    *before* is an :func:`repro.obs.snapshot` taken just before the
    experiment ran; the delta (stage wall times, runs built, cache
    hits/misses, fixpoint iterations) lands in
    ``result.data["instrumentation"]``.
    """
    result.data["instrumentation"] = obs.delta_since(before)
    return result


def attach_trace(result: ExperimentResult, mark: int) -> ExperimentResult:
    """Stamp *result* with the span tree recorded since watermark *mark*.

    *mark* is a :func:`repro.trace.watermark` taken just before the
    experiment ran; every span finished since — system builds, fixpoint
    evaluations, simulator executions, and the experiment span itself —
    lands as a nested tree in ``result.data["trace"]``.
    """
    result.data["trace"] = trace.span_tree(trace.collect(mark))
    return result


ExperimentRunner = Callable[..., ExperimentResult]
