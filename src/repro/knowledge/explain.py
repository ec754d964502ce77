"""Machine-checkable explanations for knowledge verdicts.

The evaluators in :mod:`repro.knowledge.semantics` answer *whether*
``K_i φ`` / ``E_S φ`` / ``C_S φ`` / ``C□_S φ`` / ``C◇_S φ`` holds at a
point; this module answers *why*, in a form a test can re-verify against
the semantics:

* a **failure** explanation carries an indistinguishability chain — a
  sequence of ``(processor, point, point')`` steps, each justified by a
  shared local view — ending at a counterexample point where the operand
  itself is false, together with the fixpoint iteration at which each
  visited point was eliminated;
* a **success** explanation for the fixpoint operators carries the number
  of iterations to convergence, and for run-level ``C□_S φ`` the Corollary
  3.3 reachability component whose runs all satisfy φ.

:meth:`Explanation.check` replays every recorded claim against the system
(views really shared, memberships really hold, the witness really violates
the operand, the component really satisfies it) and returns the list of
discrepancies — empty means the explanation is sound.  The walk used for
fixpoint failures is itself sound by construction: a point eliminated at
iteration ``k`` always has either a direct ``¬φ`` counterexample or a
neighbour eliminated at iteration ``≤ k - 1``, so the chain's elimination
levels strictly decrease and terminate at a direct counterexample.

``repro-eba explain <experiment> <formula> [--point R:M]`` surfaces the
same machinery on the command line via :data:`EXPLAIN_CATALOG`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple
from weakref import WeakKeyDictionary

from .. import trace
from ..errors import EvaluationError
from ..model.system import Point, System, TruthAssignment
from . import semantics
from .formulas import (
    Believes,
    Common,
    ContinualCommon,
    EventualCommon,
    Everyone,
    Formula,
    Knows,
)
from .nonrigid import NonrigidSet

#: Fixpoint variants and the time range an ``E``-failure may anchor at.
_VARIANTS = ("common", "continual", "eventual")


@dataclass
class ChainStep:
    """One indistinguishability step: *processor* cannot tell
    ``from_point`` and ``to_point`` apart (it has local view ``view`` at
    both)."""

    processor: int
    from_point: Point
    to_point: Point
    view: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "processor": self.processor,
            "from": list(self.from_point),
            "to": list(self.to_point),
            "view": self.view,
        }


@dataclass
class Explanation:
    """Evidence for one formula verdict at one point.

    Serializable fields describe the evidence; the private ``_formula`` /
    ``_operand`` / ``_nonrigid`` handles let :meth:`check` replay it.
    """

    kind: str
    formula: str
    point: Point
    verdict: bool
    chain: List[ChainStep] = field(default_factory=list)
    witness: Optional[Point] = None
    eliminated_at: Optional[int] = None
    iterations: Optional[int] = None
    component_runs: Optional[List[int]] = None
    notes: List[str] = field(default_factory=list)
    _formula: Optional[Formula] = field(default=None, repr=False)
    _operand: Optional[Formula] = field(default=None, repr=False)
    _nonrigid: Optional[NonrigidSet] = field(default=None, repr=False)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (handles stripped)."""
        return {
            "kind": self.kind,
            "formula": self.formula,
            "point": list(self.point),
            "verdict": self.verdict,
            "chain": [step.to_dict() for step in self.chain],
            "witness": None if self.witness is None else list(self.witness),
            "eliminated_at": self.eliminated_at,
            "iterations": self.iterations,
            "component_runs": self.component_runs,
            "notes": list(self.notes),
        }

    # -- machine verification ----------------------------------------------

    def check(self, system: System) -> List[str]:
        """Replay every claim against *system*; return discrepancies."""
        problems: List[str] = []
        if self._formula is not None and (
            self._formula.holds_at(system, *self.point) != self.verdict
        ):
            problems.append("recorded verdict does not match re-evaluation")
        members = (
            self._nonrigid.members_matrix(system)
            if self._nonrigid is not None
            else None
        )
        previous_run = self.point[0]
        for index, step in enumerate(self.chain):
            from_run, from_time = step.from_point
            to_run, to_time = step.to_point
            if from_run != previous_run:
                problems.append(
                    f"step {index}: anchors run {from_run}, chain was at "
                    f"run {previous_run}"
                )
            if system.runs[from_run].view(step.processor, from_time) != step.view:
                problems.append(
                    f"step {index}: processor {step.processor} does not "
                    f"have view {step.view} at {step.from_point}"
                )
            if system.runs[to_run].view(step.processor, to_time) != step.view:
                problems.append(
                    f"step {index}: processor {step.processor} does not "
                    f"have view {step.view} at {step.to_point}"
                )
            if members is not None:
                if step.processor not in members[to_run][to_time]:
                    problems.append(
                        f"step {index}: processor {step.processor} is not "
                        f"an S-member at target {step.to_point}"
                    )
                if self.kind != "believes" and (
                    step.processor not in members[from_run][from_time]
                ):
                    problems.append(
                        f"step {index}: processor {step.processor} is not "
                        f"an S-member at anchor {step.from_point}"
                    )
            previous_run = to_run
        if not self.verdict and self.witness is not None:
            if self._operand is not None and self._operand.holds_at(
                system, *self.witness
            ):
                problems.append(
                    "witness point satisfies the operand; not a "
                    "counterexample"
                )
            if self.chain and self.chain[-1].to_point != self.witness:
                problems.append("chain does not terminate at the witness")
        if not self.verdict and self.witness is None and self.chain:
            problems.append("failure chain recorded without a witness")
        if self.component_runs is not None and self.verdict and (
            self._operand is not None
        ):
            truth = self._operand.evaluate(system)
            for run_index in self.component_runs:
                if not all(
                    truth.at(run_index, time)
                    for time in range(system.horizon + 1)
                ):
                    problems.append(
                        f"component run {run_index} violates the operand"
                    )
            if self.point[0] not in self.component_runs:
                problems.append("point's run missing from its component")
        return problems


# -- instrumented fixpoints --------------------------------------------------

_EliminationRecord = Tuple[TruthAssignment, List[List[Optional[int]]], int]
_ELIMINATION_CACHE: "WeakKeyDictionary[System, Dict[object, _EliminationRecord]]" = (
    WeakKeyDictionary()
)


def _fixpoint_step(
    system: System,
    nonrigid: NonrigidSet,
    phi: TruthAssignment,
    variant: str,
) -> Callable[[TruthAssignment], TruthAssignment]:
    if variant == "common":
        return lambda x: semantics.eval_everyone(
            system, nonrigid, phi.conjoin(x)
        )
    if variant == "continual":
        return lambda x: semantics.eval_everyone_box(
            system, nonrigid, phi.conjoin(x)
        )
    return lambda x: semantics.eval_eventually(
        system, semantics.eval_everyone(system, nonrigid, phi.conjoin(x))
    )


def fixpoint_eliminations(
    system: System,
    nonrigid: NonrigidSet,
    operand: Formula,
    variant: str,
) -> _EliminationRecord:
    """Greatest-fixed-point evaluation that also records, per point, the
    iteration at which the point was eliminated (``None`` = survives).

    Memoized per system; identical to the evaluators in
    :mod:`repro.knowledge.semantics` on the final assignment.
    """
    if variant not in _VARIANTS:
        raise EvaluationError(f"unknown fixpoint variant {variant!r}")
    cache = _ELIMINATION_CACHE.setdefault(system, {})
    key = (variant, nonrigid.cache_key(), operand.cache_key())
    hit = cache.get(key)
    if hit is not None:
        return hit
    phi = operand.evaluate(system)
    step = _fixpoint_step(system, nonrigid, phi, variant)
    horizon = system.horizon
    with trace.span(
        "explain.fixpoint", variant=variant, runs=len(system.runs)
    ) as fixpoint_span:
        eliminated: List[List[Optional[int]]] = [
            [None] * (horizon + 1) for _ in system.runs
        ]
        current = TruthAssignment.constant(system, True)
        iterations = 0
        while True:
            iterations += 1
            candidate = step(current)
            current_rows = current.to_rows()
            candidate_rows = candidate.to_rows()
            for run_index in range(len(system.runs)):
                current_row = current_rows[run_index]
                candidate_row = candidate_rows[run_index]
                eliminated_row = eliminated[run_index]
                for time in range(horizon + 1):
                    if (
                        current_row[time]
                        and not candidate_row[time]
                        and eliminated_row[time] is None
                    ):
                        eliminated_row[time] = iterations
            if candidate == current:
                fixpoint_span.set("iterations", iterations)
                break
            current = candidate
    record = (current, eliminated, iterations)
    cache[key] = record
    return record


def _failure_times(system: System, point: Point, variant: str):
    """Times within ``point``'s run where an ``E``-failure may anchor."""
    _, time = point
    if variant == "common":
        return (time,)
    if variant == "continual":
        return range(system.horizon + 1)
    return range(time, system.horizon + 1)


def _scan_belief_failures(
    system: System,
    members,
    phi: TruthAssignment,
    eliminated: List[List[Optional[int]]],
    anchor: Point,
    max_level: int,
):
    """Find why ``E_S(φ ∧ X)`` fails at *anchor*.

    Returns ``(direct, fallback)`` where each is ``(processor, point)`` or
    ``None``: *direct* targets a same-state point violating φ itself,
    *fallback* one eliminated at iteration ``≤ max_level``.
    """
    run_index, time = anchor
    run = system.runs[run_index]
    fallback = None
    for processor in sorted(members[run_index][time]):
        view = run.view(processor, time)
        for target in system.same_state_points(view):
            target_run, target_time = target
            if processor not in members[target_run][target_time]:
                continue
            if not phi.at(target_run, target_time):
                return (processor, target), fallback
            if fallback is None and max_level >= 0:
                level = eliminated[target_run][target_time]
                if level is not None and level <= max_level:
                    fallback = (processor, target)
    return None, fallback


def _elimination_walk(
    system: System,
    nonrigid: NonrigidSet,
    phi: TruthAssignment,
    eliminated: List[List[Optional[int]]],
    point: Point,
    variant: str,
) -> Tuple[List[ChainStep], Optional[Point]]:
    """Walk elimination levels down to a direct ``¬φ`` counterexample.

    Each step either ends at a point violating φ (returned as the witness)
    or moves to a point eliminated strictly earlier, so the walk terminates
    — at level 1 the candidate set is all-true and only direct failures
    remain.
    """
    members = nonrigid.members_matrix(system)
    steps: List[ChainStep] = []
    current = point
    for _ in range(system.num_points() + 1):
        level = eliminated[current[0]][current[1]]
        if level is None:
            return steps, None
        direct = fallback = None
        direct_anchor = fallback_anchor = None
        for anchor_time in _failure_times(system, current, variant):
            anchor = (current[0], anchor_time)
            found_direct, found_fallback = _scan_belief_failures(
                system, members, phi, eliminated, anchor, level - 1
            )
            if found_direct is not None:
                direct, direct_anchor = found_direct, anchor
                break
            if found_fallback is not None and fallback is None:
                fallback, fallback_anchor = found_fallback, anchor
        if direct is not None:
            processor, target = direct
            anchor = direct_anchor
        elif fallback is not None:
            processor, target = fallback
            anchor = fallback_anchor
        else:
            return steps, None
        steps.append(
            ChainStep(
                processor,
                anchor,
                target,
                system.runs[anchor[0]].view(processor, anchor[1]),
            )
        )
        if direct is not None:
            return steps, target
        current = target
    return steps, None


# -- per-operator explainers -------------------------------------------------

def _describe(formula: Formula) -> str:
    text = repr(formula)
    if text.startswith("<"):
        text = type(formula).__name__
    return text


def _explain_state_operator(
    system: System, formula, point: Point, verdict: bool, kind: str
) -> Explanation:
    """Shared machinery for ``K_i`` and ``B_i^S`` (one-step chains)."""
    processor = formula.processor
    operand = formula.operand
    nonrigid = formula.nonrigid if kind == "believes" else None
    phi = operand.evaluate(system)
    members = nonrigid.members_matrix(system) if nonrigid else None
    run_index, time = point
    view = system.runs[run_index].view(processor, time)
    explanation = Explanation(
        kind=kind,
        formula=_describe(formula),
        point=point,
        verdict=verdict,
        _formula=formula,
        _operand=operand,
        _nonrigid=nonrigid,
    )
    relevant = 0
    for target in system.same_state_points(view):
        target_run, target_time = target
        if members is not None and (
            processor not in members[target_run][target_time]
        ):
            continue
        relevant += 1
        if not verdict and not phi.at(target_run, target_time):
            explanation.chain = [ChainStep(processor, point, target, view)]
            explanation.witness = target
            explanation.notes.append(
                f"processor {processor} cannot distinguish "
                f"{point} from {target}, where the operand fails"
            )
            return explanation
    if verdict:
        if relevant == 0:
            explanation.notes.append(
                f"vacuously true: processor {processor} is an S-member at "
                "none of its same-state points"
            )
        else:
            explanation.notes.append(
                f"operand holds at all {relevant} point(s) where processor "
                f"{processor} has this local state"
            )
    return explanation


def _explain_everyone(
    system: System, formula: Everyone, point: Point, verdict: bool
) -> Explanation:
    nonrigid = formula.nonrigid
    operand = formula.operand
    phi = operand.evaluate(system)
    members = nonrigid.members_matrix(system)
    explanation = Explanation(
        kind="everyone",
        formula=_describe(formula),
        point=point,
        verdict=verdict,
        _formula=formula,
        _operand=operand,
        _nonrigid=nonrigid,
    )
    if verdict:
        count = len(members[point[0]][point[1]])
        explanation.notes.append(
            "vacuously true: S is empty at the point"
            if count == 0
            else f"all {count} S-member(s) believe the operand"
        )
        return explanation
    # E_S φ false: some member's belief fails via a direct counterexample.
    direct, _ = _scan_belief_failures(
        system, members, phi, [], point, max_level=-1
    )
    if direct is not None:
        processor, target = direct
        view = system.runs[point[0]].view(processor, point[1])
        explanation.chain = [ChainStep(processor, point, target, view)]
        explanation.witness = target
        explanation.notes.append(
            f"S-member {processor} considers {target} possible, where the "
            "operand fails"
        )
    return explanation


def _explain_fixpoint(
    system: System, formula, point: Point, verdict: bool, variant: str
) -> Explanation:
    nonrigid = formula.nonrigid
    operand = formula.operand
    kinds = {
        "common": "common",
        "continual": "continual-common",
        "eventual": "eventual-common",
    }
    explanation = Explanation(
        kind=kinds[variant],
        formula=_describe(formula),
        point=point,
        verdict=verdict,
        _formula=formula,
        _operand=operand,
        _nonrigid=nonrigid,
    )
    _, eliminated, iterations = fixpoint_eliminations(
        system, nonrigid, operand, variant
    )
    explanation.iterations = iterations
    if verdict:
        explanation.notes.append(
            f"point survives all {iterations} fixpoint iteration(s)"
        )
        return explanation
    explanation.eliminated_at = eliminated[point[0]][point[1]]
    phi = operand.evaluate(system)
    chain, witness = _elimination_walk(
        system, nonrigid, phi, eliminated, point, variant
    )
    explanation.chain = chain
    explanation.witness = witness
    if witness is not None:
        explanation.notes.append(
            f"eliminated at iteration {explanation.eliminated_at}; "
            f"{len(chain)}-step indistinguishability chain reaches "
            f"{witness}, where the operand fails"
        )
    return explanation


def _explain_components(
    system: System, formula: ContinualCommon, point: Point, verdict: bool
) -> Explanation:
    nonrigid = formula.nonrigid
    operand = formula.operand
    explanation = Explanation(
        kind="continual-common-components",
        formula=_describe(formula),
        point=point,
        verdict=verdict,
        _formula=formula,
        _operand=operand,
        _nonrigid=nonrigid,
    )
    components = semantics.run_reachability_components(system, nonrigid)
    anchor_component = components[point[0]]
    if anchor_component == -1:
        explanation.notes.append(
            "vacuously true: S never occurs in the point's run, so no "
            "point is S-□-reachable from it"
        )
        return explanation
    component = [
        run_index
        for run_index, representative in enumerate(components)
        if representative == anchor_component
    ]
    explanation.component_runs = component
    phi = operand.evaluate(system)
    if verdict:
        explanation.notes.append(
            f"operand holds in all {len(component)} run(s) of the point's "
            "S-□-reachability component (Corollary 3.3)"
        )
        return explanation
    chain, witness = _component_chain(system, nonrigid, phi, point)
    explanation.chain = chain
    explanation.witness = witness
    if witness is not None:
        explanation.notes.append(
            f"run {witness[0]} is S-□-reachable in {len(chain)} step(s) "
            "and violates the operand"
        )
    return explanation


def _component_chain(
    system: System,
    nonrigid: NonrigidSet,
    phi: TruthAssignment,
    point: Point,
) -> Tuple[List[ChainStep], Optional[Point]]:
    """BFS over S-□-reachability links to a run violating run-level φ."""
    members = nonrigid.members_matrix(system)
    start = point[0]
    if not phi.at(start, 0):
        return [], point
    occurrences: Dict[int, List[Point]] = {}
    for run_index, run in enumerate(system.runs):
        for time in range(system.horizon + 1):
            for processor in members[run_index][time]:
                occurrences.setdefault(
                    run.view(processor, time), []
                ).append((run_index, time))
    parents: Dict[int, Optional[Tuple[int, ChainStep]]] = {start: None}
    queue = [start]
    while queue:
        run_index = queue.pop(0)
        run = system.runs[run_index]
        for time in range(system.horizon + 1):
            for processor in members[run_index][time]:
                view = run.view(processor, time)
                for target_run, target_time in occurrences.get(view, ()):
                    if target_run in parents:
                        continue
                    step = ChainStep(
                        processor,
                        (run_index, time),
                        (target_run, target_time),
                        view,
                    )
                    parents[target_run] = (run_index, step)
                    if not phi.at(target_run, 0):
                        chain = [step]
                        back = run_index
                        while parents[back] is not None:
                            previous_run, previous_step = parents[back]
                            chain.append(previous_step)
                            back = previous_run
                        chain.reverse()
                        return chain, (target_run, target_time)
                    queue.append(target_run)
    return [], None


def explain(system: System, formula: Formula, point: Point) -> Explanation:
    """Explain ``formula``'s verdict at ``point`` over *system*.

    Dispatches on the outermost operator; operators without structural
    evidence (boolean/temporal connectives, atoms) get a re-check-only
    explanation.
    """
    run_index, time = point
    if not (0 <= run_index < len(system.runs)) or not (
        0 <= time <= system.horizon
    ):
        raise EvaluationError(
            f"point {point!r} outside system "
            f"({len(system.runs)} runs, horizon {system.horizon})"
        )
    verdict = formula.holds_at(system, run_index, time)
    with trace.span(
        "explain", operator=type(formula).__name__, verdict=verdict
    ):
        if isinstance(formula, Knows):
            return _explain_state_operator(
                system, formula, point, verdict, "knows"
            )
        if isinstance(formula, Believes):
            return _explain_state_operator(
                system, formula, point, verdict, "believes"
            )
        if isinstance(formula, Everyone):
            return _explain_everyone(system, formula, point, verdict)
        if isinstance(formula, Common):
            return _explain_fixpoint(system, formula, point, verdict, "common")
        if isinstance(formula, EventualCommon):
            return _explain_fixpoint(
                system, formula, point, verdict, "eventual"
            )
        if isinstance(formula, ContinualCommon):
            if formula.operand.is_run_level() and not formula.force_fixpoint:
                return _explain_components(system, formula, point, verdict)
            return _explain_fixpoint(
                system, formula, point, verdict, "continual"
            )
        explanation = Explanation(
            kind="generic",
            formula=_describe(formula),
            point=point,
            verdict=verdict,
            _formula=formula,
        )
        explanation.notes.append(
            f"no structural evidence for {type(formula).__name__}; "
            "verdict re-checked only"
        )
        return explanation


# -- rendering ---------------------------------------------------------------

def render_witness_table(explanation: Explanation) -> str:
    """Plain-text table of the indistinguishability chain."""
    from ..metrics.tables import render_table

    rows = [
        [
            index,
            step.processor,
            f"({step.from_point[0]},{step.from_point[1]})",
            f"({step.to_point[0]},{step.to_point[1]})",
            step.view,
        ]
        for index, step in enumerate(explanation.chain)
    ]
    return render_table(
        ["step", "processor", "from (r,m)", "to (r,m)", "shared view"], rows
    )


def render_explanation(explanation: Explanation) -> str:
    """Full plain-text report for one explanation."""
    status = "HOLDS" if explanation.verdict else "FAILS"
    lines = [
        f"{explanation.formula} at point "
        f"({explanation.point[0]},{explanation.point[1]}): {status} "
        f"[{explanation.kind}]"
    ]
    if explanation.eliminated_at is not None:
        lines.append(
            f"eliminated at fixpoint iteration {explanation.eliminated_at} "
            f"of {explanation.iterations}"
        )
    elif explanation.iterations is not None:
        lines.append(f"fixpoint converged in {explanation.iterations} "
                     "iteration(s)")
    if explanation.component_runs is not None:
        preview = ", ".join(str(r) for r in explanation.component_runs[:12])
        more = (
            f", … ({len(explanation.component_runs)} runs)"
            if len(explanation.component_runs) > 12
            else ""
        )
        lines.append(f"S-□-reachability component: [{preview}{more}]")
    if explanation.chain:
        lines.append("indistinguishability chain:")
        lines.append(render_witness_table(explanation))
    if explanation.witness is not None:
        lines.append(
            f"counterexample point: ({explanation.witness[0]},"
            f"{explanation.witness[1]})"
        )
    lines.extend(f"note: {note}" for note in explanation.notes)
    return "\n".join(lines)


# -- experiment catalog ------------------------------------------------------

@dataclass
class CatalogEntry:
    """One explainable formula tied to an experiment's systems."""

    key: str
    experiment_id: str
    mode: str
    description: str
    build: Callable[[System], Formula]


def _e5_cbox_zero(system: System) -> Formula:
    from ..protocols.f_lambda import f_lambda_sequence
    from ..protocols.fip import fip
    from .formulas import Exists
    from .nonrigid import nonfaulty_and_ones

    _, _, second = f_lambda_sequence(system)
    sticky = fip(second).sticky_pair(system)
    return ContinualCommon(nonfaulty_and_ones(sticky), Exists(0))


def _e5_prop43a_belief(system: System) -> Formula:
    from ..core.optimality import proposition_4_3_conditions
    from ..protocols.f_lambda import f_lambda_sequence
    from ..protocols.fip import fip

    _, _, second = f_lambda_sequence(system)
    sticky = fip(second).sticky_pair(system)
    condition_a, _ = proposition_4_3_conditions(sticky)
    implication = condition_a(0)
    return implication.consequent


def _catalog() -> Dict[str, Dict[str, CatalogEntry]]:
    from .formulas import Exists
    from .nonrigid import NONFAULTY

    entries = [
        CatalogEntry(
            "common-exists1", "E4", "crash",
            "C_N ∃1 — common knowledge among the nonfaulty",
            lambda system: Common(NONFAULTY, Exists(1)),
        ),
        CatalogEntry(
            "continual-exists1", "E4", "crash",
            "C□_N ∃1 via Corollary 3.3 components",
            lambda system: ContinualCommon(NONFAULTY, Exists(1)),
        ),
        CatalogEntry(
            "continual-exists1-fixpoint", "E4", "crash",
            "C□_N ∃1 via the greatest-fixed-point definition",
            lambda system: ContinualCommon(
                NONFAULTY, Exists(1), force_fixpoint=True
            ),
        ),
        CatalogEntry(
            "everyone-exists1", "E4", "crash",
            "E_N ∃1 — everyone nonfaulty believes ∃1",
            lambda system: Everyone(NONFAULTY, Exists(1)),
        ),
        CatalogEntry(
            "cbox-zero-flambda2", "E5", "crash",
            "C□_{N∧O} ∃0 for F^{Λ,2}'s sticky pair (Prop 4.3(a) core)",
            _e5_cbox_zero,
        ),
        CatalogEntry(
            "prop43a-belief", "E5", "crash",
            "B_0^N(∃0 ∧ C□_{N∧O}∃0 ∧ ¬decide_0(1)) — Prop 4.3(a) consequent",
            _e5_prop43a_belief,
        ),
        CatalogEntry(
            "eventual-exists1", "E21", "crash",
            "C◇_N ∃1 — eventual common knowledge",
            lambda system: EventualCommon(NONFAULTY, Exists(1)),
        ),
        CatalogEntry(
            "knows0-exists1", "E21", "crash",
            "K_0 ∃1 — plain knowledge baseline",
            lambda system: Knows(0, Exists(1)),
        ),
    ]
    catalog: Dict[str, Dict[str, CatalogEntry]] = {}
    for entry in entries:
        catalog.setdefault(entry.experiment_id, {})[entry.key] = entry
    return catalog


#: ``experiment id -> formula key -> entry`` for the CLI and tests.
EXPLAIN_CATALOG = _catalog()


def catalog_system(entry: CatalogEntry, n: int = 3, t: int = 1) -> System:
    """The exhaustive system an entry's formula is evaluated over."""
    from ..model.builder import crash_system, omission_system

    if entry.mode == "omission":
        return omission_system(n, t)
    return crash_system(n, t)


def default_point(system: System, formula: Formula) -> Point:
    """The first point where the formula fails, else ``(0, 0)``.

    Failures carry the richer evidence (chains + counterexamples), so the
    CLI defaults there.
    """
    truth = formula.evaluate(system)
    for run_index in range(len(system.runs)):
        for time in range(system.horizon + 1):
            if not truth.at(run_index, time):
                return (run_index, time)
    return (0, 0)
