"""Per-point oracles for the builder and the evaluators that read the
view-id matrix.

Production builds every system arrays-first
(``repro.model.fastbuild.build_arrays``) and builds its ``Run`` objects
and view table from the arrays on first read.  :func:`build_graph` is the
object-graph builder that replaced: one :func:`build_run` per scenario,
each interning its views point by point into a shared
:class:`~repro.model.views.ViewTable`; :func:`project` projects such a
graph onto :class:`~repro.model.partition.SystemArrays`.  Production's
arrays, runs and table must equal theirs.

Production computes nonrigid membership, Corollary 3.3 components and
FIP first decisions in vectorized passes over a system's
:class:`~repro.model.partition.SystemArrays`.  The functions here are the
per-point walks over the object graph (runs, the same-state index, the
view table) that those passes replaced, kept as the differential oracle:

* :func:`state_index`, :func:`scenario_index` — the per-point and
  per-run walks that ``System.same_state_points`` and
  ``System.run_index_for`` replace;
* :func:`members_matrix` — the member-matrix scatters of ``N``,
  ``EVERYONE``, constant sets and ``N ∧ A``;
* :func:`components` — the Corollary 3.3 union-find over the same-state
  index;
* :func:`first_times`, :func:`decision_for`, :func:`conflicts`,
  :func:`sticky_pair` — the reference firing-table scan of
  ``FIP(Z, O)`` and what it derives.

The outcome readers — the specification checkers, ``compare``,
``equivalent_decisions``, the [DS82] reports, the decision statistics
and the outcome checks of experiments E1, E10 and E17 — are kept as the
per-run walks over :class:`~repro.core.outcomes.RunOutcome` objects
that the decision-table passes replaced.

:func:`rows_digest` is the served verdict digest as first written, one
JSON token per point, which ``repro.serve.session.verdict_digest``
renders from the packed bits instead.

:func:`evaluate` is the reference evaluator: the truth of a formula at
every point, as ``rows[run][time]`` lists of ``bool``, computed point by
point from the definitions of Section 3 over the runs, the same-state
index and the member matrix above.  The limb kernel of
``repro.knowledge.semantics`` must agree with it on every formula;
:func:`pair_from_formulas` is the per-point state walk that builds a
decision pair from its rows.

:func:`eig_resolve` is the recursive strict-majority resolution of a
Byzantine EIG tree, which ``EIGTree.resolve`` computes bottom-up over
per-``(n, t)`` level tables.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.core.decision_sets import DecisionPair, close_under_recall
from repro.errors import ConfigurationError
from repro.knowledge import formulas as F
from repro.knowledge.nonrigid import (
    ConstantSet,
    Everyone,
    Nonfaulty,
    NonfaultyAndDeciding,
    NonrigidSet,
)
from repro.model.config import all_configurations
from repro.model.partition import SystemArrays
from repro.model.runs import Run
from repro.model.views import ViewTable

Matrix = List[List[FrozenSet[int]]]


# -- the object-graph builder -------------------------------------------------


def build_run(config, pattern, horizon: int, table: ViewTable) -> Run:
    """Execute the full-information protocol and record the resulting run.

    Every processor — faulty ones included — sends its current state to all
    others each round; the failure pattern filters which messages arrive.
    Crashed processors keep "receiving" in the model (their post-crash state
    is never observed by anyone, so this choice is inconsequential), which
    keeps the state evolution uniform.
    """
    n = config.n
    if horizon < 1:
        raise ConfigurationError(f"need horizon >= 1, got {horizon}")
    run = Run(config=config, pattern=pattern, horizon=horizon)
    run.nonfaulty = pattern.nonfaulty(n)

    current = [
        table.leaf(processor, config.value_of(processor))
        for processor in range(n)
    ]
    run.views.append(tuple(current))

    for round_number in range(1, horizon + 1):
        delivered_per_receiver = []
        next_views = []
        for receiver in range(n):
            heard = {}
            for sender in range(n):
                if sender == receiver:
                    continue
                if pattern.delivered(sender, receiver, round_number):
                    heard[sender] = current[sender]
            delivered_per_receiver.append(frozenset(heard))
            next_views.append(table.extend(current[receiver], heard))
        run.deliveries.append(tuple(delivered_per_receiver))
        current = next_views
        run.views.append(tuple(current))
    return run


class GraphSystem:
    """A system as its object graph: the runs, in scenario-grid order
    (configurations outer), and the table their views are interned in."""

    def __init__(self, adversary, runs: List[Run], table: ViewTable) -> None:
        self.n = adversary.n
        self.t = adversary.t
        self.horizon = adversary.horizon
        self.mode = adversary.mode
        self.runs = runs
        self.table = table

    def scenarios(self) -> List[tuple]:
        return [run.scenario_key() for run in self.runs]


def build_graph(adversary, *, configs=None) -> GraphSystem:
    """The object graph of *adversary*'s system over *configs* (all
    ``2**n`` by default): one :func:`build_run` per scenario."""
    if configs is None:
        configs = all_configurations(adversary.n)
    patterns = list(adversary.patterns())
    table = ViewTable()
    runs = [
        build_run(config, pattern, adversary.horizon, table)
        for config in configs
        for pattern in patterns
    ]
    return GraphSystem(adversary, runs, table)


def project(system: GraphSystem) -> SystemArrays:
    """Project an object graph onto arrays (one pass over runs and table)."""
    n, horizon = system.n, system.horizon
    runs, table = system.runs, system.table
    infos = [table.info(view) for view in range(len(table))]
    views = np.array([run.views for run in runs], dtype=np.int32)
    deliveries = np.zeros((len(runs), horizon, n, n), dtype=bool)
    for index, run in enumerate(runs):
        for m in range(horizon):
            for receiver, senders in enumerate(run.deliveries[m]):
                deliveries[index, m, receiver, list(senders)] = True
    diagonal = np.arange(n)
    deliveries[:, :, diagonal, diagonal] = True
    occurs = np.zeros(len(table), dtype=bool)
    occurs[views.ravel()] = True
    return SystemArrays(
        mode=system.mode.value,
        n=n,
        t=system.t,
        horizon=horizon,
        num_views=len(table),
        views=views,
        owner=np.array([info.processor for info in infos], dtype=np.int32),
        vtime=np.array([info.time for info in infos], dtype=np.int16),
        prev=np.array(
            [-1 if info.previous is None else info.previous for info in infos],
            dtype=np.int32,
        ),
        init=np.array([run.config.values for run in runs], dtype=np.int8),
        nonfaulty=np.array(
            [[p in run.nonfaulty for p in range(n)] for run in runs],
            dtype=bool,
        ),
        deliveries=deliveries,
        occurs=occurs,
    )


# -- indexes ------------------------------------------------------------------


def state_index(system) -> Dict[int, List[Tuple[int, int]]]:
    """View id -> the points holding it, both in scan order (run, time,
    processor)."""
    index: Dict[int, List[Tuple[int, int]]] = {}
    for run_index, run in enumerate(system.runs):
        for time, row in enumerate(run.views):
            for view in row:
                index.setdefault(view, []).append((run_index, time))
    return index


def scenario_index(system) -> Dict[tuple, int]:
    """``(config, pattern)`` -> run index."""
    return {run.scenario_key(): index for index, run in enumerate(system.runs)}


# -- nonrigid membership ------------------------------------------------------


def members_matrix(system, nonrigid: NonrigidSet) -> Matrix:
    """``matrix[run][time]``: the members of *nonrigid* at each point."""
    width = system.horizon + 1
    if isinstance(nonrigid, Nonfaulty):
        return [[run.nonfaulty] * width for run in system.runs]
    if isinstance(nonrigid, Everyone):
        everyone = frozenset(range(system.n))
        return [[everyone] * width for _ in system.runs]
    if isinstance(nonrigid, ConstantSet):
        return [[nonrigid.processors] * width for _ in system.runs]
    if isinstance(nonrigid, NonfaultyAndDeciding):
        # Each occurring view in A deposits its nonfaulty owner at the
        # view's occurrence points.
        pair = nonrigid.pair
        states = pair.zeros if nonrigid.which == "zeros" else pair.ones
        empty: FrozenSet[int] = frozenset()
        matrix = [[empty] * width for _ in system.runs]
        for view, points in state_index(system).items():
            if view not in states:
                continue
            owner = system.table.info(view).processor
            for run_index, time in points:
                if owner in system.runs[run_index].nonfaulty:
                    row = matrix[run_index]
                    row[time] = row[time] | frozenset((owner,))
        return matrix
    raise TypeError(f"no oracle for {nonrigid!r}")


# -- Corollary 3.3 components -------------------------------------------------


class UnionFind:
    """Minimal union-find over run indices (path halving + union by size)."""

    def __init__(self, size: int) -> None:
        self.parent = list(range(size))
        self.size = [1] * size

    def find(self, item: int) -> int:
        parent = self.parent
        while parent[item] != item:
            parent[item] = parent[parent[item]]
            item = parent[item]
        return item

    def union(self, a: int, b: int) -> None:
        root_a, root_b = self.find(a), self.find(b)
        if root_a == root_b:
            return
        if self.size[root_a] < self.size[root_b]:
            root_a, root_b = root_b, root_a
        self.parent[root_b] = root_a
        self.size[root_a] += self.size[root_b]


def components(system, nonrigid: NonrigidSet) -> List[int]:
    """Per-run component representative of the S-□-reachability relation,
    ``-1`` for runs with no ``S`` occurrence.

    Walks the same-state index, linking every run in a view's occurrence
    list — restricted to points where the view's owner is a member — to
    the first such run.
    """
    members = members_matrix(system, nonrigid)
    uf = UnionFind(len(system.runs))
    has_occurrence = [False] * len(system.runs)
    for view, points in state_index(system).items():
        owner = system.table.info(view).processor
        anchor = -1
        for run_index, time in points:
            if owner in members[run_index][time]:
                has_occurrence[run_index] = True
                if anchor < 0:
                    anchor = run_index
                else:
                    uf.union(anchor, run_index)
    return [
        uf.find(run_index) if has_occurrence[run_index] else -1
        for run_index in range(len(system.runs))
    ]


# -- FIP(Z, O) ----------------------------------------------------------------

FirstTimes = List[List[Tuple[Optional[int], Optional[int]]]]


def first_times(system, pair: DecisionPair) -> FirstTimes:
    """Per ``(run, processor)``: the zero/one firing times at the first
    time either set is entered (``None`` for a set not entered then)."""
    table: FirstTimes = []
    for run in system.runs:
        row = []
        for processor in range(system.n):
            zero_time: Optional[int] = None
            one_time: Optional[int] = None
            for time in range(system.horizon + 1):
                view = run.view(processor, time)
                if pair.decides_zero(view):
                    zero_time = time
                if pair.decides_one(view):
                    one_time = time
                if zero_time is not None or one_time is not None:
                    break
            row.append((zero_time, one_time))
        table.append(row)
    return table


def decision_for(times: FirstTimes, run_index: int, processor: int):
    """The first decision ``(value, time)``, ties won by 0, or ``None``."""
    zero_time, one_time = times[run_index][processor]
    if zero_time is not None:
        return (0, zero_time)
    if one_time is not None:
        return (1, one_time)
    return None


def conflicts(times: FirstTimes) -> List[Tuple[int, int, int]]:
    """``(run, processor, time)`` where both sets are first entered at once."""
    return [
        (run_index, processor, zero_time)
        for run_index, row in enumerate(times)
        for processor, (zero_time, one_time) in enumerate(row)
        if zero_time is not None and zero_time == one_time
    ]


def sticky_pair(system, pair: DecisionPair) -> Tuple[frozenset, frozenset]:
    """The zero and one sets of the "decides or has decided" pair: the
    first-decision views, closed under recall over the view table."""
    times = first_times(system, pair)
    zero_triggers, one_triggers = [], []
    for run_index, run in enumerate(system.runs):
        for processor in range(system.n):
            record = decision_for(times, run_index, processor)
            if record is not None:
                value, time = record
                sink = zero_triggers if value == 0 else one_triggers
                sink.append(run.view(processor, time))
    states = list(system.occurring_views())
    return (
        close_under_recall(zero_triggers, states, system.table),
        close_under_recall(one_triggers, states, system.table),
    )


# -- served verdict digest ----------------------------------------------------


def rows_digest(rows) -> str:
    """SHA-256 of the compact JSON of per-run rows."""
    blob = json.dumps(rows, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# -- reference evaluator ------------------------------------------------------

Rows = List[List[bool]]


def evaluate(formula, system) -> Rows:
    """The truth of *formula* at every point of *system*, point by point.

    ``C□`` is evaluated by its fixpoint definition whether or not the
    formula would take the Corollary 3.3 component path.  A
    :class:`~repro.knowledge.formulas.Predicate` is an escape hatch
    computed outside the logic, so its rows are its own.
    """
    return _Reference(system).rows(formula)


class _Reference:
    def __init__(self, system) -> None:
        self.system = system
        self.runs = list(system.runs)
        self.width = system.horizon + 1
        self.same_state = state_index(system)
        self._members: Dict[object, Matrix] = {}

    # -- helpers -----------------------------------------------------------

    def build(self, value) -> Rows:
        """Rows of ``value(run_index, time)``."""
        return [
            [bool(value(run_index, time)) for time in range(self.width)]
            for run_index in range(len(self.runs))
        ]

    def members(self, nonrigid: NonrigidSet) -> Matrix:
        key = nonrigid.cache_key()
        if key not in self._members:
            self._members[key] = members_matrix(self.system, nonrigid)
        return self._members[key]

    # -- operators ---------------------------------------------------------

    def believes(self, processor: int, phi: Rows, members: Optional[Matrix]):
        """``B_i^S φ``; ``K_i φ`` when *members* is ``None``."""
        verdicts: Dict[int, bool] = {}
        runs = self.runs

        def value(run_index, time):
            view = runs[run_index].view(processor, time)
            if view not in verdicts:
                verdicts[view] = all(
                    phi[other_run][other_time]
                    for other_run, other_time in self.same_state[view]
                    if members is None
                    or processor in members[other_run][other_time]
                )
            return verdicts[view]

        return self.build(value)

    def everyone(self, nonrigid: NonrigidSet, phi: Rows) -> Rows:
        members = self.members(nonrigid)
        beliefs = [
            self.believes(processor, phi, members)
            for processor in range(self.system.n)
        ]
        return self.build(
            lambda r, m: all(beliefs[p][r][m] for p in members[r][m])
        )

    def always(self, phi: Rows) -> Rows:
        return self.build(lambda r, m: all(phi[r][m:]))

    def eventually(self, phi: Rows) -> Rows:
        return self.build(lambda r, m: any(phi[r][m:]))

    def at_all_times(self, phi: Rows) -> Rows:
        return self.build(lambda r, m: all(phi[r]))

    def fixpoint(self, nonrigid: NonrigidSet, phi: Rows, post) -> Rows:
        """Greatest fixed point of ``X ↔ post(E_S(φ ∧ X))``, iterated
        down from all-true."""
        current = self.build(lambda r, m: True)
        while True:
            operand = self.build(lambda r, m: phi[r][m] and current[r][m])
            candidate = post(self.everyone(nonrigid, operand))
            if candidate == current:
                return current
            current = candidate

    def rows(self, formula) -> Rows:
        f = formula
        runs = self.runs
        if isinstance(f, F.TrueFormula):
            return self.build(lambda r, m: True)
        if isinstance(f, F.FalseFormula):
            return self.build(lambda r, m: False)
        if isinstance(f, F.Exists):
            return self.build(lambda r, m: f.value in runs[r].config.values)
        if isinstance(f, F.AllStarted):
            return self.build(
                lambda r, m: all(v == f.value for v in runs[r].config.values)
            )
        if isinstance(f, F.IsNonfaulty):
            return self.build(lambda r, m: f.processor in runs[r].nonfaulty)
        if isinstance(f, F.InitialValueIs):
            return self.build(
                lambda r, m: runs[r].config.values[f.processor] == f.value
            )
        if isinstance(f, F.Decided):
            states = f.pair.zeros if f.value == 0 else f.pair.ones
            return self.build(
                lambda r, m: runs[r].view(f.processor, m) in states
            )
        if isinstance(f, F.SetEmpty):
            members = self.members(f.nonrigid)
            return self.build(lambda r, m: not members[r][m])
        if isinstance(f, F.Predicate):
            return f._compute(self.system).to_rows()
        if isinstance(f, F.Not):
            phi = self.rows(f.operand)
            return self.build(lambda r, m: not phi[r][m])
        if isinstance(f, (F.And, F.Or)):
            parts = [self.rows(operand) for operand in f.operands]
            combine = all if isinstance(f, F.And) else any
            return self.build(
                lambda r, m: combine(part[r][m] for part in parts)
            )
        if isinstance(f, F.Implies):
            left, right = self.rows(f.antecedent), self.rows(f.consequent)
            return self.build(lambda r, m: not left[r][m] or right[r][m])
        if isinstance(f, F.Iff):
            left, right = self.rows(f.left), self.rows(f.right)
            return self.build(lambda r, m: left[r][m] == right[r][m])
        if isinstance(f, F.Knows):
            return self.believes(f.processor, self.rows(f.operand), None)
        if isinstance(f, F.Believes):
            return self.believes(
                f.processor, self.rows(f.operand), self.members(f.nonrigid)
            )
        if isinstance(f, F.Everyone):
            return self.everyone(f.nonrigid, self.rows(f.operand))
        if isinstance(f, F.EveryoneBox):
            return self.at_all_times(
                self.everyone(f.nonrigid, self.rows(f.operand))
            )
        if isinstance(f, F.Always):
            return self.always(self.rows(f.operand))
        if isinstance(f, F.Eventually):
            return self.eventually(self.rows(f.operand))
        if isinstance(f, F.AtAllTimes):
            return self.at_all_times(self.rows(f.operand))
        if isinstance(f, F.Common):
            return self.fixpoint(
                f.nonrigid, self.rows(f.operand), lambda x: x
            )
        if isinstance(f, F.ContinualCommon):
            return self.fixpoint(
                f.nonrigid, self.rows(f.operand), self.at_all_times
            )
        if isinstance(f, F.EventualCommon):
            return self.fixpoint(
                f.nonrigid, self.rows(f.operand), self.eventually
            )
        raise TypeError(f"no oracle for {formula!r}")


def pair_from_formulas(system, zero_formula, one_formula):
    """The ``(zeros, ones)`` sets of the decision pair whose processor
    ``i`` joins ``Z`` (``O``) at the states where ``zero_formula(i)``
    (``one_formula(i)``) holds, closed under recall.  Raises
    :class:`ValueError` when a formula evaluates both ways at one state.
    """
    reference = _Reference(system)
    runs = reference.runs
    sets = []
    for factory in (zero_formula, one_formula):
        triggers = []
        for processor in range(system.n):
            truth = reference.rows(factory(processor))
            by_state: Dict[int, bool] = {}
            for run_index, run in enumerate(runs):
                for time in range(system.horizon + 1):
                    view = run.view(processor, time)
                    value = truth[run_index][time]
                    if by_state.setdefault(view, value) != value:
                        raise ValueError(
                            f"state {view} of processor {processor} "
                            f"evaluates both ways"
                        )
            triggers.extend(view for view, value in by_state.items() if value)
        sets.append(
            close_under_recall(
                triggers, list(system.occurring_views()), system.table
            )
        )
    return tuple(sets)


# -- protocol outcome readers -------------------------------------------------
#
# The per-run walks over ``RunOutcome`` objects that the decision-table
# readers of ``repro.core.specs``, ``repro.core.domination``,
# ``repro.core.lower_bounds``, ``repro.metrics.stats`` and experiments E1,
# E10 and E17 replaced.  They iterate an outcome (``for run in outcome``)
# and look runs up by scenario (``outcome.get``), so they read the
# per-run view, never the table.


def _describe(run) -> str:
    return f"config={run.config} pattern={run.pattern}"


def check_decision(outcome) -> List[str]:
    violations = []
    for run in outcome:
        for processor in sorted(run.nonfaulty):
            if run.decisions[processor] is None:
                violations.append(
                    f"[decision] processor {processor} undecided by time "
                    f"{run.horizon} in {_describe(run)}"
                )
    return violations


def check_weak_agreement(outcome) -> List[str]:
    violations = []
    for run in outcome:
        values = {
            run.decision_value(processor)
            for processor in run.nonfaulty
            if run.decisions[processor] is not None
        }
        if len(values) > 1:
            violations.append(
                f"[weak-agreement] nonfaulty decisions {sorted(values)} "
                f"in {_describe(run)}"
            )
    return violations


def check_weak_validity(outcome) -> List[str]:
    from repro.core.values import all_same

    violations = []
    for run in outcome:
        unanimous = all_same(run.config.values)
        if unanimous is None:
            continue
        for processor in sorted(run.nonfaulty):
            record = run.decisions[processor]
            if record is not None and record[0] != unanimous:
                violations.append(
                    f"[weak-validity] processor {processor} decided "
                    f"{record[0]} despite unanimous {unanimous} in "
                    f"{_describe(run)}"
                )
    return violations


def check_validity(outcome) -> List[str]:
    from repro.core.values import all_same

    violations = check_weak_validity(outcome)
    for run in outcome:
        if all_same(run.config.values) is None:
            continue
        for processor in sorted(run.nonfaulty):
            if run.decisions[processor] is None:
                violations.append(
                    f"[validity] processor {processor} undecided under "
                    f"unanimous input in {_describe(run)}"
                )
    return violations


def check_uniform_agreement(outcome) -> List[str]:
    violations = []
    for run in outcome:
        values = {
            record[0]
            for record in run.acted_decisions().values()
            if record is not None
        }
        if len(values) > 1:
            violations.append(
                f"[uniform-agreement] decisions {sorted(values)} "
                f"(faulty included) in {_describe(run)}"
            )
    return violations


def check_simultaneity(outcome) -> List[str]:
    violations = []
    for run in outcome:
        times = {
            run.decision_time(processor)
            for processor in run.nonfaulty
            if run.decisions[processor] is not None
        }
        if len(times) > 1:
            violations.append(
                f"[simultaneity] nonfaulty decision times {sorted(times)} "
                f"in {_describe(run)}"
            )
    return violations


SPEC_CHECKS = (
    "check_decision",
    "check_weak_agreement",
    "check_weak_validity",
    "check_validity",
    "check_uniform_agreement",
    "check_simultaneity",
)


def _same_space(outcome_a, outcome_b) -> List[tuple]:
    """The scenarios of *outcome_a*, all of which *outcome_b* holds too
    (``ValueError`` when the two spaces differ)."""
    keys_b = set(outcome_b.scenario_keys())
    common = [key for key in outcome_a.scenario_keys() if key in keys_b]
    if len(common) != len(outcome_a) or len(common) != len(outcome_b):
        raise ValueError("scenario spaces differ")
    return common


def compare(outcome_a, outcome_b, max_witnesses: int = 25):
    """The :class:`~repro.core.domination.DominationReport` of *a* against
    *b*, its verdict over every sample and its witness lists capped."""
    from repro.core.domination import DominationReport, DominationWitness

    common = _same_space(outcome_a, outcome_b)
    later, earlier = [], []
    for key in common:
        run_a = outcome_a.get(key)
        run_b = outcome_b.get(key)
        for processor in sorted(run_a.nonfaulty):
            time_a = run_a.decision_time(processor)
            time_b = run_b.decision_time(processor)
            effective_a = float("inf") if time_a is None else time_a
            effective_b = float("inf") if time_b is None else time_b
            witness = DominationWitness(key, processor, time_a, time_b)
            if effective_a > effective_b:
                later.append(witness)
            elif effective_a < effective_b:
                earlier.append(witness)
    return DominationReport(
        name_a=outcome_a.name,
        name_b=outcome_b.name,
        dominates=not later,
        strict=not later and bool(earlier),
        counterexamples=later[:max_witnesses],
        improvements=earlier[:max_witnesses],
        scenarios_compared=len(common),
    )


def equivalent_decisions(outcome_a, outcome_b, nonfaulty_only=True):
    differences = []
    for key in _same_space(outcome_a, outcome_b):
        run_a = outcome_a.get(key)
        run_b = outcome_b.get(key)
        processors = (
            sorted(run_a.nonfaulty) if nonfaulty_only else range(run_a.n)
        )
        for processor in processors:
            if run_a.decisions[processor] != run_b.decisions[processor]:
                if len(differences) < 25:
                    config, pattern = key
                    differences.append(
                        f"processor {processor}: "
                        f"{run_a.decisions[processor]} vs "
                        f"{run_b.decisions[processor]} "
                        f"(config={config}, pattern={pattern})"
                    )
    return (not differences, differences)


def worst_case_decision_time(outcome):
    from repro.core.lower_bounds import WorstCaseReport

    worst = -1
    witness = None
    undecided = 0
    for run in outcome:
        for processor in sorted(run.nonfaulty):
            record = run.decisions[processor]
            if record is None:
                undecided += 1
                continue
            if record[1] > worst:
                worst = record[1]
                witness = (run.scenario_key(), processor)
    return WorstCaseReport(
        protocol_name=outcome.name,
        worst_time=worst,
        witness=witness,
        undecided=undecided,
    )


def max_gap_behind_races(outcome, race_zero, race_one):
    from repro.core.lower_bounds import RaceGapReport

    max_gap = -(10**9)
    witness = None
    for key in outcome.scenario_keys():
        run = outcome.get(key)
        run_zero = race_zero.get(key)
        run_one = race_one.get(key)
        for processor in sorted(run.nonfaulty):
            reference_times = [
                record[1]
                for record in (
                    run_zero.decisions[processor],
                    run_one.decisions[processor],
                )
                if record is not None
            ]
            if not reference_times:
                continue
            record = run.decisions[processor]
            time = run.horizon + 1 if record is None else record[1]
            gap = time - min(reference_times)
            if gap > max_gap:
                max_gap = gap
                witness = (key, processor)
    return RaceGapReport(
        protocol_name=outcome.name, max_gap=max_gap, witness=witness
    )


def check_ds82_bounds(outcome, race_zero, race_one, t) -> List[str]:
    problems = []
    worst = worst_case_decision_time(outcome)
    if not worst.meets_t_plus_1(t):
        problems.append(
            f"{outcome.name}: worst-case decision time {worst.worst_time} "
            f"< t + 1 = {t + 1} over an exhaustive space"
        )
    gap = max_gap_behind_races(outcome, race_zero, race_one)
    if gap.max_gap < t + 1:
        problems.append(
            f"{outcome.name}: max lag behind min(P0, P1) is {gap.max_gap} "
            f"< t + 1 = {t + 1}"
        )
    return problems


def _nonfaulty_times(outcome) -> Tuple[List[int], int]:
    times, undecided = [], 0
    for run in outcome:
        for processor in sorted(run.nonfaulty):
            record = run.decisions[processor]
            if record is None:
                undecided += 1
            else:
                times.append(record[1])
    return times, undecided


def decision_time_stats(outcome):
    from repro.metrics.stats import DecisionTimeStats

    times, undecided = _nonfaulty_times(outcome)
    histogram: Dict[int, int] = {}
    for time in times:
        histogram[time] = histogram.get(time, 0) + 1
    return DecisionTimeStats(
        protocol_name=outcome.name,
        count=len(times) + undecided,
        undecided=undecided,
        mean=(sum(times) / len(times)) if times else None,
        maximum=max(times) if times else None,
        minimum=min(times) if times else None,
        histogram=tuple(sorted(histogram.items())),
    )


def mean_decision_gap(slower, faster) -> Optional[float]:
    keys_slow = set(slower.scenario_keys())
    gaps = []
    for key in faster.scenario_keys():
        if key not in keys_slow:
            continue
        run_fast = faster.get(key)
        run_slow = slower.get(key)
        for processor in sorted(run_fast.nonfaulty):
            fast_time = run_fast.decision_time(processor)
            slow_time = run_slow.decision_time(processor)
            if fast_time is not None and slow_time is not None:
                gaps.append(slow_time - fast_time)
    return sum(gaps) / len(gaps) if gaps else None


def per_time_cumulative_share(outcome, max_time: int) -> List[float]:
    times, undecided = _nonfaulty_times(outcome)
    total = len(times) + undecided
    if total == 0:
        return [0.0] * (max_time + 1)
    return [
        sum(1 for time in times if time <= cutoff) / total
        for cutoff in range(max_time + 1)
    ]


def worst_by_f(outcome) -> Dict[int, int]:
    """E10's table: per fault count, the latest nonfaulty decision time
    (``10**9`` when a run with that many faults leaves one undecided)."""
    worst: Dict[int, int] = {}
    for run in outcome:
        f = run.pattern.num_faulty()
        latest = run.max_nonfaulty_decision_time()
        if latest is None:
            worst[f] = 10**9
        else:
            worst[f] = max(worst.get(f, 0), latest)
    return worst


def time0_favored_ok(outcome, favored) -> bool:
    """E1's check: every nonfaulty holder of *favored* decides it at 0."""
    for run in outcome:
        for processor in run.nonfaulty:
            if run.config.value_of(processor) == favored:
                if run.decisions[processor] != (favored, 0):
                    return False
    return True


def same_decisions(multi_outcome, binary_outcome) -> bool:
    """E17's check: nonfaulty decisions equal across the two config
    types, matched by initial values and pattern."""
    binary_by_values = {
        (run.config.values, run.pattern): run for run in binary_outcome
    }
    for run in multi_outcome:
        twin = binary_by_values.get((run.config.values, run.pattern))
        if twin is None:
            return False
        for processor in run.nonfaulty:
            if run.decisions[processor] != twin.decisions[processor]:
                return False
    return True


# -- Byzantine EIG --------------------------------------------------------------


def eig_resolve(tree, path=()) -> int:
    """``newval`` of [Lynch] at *path* of an ``EIGTree``, by recursion."""
    from repro.byzantine.eig import DEFAULT_VALUE

    if len(path) == tree.t + 1:
        return tree.claims.get(path, DEFAULT_VALUE)
    children = [
        eig_resolve(tree, path + (child,))
        for child in range(tree.n)
        if child not in path
    ]
    if not children:
        return tree.claims.get(path, DEFAULT_VALUE)
    counts: Dict[int, int] = {}
    for value in children:
        counts[value] = counts.get(value, 0) + 1
    best = max(counts.values())
    winners = [value for value, count in counts.items() if count == best]
    if len(winners) == 1 and best * 2 > len(children):
        return winners[0]
    return DEFAULT_VALUE
