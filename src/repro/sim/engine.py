"""The synchronous round-based execution engine (paper, Section 2.3).

Executes a :class:`~repro.protocols.base.ConcreteProtocol` under initial
configurations and failure patterns:

* round ``k`` happens between times ``k - 1`` and ``k``;
* every processor first emits its round-``k`` messages from its time-
  ``k - 1`` state, the failure pattern drops the omitted/crashed ones, and
  each processor then transitions on what it received;
* decisions are read from the output function *at points* (times), matching
  the paper's convention that messages are sent *in rounds* and decisions
  are made *at times*.

Faulty processors run the same protocol code; only their outgoing messages
are filtered.  (In both failure modes of the paper the faulty processor's
*contents* are correct whenever a message is delivered — there is no
Byzantine corruption.)

**One transition per full-information view.**  A processor's
full-information view at time ``m`` is its view at time ``m - 1`` plus the
time-``m - 1`` views of the processors whose round-``m`` message reached
it.  By Proposition 2.2 that view determines the local state of every
deterministic protocol, so :class:`ScenarioViews` interns each (scenario,
time, processor) view of a scenario list once, and the engine runs a
protocol as one fold over those views: ``initial_state`` or ``transition``,
``messages`` and ``output`` run once per distinct view, however many
scenarios share it.  Protocol states are never hashed.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from .. import trace as spantrace
from ..core.outcomes import DecisionRecord, ProtocolOutcome, RunOutcome
from ..errors import ConfigurationError
from ..model.config import InitialConfiguration
from ..model.failures import FailurePattern, ProcessorId
from ..protocols.base import ConcreteProtocol
from .trace import Trace

ScenarioKey = Tuple[InitialConfiguration, FailurePattern]

#: One round's deliveries: per receiver, the receiver followed by the
#: senders whose message reaches it, ascending.
DeliveryRow = Tuple[Tuple[ProcessorId, ...], ...]


class _Level:
    """The distinct views of one time, and the scenario rows through them.

    View ``v`` belongs to processor ``owner[v]`` of an ``size[v]``-processor
    system.  At time 0 ``value[v]`` is its initial value; later ``prev[v]``
    is the owner's view one time earlier and ``heard[v]`` the views, one
    time earlier, of the senders whose message reached the owner, by
    ascending sender.  ``rows[r]`` holds one view per processor, and
    scenario ``s`` passes through row ``row_of[s]``.
    """

    __slots__ = ("owner", "size", "value", "prev", "heard", "rows", "row_of")

    def __init__(self) -> None:
        self.owner: List[ProcessorId] = []
        self.size: List[int] = []
        self.value: List[int] = []
        self.prev: List[int] = []
        self.heard: List[Tuple[int, ...]] = []
        self.rows: List[Tuple[int, ...]] = []
        self.row_of: List[int] = []

    def row_values(self, per_view: List[Any]) -> List[Tuple[Any, ...]]:
        """*per_view* gathered along each row."""
        return [tuple([per_view[view] for view in row]) for row in self.rows]

    def row_sums(self, per_view: List[int]) -> List[int]:
        """*per_view* summed over the views of each row."""
        return [sum([per_view[view] for view in row]) for row in self.rows]

    def scenario_total(self, per_row: List[int]) -> int:
        """*per_row* summed over the row of every scenario."""
        return sum(map(per_row.__getitem__, self.row_of))


class ScenarioViews(Sequence):
    """A scenario list together with its full-information view DAG.

    The sequence of its own ``(config, pattern)`` keys, so it is accepted
    wherever scenarios are.  Wrapping a list once lets every protocol run
    over it share one view DAG, which the first engine call builds from the
    delivery rows of each distinct ``(pattern, n)``.  The DAG is bound to
    *horizon* and *t*: an engine call with other values is rejected.

    Raises:
        ConfigurationError: for a horizon below 1 here; for a pattern with
            more than ``t`` faulty processors or a faulty id outside its
            configuration's ``range(n)`` when the DAG is built.
    """

    def __init__(
        self, scenarios: Iterable[ScenarioKey], horizon: int, t: int
    ) -> None:
        if horizon < 1:
            raise ConfigurationError(f"need horizon >= 1, got {horizon}")
        self._scenarios = list(scenarios)
        self.horizon = horizon
        self.t = t
        self._levels: Optional[List[_Level]] = None

    def __len__(self) -> int:
        return len(self._scenarios)

    def __getitem__(self, index):
        return self._scenarios[index]

    def __iter__(self) -> Iterator[ScenarioKey]:
        return iter(self._scenarios)

    def levels(self) -> List[_Level]:
        """The views of times ``0..horizon`` (built on first use)."""
        if self._levels is None:
            self._levels = self._build()
        return self._levels

    def view_count(self) -> int:
        """Distinct views over all times."""
        return sum(len(level.owner) for level in self.levels())

    def _build(self) -> List[_Level]:
        horizon = self.horizon
        # Per scenario, the ids of its rounds' delivery rows.
        plans: List[Tuple[int, ...]] = []
        plan_of: Dict[Tuple[FailurePattern, int], Tuple[int, ...]] = {}
        delivery_ids: Dict[DeliveryRow, int] = {}
        first = _Level()
        row_ids: Dict[Any, int] = {}
        views: Dict[Tuple[int, ...], int] = {}
        for config, pattern in self._scenarios:
            n = config.n
            plan = plan_of.get((pattern, n))
            if plan is None:
                pattern.validate(n, self.t)
                plan = plan_of[pattern, n] = tuple(
                    delivery_ids.setdefault(
                        _delivery_row(pattern, n, round_number),
                        len(delivery_ids),
                    )
                    for round_number in range(1, horizon + 1)
                )
            plans.append(plan)
            row = row_ids.get(config)
            if row is None:
                row = row_ids[config] = len(first.rows)
                first.rows.append(
                    tuple(
                        _intern_initial(first, views, i, n, config.value_of(i))
                        for i in range(n)
                    )
                )
            first.row_of.append(row)

        delivery_rows = list(delivery_ids)
        levels = [first]
        for step in range(horizon):
            below = levels[-1]
            level = _Level()
            row_ids = {}
            views = {}
            for below_row, plan in zip(below.row_of, plans):
                key = (below_row, plan[step])
                row = row_ids.get(key)
                if row is None:
                    row = row_ids[key] = len(level.rows)
                    level.rows.append(
                        _intern_row(
                            level, views, below.rows[below_row],
                            delivery_rows[plan[step]],
                        )
                    )
                level.row_of.append(row)
            levels.append(level)
        return levels


def _delivery_row(
    pattern: FailurePattern, n: int, round_number: int
) -> DeliveryRow:
    return tuple(
        (receiver,)
        + tuple(
            [
                sender
                for sender in range(n)
                if sender != receiver
                and pattern.delivered(sender, receiver, round_number)
            ]
        )
        for receiver in range(n)
    )


def _intern_initial(
    level: _Level, views: Dict[Tuple[int, ...], int],
    processor: ProcessorId, n: int, value: int,
) -> int:
    key = (n, processor, value)
    view = views.get(key)
    if view is None:
        view = views[key] = len(level.owner)
        level.owner.append(processor)
        level.size.append(n)
        level.value.append(value)
    return view


def _intern_row(
    level: _Level, views: Dict[Tuple[int, ...], int],
    below: Tuple[int, ...], deliveries: DeliveryRow,
) -> Tuple[int, ...]:
    """The next row after *below* under one round's *deliveries*.

    A view's key is its owner's previous view followed by the previous
    views it heard from; previous views name their owners, so the key is
    unambiguous.
    """
    n = len(below)
    row = []
    for receiver, sources in enumerate(deliveries):
        key = tuple([below[j] for j in sources])
        view = views.get(key)
        if view is None:
            view = views[key] = len(level.owner)
            level.owner.append(receiver)
            level.size.append(n)
            level.prev.append(key[0])
            level.heard.append(key[1:])
        row.append(view)
    return tuple(row)


class _Fold:
    """One protocol's results over a :class:`ScenarioViews`.

    ``decided[v]`` is the first decision along final view ``v``;
    ``sent[m][r]`` counts the round-``m + 1`` messages sent from row ``r``
    of time ``m``, ``received[m][r]`` those that reached row ``r`` of time
    ``m + 1``; ``states[m][v]`` is kept only when asked for.
    """

    __slots__ = ("decided", "sent", "received", "states")

    def __init__(self) -> None:
        self.decided: List[DecisionRecord] = []
        self.sent: List[List[int]] = []
        self.received: List[List[int]] = []
        self.states: List[List[Any]] = []


def _fold(
    protocol: ConcreteProtocol, views: ScenarioViews, keep_states: bool
) -> _Fold:
    """Run *protocol* once per distinct view, time by time.

    Without *keep_states* only one time's states and outboxes are alive at
    once.
    """
    levels = views.levels()
    messages, transition, output = (
        protocol.messages, protocol.transition, protocol.output,
    )
    result = _Fold()
    first = levels[0]
    states = [
        protocol.initial_state(processor, n, views.t, value)
        for processor, n, value in zip(first.owner, first.size, first.value)
    ]
    decided: List[DecisionRecord] = []
    for state in states:
        value = output(state)
        decided.append(None if value is None else (value, 0))
    for round_number in range(1, views.horizon + 1):
        if keep_states:
            result.states.append(states)
        below, level = levels[round_number - 1], levels[round_number]
        outboxes = []
        for state, sender, n in zip(states, below.owner, below.size):
            outbox = {
                destination: payload
                for destination, payload in messages(
                    state, round_number
                ).items()
                if payload is not None and destination != sender
            }
            for destination in outbox:
                if not 0 <= destination < n:
                    raise ConfigurationError(
                        f"{protocol.name}: processor {sender} addressed "
                        f"message to unknown destination {destination}"
                    )
            outboxes.append(outbox)
        result.sent.append(below.row_sums([len(box) for box in outboxes]))

        senders = below.owner
        next_states: List[Any] = []
        next_decided: List[DecisionRecord] = []
        received: List[int] = []
        for receiver, prev, heard in zip(level.owner, level.prev, level.heard):
            inbox = {}
            for view in heard:
                payload = outboxes[view].get(receiver)
                if payload is not None:
                    inbox[senders[view]] = payload
            state = transition(states[prev], round_number, inbox)
            record = decided[prev]
            if record is None:
                value = output(state)
                if value is not None:
                    record = (value, round_number)
            next_states.append(state)
            next_decided.append(record)
            received.append(len(inbox))
        result.received.append(level.row_sums(received))
        states, decided = next_states, next_decided
    if keep_states:
        result.states.append(states)
    result.decided = decided
    return result


def _bind(
    scenarios: Iterable[ScenarioKey], horizon: int, t: int
) -> ScenarioViews:
    """*scenarios* as views for *horizon* and *t*, wrapping a plain list."""
    if not isinstance(scenarios, ScenarioViews):
        return ScenarioViews(scenarios, horizon, t)
    if (scenarios.horizon, scenarios.t) != (horizon, t):
        raise ConfigurationError(
            f"scenario views built for horizon={scenarios.horizon}, "
            f"t={scenarios.t}; called with horizon={horizon}, t={t}"
        )
    return scenarios


def _annotate(span, views: ScenarioViews, folded: _Fold) -> None:
    """Batch totals: scenarios, distinct views, messages over all runs."""
    levels = views.levels()
    span.set("scenarios", len(views))
    span.set("views", views.view_count())
    span.set("sent", sum(map(_Level.scenario_total, levels, folded.sent)))
    span.set(
        "delivered",
        sum(map(_Level.scenario_total, levels[1:], folded.received)),
    )


def execute(
    protocol: ConcreteProtocol,
    config: InitialConfiguration,
    pattern: FailurePattern,
    horizon: int,
    t: int,
) -> Trace:
    """Run *protocol* for *horizon* rounds under one scenario.

    Returns the full :class:`~repro.sim.trace.Trace`; use
    ``trace.to_outcome()`` for decision-only analysis.  A batch of one, so
    no view is shared with any other execution.
    """
    return traces_over_scenarios(protocol, [(config, pattern)], horizon, t)[0]


def run_over_scenarios(
    protocol: ConcreteProtocol,
    scenarios: Iterable[ScenarioKey],
    horizon: int,
    t: int,
) -> ProtocolOutcome:
    """Execute *protocol* over a scenario space, collecting outcomes.

    The scenario iterable is typically ``system.scenarios()`` for an
    enumerated system (so knowledge-level and concrete protocols are
    compared over identical corresponding runs) or a workload generator's
    output.  Pass a :class:`ScenarioViews` to share its view DAG with
    other protocols run over the same list.
    """
    views = _bind(scenarios, horizon, t)
    outcome = ProtocolOutcome(protocol.name)
    with spantrace.span(
        "sim.run_over_scenarios", protocol=protocol.name, rounds=horizon
    ) as batch_span:
        folded = _fold(protocol, views, keep_states=False)
        last = views.levels()[-1]
        decisions = last.row_values(folded.decided)
        for (config, pattern), row in zip(views, last.row_of):
            outcome.add(RunOutcome(config, pattern, decisions[row], horizon))
        _annotate(batch_span, views, folded)
    return outcome


def traces_over_scenarios(
    protocol: ConcreteProtocol,
    scenarios: Iterable[ScenarioKey],
    horizon: int,
    t: int,
) -> List[Trace]:
    """Like :func:`run_over_scenarios` but keeping the full traces."""
    views = _bind(scenarios, horizon, t)
    with spantrace.span(
        "sim.traces_over_scenarios", protocol=protocol.name, rounds=horizon
    ) as batch_span:
        folded = _fold(protocol, views, keep_states=True)
        levels = views.levels()
        row_states = [
            level.row_values(states)
            for level, states in zip(levels, folded.states)
        ]
        decisions = levels[-1].row_values(folded.decided)
        traces = []
        for index, (config, pattern) in enumerate(views):
            rows = [level.row_of[index] for level in levels]
            traces.append(
                Trace(
                    protocol_name=protocol.name,
                    config=config,
                    pattern=pattern,
                    horizon=horizon,
                    states=[
                        per_row[row] for per_row, row in zip(row_states, rows)
                    ],
                    decisions=list(decisions[rows[-1]]),
                    sent_counts=[
                        per_row[row] for per_row, row in zip(folded.sent, rows)
                    ],
                    delivered_counts=[
                        per_row[row]
                        for per_row, row in zip(folded.received, rows[1:])
                    ],
                )
            )
        _annotate(batch_span, views, folded)
    return traces
