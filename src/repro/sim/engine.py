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

**One transition per distinct state and inbox.**  A protocol is a
deterministic function of its own local state, so the engine runs every
scenario of a batch as one fold over the protocol's states.  A *node* is a
(processor, n, state, decision record) of one time; ``initial_state`` runs
once per (n, processor, initial value) and ``messages`` once per node.  A
processor's next node is determined by its node and the nodes of the
senders whose message reached it, so ``transition`` and ``output`` run once
per distinct such key, however many scenarios share it.  Scenarios move in
rows (one node per processor), and the next row is memoized on the row and
the round's delivery row.  States are hashed, so they must be hashable;
equal states must behave identically.  An *isolated* batch
(:func:`traces_over_scenarios`) keys every node by its scenario too, so
it shares only the delivery plan between scenarios.  A fold allocates
only acyclic structures, so it runs with the cyclic collector paused.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from .. import trace as spantrace
from ..collector import gc_paused
from ..core.outcomes import DecisionRecord, ProtocolOutcome, ScenarioIndex
from ..errors import ConfigurationError
from ..model.config import InitialConfiguration
from ..model.failures import (
    DeliveryRow,
    FailurePattern,
    ProcessorId,
    delivery_row,
)
from ..protocols.base import ConcreteProtocol
from .trace import Trace

ScenarioKey = Tuple[InitialConfiguration, FailurePattern]

#: Per scenario, the ids of its rounds' delivery rows; and the rows by id.
Plan = Tuple[List[Tuple[int, ...]], List[DeliveryRow]]


class ScenarioViews(Sequence):
    """A scenario list together with its validated delivery plan.

    The sequence of its own ``(config, pattern)`` keys, so it is accepted
    wherever scenarios are.  Wrapping a list once lets every protocol run
    over it share one plan — per scenario, the delivery row of each round —
    which the first engine call builds once per distinct ``(pattern, n)``,
    and one :class:`~repro.core.outcomes.ScenarioIndex`, the rows of every
    outcome over the list.  The plan is bound to *horizon* and *t*: an
    engine call with other values is rejected.

    Raises:
        ConfigurationError: for a horizon below 1 here; for a pattern with
            more than ``t`` faulty processors or a faulty id outside its
            configuration's ``range(n)`` when the plan is built.
    """

    def __init__(
        self, scenarios: Iterable[ScenarioKey], horizon: int, t: int
    ) -> None:
        if horizon < 1:
            raise ConfigurationError(f"need horizon >= 1, got {horizon}")
        self._scenarios = list(scenarios)
        self.horizon = horizon
        self.t = t
        self._plan: Optional[Plan] = None
        self._index: Optional[ScenarioIndex] = None

    def __len__(self) -> int:
        return len(self._scenarios)

    def __getitem__(self, index):
        return self._scenarios[index]

    def __iter__(self) -> Iterator[ScenarioKey]:
        return iter(self._scenarios)

    def plan(self) -> Plan:
        """The delivery plan (built on first use)."""
        if self._plan is None:
            self._plan = self._build()
        return self._plan

    def index(self) -> ScenarioIndex:
        """The scenarios' index, built with the plan: configurations and
        ``(pattern, n)`` entries numbered in first-seen order."""
        self.plan()
        return self._index

    def _build(self) -> Plan:
        index = ScenarioIndex.of(self._scenarios)
        rounds = range(1, self.horizon + 1)
        delivery_ids: Dict[DeliveryRow, int] = {}
        entry_plans = []
        for pattern, n in index.patterns:
            pattern.validate(n, self.t)
            entry_plans.append(
                tuple(
                    delivery_ids.setdefault(
                        delivery_row(pattern, n, round_number),
                        len(delivery_ids),
                    )
                    for round_number in rounds
                )
            )
        self._index = index
        plans = [entry_plans[entry] for entry in index.pattern_of.tolist()]
        return plans, list(delivery_ids)


class _Nodes:
    """The distinct nodes of one time, and the rows through them.

    Node ``v`` is processor ``processor[v]`` of an ``size[v]``-processor
    system in state ``state[v]``, with first decision ``record[v]`` so far,
    in scope ``scope[v]``: the scenario's number in an isolated batch,
    ``None`` otherwise.  ``rows[r]`` holds one node per processor.
    ``name`` is the protocol's, for the error an unhashable state raises.
    """

    __slots__ = ("name", "ids", "processor", "size", "state", "record",
                 "scope", "row_ids", "rows")

    def __init__(self, name: str) -> None:
        self.name = name
        self.ids: Dict[Tuple[Any, ...], int] = {}
        self.processor: List[ProcessorId] = []
        self.size: List[int] = []
        self.state: List[Any] = []
        self.record: List[DecisionRecord] = []
        self.scope: List[Optional[int]] = []
        self.row_ids: Dict[Tuple[int, ...], int] = {}
        self.rows: List[Tuple[int, ...]] = []

    def node(
        self, processor: ProcessorId, n: int, state: Any,
        record: DecisionRecord, scope: Optional[int],
    ) -> int:
        key = (processor, n, state, record, scope)
        try:
            node = self.ids.get(key)
        except TypeError as error:
            raise ConfigurationError(
                f"{self.name}: protocol states must be hashable ({error})"
            ) from error
        if node is None:
            node = self.ids[key] = len(self.state)
            self.processor.append(processor)
            self.size.append(n)
            self.state.append(state)
            self.record.append(record)
            self.scope.append(scope)
        return node

    def row(self, nodes: Tuple[int, ...]) -> int:
        row = self.row_ids.get(nodes)
        if row is None:
            row = self.row_ids[nodes] = len(self.rows)
            self.rows.append(nodes)
        return row

    def along_rows(self, per_node: List[Any]) -> List[Tuple[Any, ...]]:
        """*per_node* gathered along each row."""
        return [tuple([per_node[node] for node in row]) for row in self.rows]


class _Fold:
    """One protocol's results over a :class:`ScenarioViews`.

    ``value`` and ``time`` are the ``(scenarios, width)`` decision table
    (``-1`` for no decision), filled when traces are not kept; ``nodes``
    counts the distinct nodes over all times, ``sent`` and ``delivered``
    the messages over all scenarios; ``traces`` is kept only when asked
    for.
    """

    __slots__ = ("value", "time", "nodes", "sent", "delivered", "traces")

    def __init__(self) -> None:
        self.value: Optional[np.ndarray] = None
        self.time: Optional[np.ndarray] = None
        self.nodes = 0
        self.sent = 0
        self.delivered = 0
        self.traces: Optional[List[Trace]] = None


def _first_level(
    protocol: ConcreteProtocol, scenarios: ScenarioViews, isolated: bool
) -> Tuple[_Nodes, List[int]]:
    """The time-0 nodes, and the row of each scenario through them.

    A start is one (n, processor, initial value); an *isolated* batch
    keys it, and so every later node, by the scenario's number too.
    """
    level = _Nodes(protocol.name)
    starts: Dict[Tuple[Optional[int], int, ProcessorId, int], int] = {}
    index = scenarios.index()
    config_of = index.config_of.tolist()
    if isolated:
        scoped = [
            (scope, index.configs[c]) for scope, c in enumerate(config_of)
        ]
    else:
        scoped = [(None, config) for config in index.configs]
    rows: List[int] = []
    for scope, config in scoped:
        n = config.n
        nodes = []
        for processor in range(n):
            start = (scope, n, processor, config.value_of(processor))
            node = starts.get(start)
            if node is None:
                state = protocol.initial_state(
                    processor, n, scenarios.t, start[3]
                )
                value = protocol.output(state)
                node = starts[start] = level.node(
                    processor, n, state,
                    None if value is None else (value, 0), scope,
                )
            nodes.append(node)
        rows.append(level.row(tuple(nodes)))
    return level, rows if isolated else [rows[c] for c in config_of]


def _decision_table(
    level: _Nodes, row_of: List[int], width: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(value, time)`` of every scenario's first decisions, ``-1`` for
    none: the last level's records laid out along its rows, gathered by
    each scenario's row."""
    records = [
        (-1, -1) if record is None else record for record in level.record
    ]
    per_node = np.array(records + [(-1, -1)], dtype=np.int64)
    pad = (len(records),)
    rows = np.array(
        [row + pad * (width - len(row)) for row in level.rows], dtype=np.intp
    ).reshape(len(level.rows), width)[np.asarray(row_of, dtype=np.intp)]
    return per_node[rows, 0], per_node[rows, 1]


def _outboxes(
    protocol: ConcreteProtocol, level: _Nodes, round_number: int
) -> List[Dict[ProcessorId, Any]]:
    """Each node's round-*round_number* messages, without ``None``
    payloads or messages to itself.

    Raises:
        ConfigurationError: for a message to a processor outside the
            node's ``range(n)``.
    """
    messages = protocol.messages
    outboxes = []
    for sender, n, state in zip(level.processor, level.size, level.state):
        outbox = {
            destination: payload
            for destination, payload in messages(state, round_number).items()
            if payload is not None and destination != sender
        }
        for destination in outbox:
            if not 0 <= destination < n:
                raise ConfigurationError(
                    f"{protocol.name}: processor {sender} addressed "
                    f"message to unknown destination {destination}"
                )
        outboxes.append(outbox)
    return outboxes


@gc_paused()
def _fold(
    protocol: ConcreteProtocol, scenarios: ScenarioViews, keep: bool,
    isolated: bool = False,
) -> _Fold:
    """Run *protocol* over *scenarios* as one fold over its states.

    Without *keep* only one time's nodes and outboxes are alive at once.
    With *isolated* no node is shared between scenarios (see
    :func:`_first_level`).  The collector is paused: a fold allocates
    only acyclic structures.
    """
    plans, deliveries = scenarios.plan()
    name = protocol.name
    transition, output = protocol.transition, protocol.output
    result = _Fold()
    if keep:
        result.traces = [
            Trace(name, config, pattern, scenarios.horizon)
            for config, pattern in scenarios
        ]
    level, row_of = _first_level(protocol, scenarios, isolated)
    for round_number in range(1, scenarios.horizon + 1):
        below, level = level, _Nodes(name)
        processor_of, states, records, scopes = (
            below.processor, below.state, below.record, below.scope,
        )
        outboxes = _outboxes(protocol, below, round_number)
        sent = [
            sum([len(outboxes[node]) for node in row]) for row in below.rows
        ]

        # A step is one row under one delivery row; a transition key is a
        # receiver's node and the nodes of the senders it heard.
        steps: Dict[Tuple[int, int], int] = {}
        step_rows: List[int] = []
        step_received: List[int] = []
        transitions: Dict[Tuple[int, ...], int] = {}
        step_of = []
        index = round_number - 1
        for row, plan in zip(row_of, plans):
            key = (row, plan[index])
            step = steps.get(key)
            if step is None:
                nodes = below.rows[row]
                boxes = [outboxes[node] for node in nodes]
                received = 0
                following = []
                for receiver, (node, heard) in enumerate(
                    zip(nodes, deliveries[key[1]])
                ):
                    senders = [
                        nodes[sender]
                        for sender in heard
                        if receiver in boxes[sender]
                    ]
                    received += len(senders)
                    inbox_key = (node, *senders)
                    next_node = transitions.get(inbox_key)
                    if next_node is None:
                        state = transition(
                            states[node],
                            round_number,
                            {
                                processor_of[sender]: outboxes[sender][receiver]
                                for sender in senders
                            },
                        )
                        record = records[node]
                        if record is None:
                            value = output(state)
                            if value is not None:
                                record = (value, round_number)
                        next_node = transitions[inbox_key] = level.node(
                            receiver, len(nodes), state, record, scopes[node]
                        )
                    following.append(next_node)
                step = steps[key] = len(step_rows)
                step_rows.append(level.row(tuple(following)))
                step_received.append(received)
            step_of.append(step)

        result.nodes += len(states)
        result.sent += sum(map(sent.__getitem__, row_of))
        result.delivered += sum(map(step_received.__getitem__, step_of))
        if keep:
            row_states = below.along_rows(states)
            for trace, row, step in zip(result.traces, row_of, step_of):
                trace.states.append(row_states[row])
                trace.sent_counts.append(sent[row])
                trace.delivered_counts.append(step_received[step])
        row_of = [step_rows[step] for step in step_of]

    result.nodes += len(level.state)
    if keep:
        decisions = level.along_rows(level.record)
        row_states = level.along_rows(level.state)
        for trace, row in zip(result.traces, row_of):
            trace.states.append(row_states[row])
            trace.decisions = list(decisions[row])
    else:
        result.value, result.time = _decision_table(
            level, row_of, scenarios.index().width
        )
    return result


def _bind(
    scenarios: Iterable[ScenarioKey], horizon: int, t: int
) -> ScenarioViews:
    """*scenarios* with their plan for *horizon* and *t*, wrapping a plain
    list."""
    if not isinstance(scenarios, ScenarioViews):
        return ScenarioViews(scenarios, horizon, t)
    if (scenarios.horizon, scenarios.t) != (horizon, t):
        raise ConfigurationError(
            f"scenario views built for horizon={scenarios.horizon}, "
            f"t={scenarios.t}; called with horizon={horizon}, t={t}"
        )
    return scenarios


def _annotate(span, scenarios: ScenarioViews, folded: _Fold) -> None:
    """Batch totals: scenarios, distinct nodes, messages over all runs."""
    span.set("scenarios", len(scenarios))
    span.set("states", folded.nodes)
    span.set("sent", folded.sent)
    span.set("delivered", folded.delivered)


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
    no state is shared with any other execution (as in an isolated
    :func:`traces_over_scenarios`).
    """
    return traces_over_scenarios(protocol, [(config, pattern)], horizon, t)[0]


def run_over_scenarios(
    protocol: ConcreteProtocol,
    scenarios: Iterable[ScenarioKey],
    horizon: int,
    t: int,
) -> ProtocolOutcome:
    """Execute *protocol* over a scenario space, collecting its decision
    table.

    The scenario iterable is typically ``system.scenarios()`` for an
    enumerated system (so knowledge-level and concrete protocols are
    compared over identical corresponding runs) or a workload generator's
    output.  Pass a :class:`ScenarioViews` to share its delivery plan with
    other protocols run over the same list.

    Raises:
        ConfigurationError: for a scenario listed twice (besides the
            plan's checks, see :class:`ScenarioViews`).
    """
    scenarios = _bind(scenarios, horizon, t)
    with spantrace.span(
        "sim.run_over_scenarios", protocol=protocol.name, rounds=horizon
    ) as batch_span:
        index = scenarios.index()
        index.check_distinct()
        folded = _fold(protocol, scenarios, keep=False)
        _annotate(batch_span, scenarios, folded)
    return ProtocolOutcome.from_table(
        protocol.name, index, folded.value, folded.time, horizon
    )


def traces_over_scenarios(
    protocol: ConcreteProtocol,
    scenarios: Iterable[ScenarioKey],
    horizon: int,
    t: int,
    *,
    isolated: bool = False,
) -> List[Trace]:
    """Like :func:`run_over_scenarios` but keeping the full traces.

    With *isolated*, every scenario runs as its own execution: no node,
    start or transition is shared between scenarios, so every protocol
    function runs exactly as often as in one :func:`execute` per
    scenario; only the delivery plan and the index are shared.  A check
    that protocol states are a function of something the fold could
    share (E13's) needs that.
    """
    scenarios = _bind(scenarios, horizon, t)
    with spantrace.span(
        "sim.traces_over_scenarios", protocol=protocol.name, rounds=horizon
    ) as batch_span:
        folded = _fold(protocol, scenarios, keep=True, isolated=isolated)
        _annotate(batch_span, scenarios, folded)
    return folded.traces
