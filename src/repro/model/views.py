"""Full-information views: canonical local states with hash-consing.

In a full-information protocol (paper, Section 2.4) each processor sends its
entire state to everyone in every round, so its local state at time ``m`` is
fully described by:

* its identity and initial value, and
* for each round ``1..m``, the set of processors it heard from together with
  the *sender's state at the previous time* carried by each message.

We represent this as a recursive *view* tree and intern every distinct view
into a :class:`ViewTable`, assigning it a small integer id.  Two points of
(possibly different) runs then have the same local state **iff** their view
ids are equal — an O(1) check that the knowledge machinery performs millions
of times.  Because a view embeds its depth (time) structurally, equal ids
also imply equal times, matching the paper's convention that the global
clock is part of the state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..core.values import Value
from ..errors import ConfigurationError

ProcessorId = int
ViewId = int

#: Structural form of a view:
#:   leaf:     ("leaf", processor, initial_value)
#:   internal: ("node", previous_view_id, ((sender, sender_view_id), ...))
ViewKey = Tuple


@dataclass(frozen=True)
class ViewInfo:
    """Decoded metadata about an interned view.

    Attributes:
        view_id: The interned id.
        processor: Owner of the view.
        time: Depth of the view (0 for an initial state).
        initial_value: The owner's initial value.
        previous: Id of the owner's view one round earlier (``None`` at
            time 0).
        heard_from: Sorted tuple of ``(sender, sender_view_id)`` pairs for
            round-``time`` messages received (empty at time 0).
    """

    view_id: ViewId
    processor: ProcessorId
    time: int
    initial_value: Value
    previous: Optional[ViewId]
    heard_from: Tuple[Tuple[ProcessorId, ViewId], ...]

    @property
    def senders(self) -> FrozenSet[ProcessorId]:
        """The set of processors heard from in the most recent round."""
        return frozenset(sender for sender, _ in self.heard_from)


class ViewTable:
    """Interning table for full-information views.

    A single table is shared by all runs of a system so that identical local
    states across runs receive identical ids.  The table is append-only; ids
    are dense starting from 0.
    """

    def __init__(self) -> None:
        self._ids: Dict[ViewKey, ViewId] = {}
        self._info: List[ViewInfo] = []

    @classmethod
    def from_infos(cls, infos: List[ViewInfo]) -> "ViewTable":
        """A table holding exactly *infos*, whose ids must be ``0..len-1``.

        No interning checks run: the caller guarantees what
        :meth:`extend` would (dense ids, references to smaller ids only,
        consistent owners and times).  A loaded system's table builder
        (:mod:`repro.io.system_codec`) relies on
        :meth:`~repro.model.partition.SystemArrays.validate` for that.
        """
        table = cls()
        table._info = infos
        table._ids = {
            ("leaf", info.processor, info.initial_value)
            if info.previous is None
            else ("node", info.previous, info.heard_from): info.view_id
            for info in infos
        }
        return table

    def __len__(self) -> int:
        return len(self._info)

    def leaf(self, processor: ProcessorId, initial_value: Value) -> ViewId:
        """Intern the time-0 view of *processor* with *initial_value*."""
        key: ViewKey = ("leaf", processor, initial_value)
        existing = self._ids.get(key)
        if existing is not None:
            return existing
        view_id = len(self._info)
        self._ids[key] = view_id
        self._info.append(
            ViewInfo(
                view_id=view_id,
                processor=processor,
                time=0,
                initial_value=initial_value,
                previous=None,
                heard_from=(),
            )
        )
        return view_id

    def extend(
        self,
        previous: ViewId,
        heard_from: Dict[ProcessorId, ViewId],
    ) -> ViewId:
        """Intern the view obtained from *previous* after one more round.

        Args:
            previous: The owner's view id at the previous time.
            heard_from: Maps each sender whose round message was delivered to
                the sender's view id at the previous time.  The owner's own
                "message to itself" must *not* be included; its previous
                state is already carried by *previous*.
        """
        previous_info = self._info[previous]
        entries = tuple(sorted(heard_from.items()))
        for sender, sender_view in entries:
            sender_info = self._info[sender_view]
            if sender_info.time != previous_info.time:
                raise ConfigurationError(
                    "message carries a state from the wrong time: "
                    f"sender {sender} at time {sender_info.time}, "
                    f"receiver previous time {previous_info.time}"
                )
            if sender_info.processor != sender:
                raise ConfigurationError(
                    f"view {sender_view} does not belong to sender {sender}"
                )
        key: ViewKey = ("node", previous, entries)
        existing = self._ids.get(key)
        if existing is not None:
            return existing
        view_id = len(self._info)
        self._ids[key] = view_id
        self._info.append(
            ViewInfo(
                view_id=view_id,
                processor=previous_info.processor,
                time=previous_info.time + 1,
                initial_value=previous_info.initial_value,
                previous=previous,
                heard_from=entries,
            )
        )
        return view_id

    def info(self, view_id: ViewId) -> ViewInfo:
        """Metadata for an interned view id."""
        return self._info[view_id]

    def export_entries(self) -> List[ViewKey]:
        """The structural keys of all views, in id order.

        Because the table is append-only and every internal node references
        only smaller ids, two tables give every view the same id exactly
        when their exported entries are equal — which is how tests compare
        a materialized table against the object-graph oracle's.
        """
        entries: List[ViewKey] = []
        for info in self._info:
            if info.previous is None:
                entries.append(("leaf", info.processor, info.initial_value))
            else:
                entries.append(("node", info.previous, info.heard_from))
        return entries

    def time_of(self, view_id: ViewId) -> int:
        return self._info[view_id].time

    def processor_of(self, view_id: ViewId) -> ProcessorId:
        return self._info[view_id].processor

    def initial_value_of(self, view_id: ViewId) -> Value:
        return self._info[view_id].initial_value

    def history(self, view_id: ViewId) -> List[ViewId]:
        """The owner's views at times ``0..time`` (perfect recall).

        Full-information states determine their entire past; this helper
        materializes that chain, oldest first.
        """
        chain: List[ViewId] = []
        current: Optional[ViewId] = view_id
        while current is not None:
            chain.append(current)
            current = self._info[current].previous
        chain.reverse()
        return chain

    def known_values(self, view_id: ViewId) -> FrozenSet[Value]:
        """All initial values provably present from this view's perspective.

        A value is *known present* if it is the owner's own initial value or
        appears anywhere in the (recursively unfolded) received states.  This
        is the semantic core of facts like "processor i has learned that some
        processor started with 0".
        """
        return self._known_values_memo(view_id, {})

    def _known_values_memo(
        self, view_id: ViewId, memo: Dict[ViewId, FrozenSet[Value]]
    ) -> FrozenSet[Value]:
        cached = memo.get(view_id)
        if cached is not None:
            return cached
        info = self._info[view_id]
        values = {info.initial_value}
        if info.previous is not None:
            values |= self._known_values_memo(info.previous, memo)
        for _, sender_view in info.heard_from:
            values |= self._known_values_memo(sender_view, memo)
        result = frozenset(values)
        memo[view_id] = result
        return result

    def known_initial_values(
        self, view_id: ViewId
    ) -> Dict[ProcessorId, Value]:
        """Map of processors whose initial value is visible from this view."""
        result: Dict[ProcessorId, Value] = {}
        self._collect_initial_values(view_id, result, set())
        return result

    def _collect_initial_values(
        self,
        view_id: ViewId,
        out: Dict[ProcessorId, Value],
        visited: set,
    ) -> None:
        if view_id in visited:
            return
        visited.add(view_id)
        info = self._info[view_id]
        out.setdefault(info.processor, info.initial_value)
        if info.previous is not None:
            self._collect_initial_values(info.previous, out, visited)
        for _, sender_view in info.heard_from:
            self._collect_initial_values(sender_view, out, visited)

    def heard_from_at(self, view_id: ViewId, round_number: int) -> FrozenSet[ProcessorId]:
        """Senders heard from in round *round_number* along this view's own
        history (1-based; round ``m`` is the round ending at time ``m``)."""
        if not 1 <= round_number <= self._info[view_id].time:
            raise ConfigurationError(
                f"round {round_number} outside 1..{self._info[view_id].time}"
            )
        chain = self.history(view_id)
        return self._info[chain[round_number]].senders

