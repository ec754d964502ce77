"""Runs of the full-information protocol.

A *run* (paper, Section 2.3) is the complete description of the system at
every time step: initial configuration, failure pattern and the resulting
message/state evolution.  Because full-information states are independent of
the decision function, one run object serves every ``FIP(Z, O)``; decisions
are layered on top by :mod:`repro.protocols.fip`.

A system builds its runs from its arrays on first read
(:mod:`repro.io.system_codec`); their view ids index the system's shared
:class:`~repro.model.views.ViewTable`, so identical local states across
runs carry identical ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Tuple

from .config import InitialConfiguration
from .failures import FailurePattern, ProcessorId
from .views import ViewId


@dataclass
class Run:
    """One run of the full-information protocol.

    Attributes:
        config: The initial configuration.
        pattern: The failure pattern (uniquely determines the run together
            with the configuration — paper, Section 2.3).
        horizon: Number of rounds simulated; points exist for times
            ``0..horizon``.
        views: ``views[m][i]`` is the interned view id of processor ``i`` at
            time ``m``.
        nonfaulty: The (time-independent, per the paper's convention for
            EBA) set of nonfaulty processors.
        deliveries: ``deliveries[m]`` is, for round ``m`` (1-based, stored at
            index ``m - 1``), a tuple over receivers of the frozen set of
            senders whose message arrived.
    """

    config: InitialConfiguration
    pattern: FailurePattern
    horizon: int
    views: List[Tuple[ViewId, ...]] = field(default_factory=list)
    nonfaulty: FrozenSet[ProcessorId] = frozenset()
    deliveries: List[Tuple[FrozenSet[ProcessorId], ...]] = field(
        default_factory=list
    )

    @property
    def n(self) -> int:
        """Number of processors."""
        return self.config.n

    def view(self, processor: ProcessorId, time: int) -> ViewId:
        """Processor *processor*'s local state (view id) at *time*."""
        return self.views[time][processor]

    def is_nonfaulty(self, processor: ProcessorId) -> bool:
        """Whether *processor* is nonfaulty throughout this run."""
        return processor in self.nonfaulty

    def senders_to(
        self, receiver: ProcessorId, round_number: int
    ) -> FrozenSet[ProcessorId]:
        """Processors whose round-*round_number* message reached *receiver*
        (excluding *receiver* itself)."""
        return self.deliveries[round_number - 1][receiver]

    def scenario_key(self) -> Tuple[InitialConfiguration, FailurePattern]:
        """The (configuration, pattern) pair identifying corresponding runs.

        Two runs of different protocols *correspond* when they share this
        key (paper, Section 2.3).
        """
        return (self.config, self.pattern)

    def exists(self, value: int) -> bool:
        """The paper's run-level fact ∃value."""
        return self.config.exists(value)

