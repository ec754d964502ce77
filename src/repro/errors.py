"""Exception hierarchy for the :mod:`repro` library.

All library-specific errors derive from :class:`ReproError` so callers can
catch everything raised by this package with a single ``except`` clause while
still being able to distinguish configuration problems from protocol-level
violations detected at run time.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """A model object was constructed with inconsistent parameters.

    Examples: a failure pattern naming more than ``t`` faulty processors, a
    crash round outside the horizon, or an initial configuration whose length
    does not match ``n``.
    """


class ProtocolViolationError(ReproError):
    """A protocol produced behaviour that violates its own contract.

    The canonical case is a decision pair whose zero- and one-sets both fire
    for the same processor at the same point: the full-information protocol
    ``FIP(Z, O)`` is only well defined when the first firing is unambiguous.
    """


class SpecificationError(ReproError):
    """An agreement specification (EBA, SBA, ...) was violated by a run.

    Raised by the strict checking helpers in :mod:`repro.core.specs` when the
    caller asked for violations to be fatal rather than reported.
    """


class EvaluationError(ReproError):
    """A knowledge formula could not be evaluated over the given system."""


class ShardExecutionError(ReproError):
    """A batch shard could not be completed by the execution engine.

    Raised by :class:`~repro.exec.pool.ShardPool` when a shard keeps
    failing (worker death, timeout, payload-checksum mismatch or a task
    exception) after its retry budget is exhausted.
    """


class UnsupportedModeError(ReproError):
    """An operation was requested for a failure mode it does not support.

    For example the :class:`~repro.protocols.flood_sba.FloodSBA` baseline is
    only sound for crash failures; running it through the protocol registry
    over an omission cell raises this error instead of silently producing a
    protocol that can disagree.
    """
