"""Convenience constructors for enumerated systems.

The exhaustive cells (:func:`crash_system`, :func:`omission_system`,
:func:`system_for`) come from the layered
:class:`~repro.model.provider.SystemProvider` cache, so that tests and
experiments touching the same ``(mode, n, t, horizon)`` parameters share
one enumeration — in-process through a bounded LRU, and across processes
through the versioned on-disk cache under ``.repro_cache/``.
:func:`restricted_system` builds a sub-system over an explicit pattern
family (and, optionally, a configuration subset) with
:func:`~repro.model.system.build_system`, never cached.  Both paths build
arrays-first (:mod:`repro.model.fastbuild`).

Sizing guidance (see DESIGN.md; cold arrays-first builds on a shared
2-vCPU box):

* crash mode: ``n=4, t=3, horizon=2`` (195,344 runs) builds in about
  0.4 s, and ``n=5, t=2, horizon=3`` (655,232 runs) in about 4 s at a
  0.6 GB peak, about the largest cell worth enumerating;
* the omission-family modes grow as ``2**((n-1) * horizon)`` behaviours
  per faulty processor: ``n=4, t=2, horizon=2`` (385,072 runs) builds in
  about 0.6 s, and one more round or processor is out of reach.  Beyond
  that use a restricted or sampled adversary and treat knowledge results
  as approximations (DESIGN.md explains in which direction each
  approximation errs).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence

from .. import trace
from .adversary import ExplicitAdversary
from .config import InitialConfiguration
from .failures import FailureMode, FailurePattern
from .provider import PROVIDER
from .system import System, build_system


def default_horizon(t: int) -> int:
    """The library's default horizon, ``t + 2``.

    Decisions in the paper's protocols happen by time ``t + 1``; one extra
    round keeps the post-decision relay visible and gives temporal operators
    a nontrivial future at the decision time.
    """
    return t + 2


def crash_system(n: int, t: int, horizon: Optional[int] = None) -> System:
    """The exhaustive crash-mode system for ``(n, t, horizon)``."""
    return system_for(FailureMode.CRASH, n, t, horizon)


def omission_system(n: int, t: int, horizon: Optional[int] = None) -> System:
    """The exhaustive omission-mode system for ``(n, t, horizon)``.

    Exponential in ``(n - 1) * horizon`` per faulty processor — intended for
    small parameters only.
    """
    return system_for(FailureMode.OMISSION, n, t, horizon)


def system_for(
    mode: FailureMode, n: int, t: int, horizon: Optional[int] = None
) -> System:
    """The exhaustive system of *mode* for ``(n, t, horizon)``.

    Raises :class:`~repro.errors.ConfigurationError` for a mode without
    an exhaustive adversary (general omissions).
    """
    horizon = default_horizon(t) if horizon is None else horizon
    return PROVIDER.get(mode, n, t, horizon)


def restricted_system(
    mode: FailureMode,
    n: int,
    t: int,
    horizon: int,
    patterns: Sequence[FailurePattern],
    *,
    configs: Optional[Iterable[InitialConfiguration]] = None,
    include_failure_free: bool = True,
) -> System:
    """A sub-system over an explicit pattern family (never cached).

    Knowledge evaluated over a sub-system is an *over*-approximation (fewer
    runs means fewer indistinguishable alternatives, hence more knowledge);
    dually, the *failure* of a continual-common-knowledge test in a
    sub-system transfers soundly to the full system (DESIGN.md §2).  The
    Proposition 6.3 experiment relies on this direction.
    """
    adversary = ExplicitAdversary(
        n,
        t,
        horizon,
        patterns,
        mode=mode,
        include_failure_free=include_failure_free,
    )
    with trace.span(
        "restricted_system", mode=mode.value, n=n, t=t, horizon=horizon,
        patterns=len(patterns),
    ):
        return build_system(adversary, configs=configs)


def clear_system_cache(*, disk: bool = False) -> Dict[str, int]:
    """Drop the process-wide system cache (mainly for tests).

    Returns eviction statistics — see
    :meth:`~repro.model.provider.SystemProvider.clear`.
    """
    return PROVIDER.clear(disk=disk)


def system_cache_info() -> Dict[str, object]:
    """Hit/miss/size statistics for the process-wide system cache."""
    return PROVIDER.cache_info()
