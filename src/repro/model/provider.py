"""SystemProvider: the process's exhaustive cells, built in memory.

Every experiment and knowledge query funnels through one enumeration per
``(mode, n, t, horizon)`` cell.  The provider keeps the cells this
process built in a **bounded in-memory LRU**: hits are free and share
one :class:`~repro.model.system.System` instance process-wide.  A miss
builds the cell arrays-first (:func:`repro.model.fastbuild.build_arrays`)
and wraps the arrays as the system
(:func:`repro.io.system_codec.system_from_arrays`), which builds its
``Run`` list and ``ViewTable`` only the first time something reads them.
Nothing is written to or read from disk: a build costs what a validated
load of a stored cell cost, so each process builds the cells it needs.

Only exhaustive cells over every configuration are kept; restricted
systems and configuration subsets build fresh through
:func:`~repro.model.system.build_system`, the same arrays-first builder.

Thread-safety: the LRU and its counters are guarded by one lock, so the
serve daemon's connection threads share the process-wide provider.  A
miss takes the **build lock**, looks in the LRU again and only then
builds: two threads that miss one cell build it once, and builds run
one at a time, while hits never wait for a build.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from .. import obs, trace
from ..errors import ConfigurationError
from .failures import FailureMode
from .system import System

#: Default bound on the in-memory layer.  Systems are large; a handful of
#: parameter cells covers every experiment in the suite.
DEFAULT_MAX_MEMORY_ENTRIES = 16

CacheKey = Tuple[str, int, int, int]


class SystemProvider:
    """A bounded LRU of exhaustive cells; a miss builds under one lock."""

    def __init__(
        self, *, max_memory_entries: int = DEFAULT_MAX_MEMORY_ENTRIES
    ) -> None:
        if max_memory_entries < 1:
            raise ConfigurationError(
                f"need max_memory_entries >= 1, got {max_memory_entries}"
            )
        self.max_memory_entries = max_memory_entries
        self._memory: "OrderedDict[CacheKey, System]" = OrderedDict()
        self._lock = threading.Lock()
        self._build_lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # -- lookup ------------------------------------------------------------

    def get(self, mode: FailureMode, n: int, t: int, horizon: int) -> System:
        """The exhaustive system for the cell, built on a miss.

        The system's runs and view table are built only when something
        reads them.
        """
        key: CacheKey = (mode.value, n, t, horizon)
        cached = self._lookup(key)
        if cached is not None:
            return cached
        with self._build_lock:
            # Another thread may have built the cell while this one waited.
            cached = self._lookup(key)
            if cached is not None:
                return cached
            with self._lock:
                self._misses += 1
                obs.count("system_cache_misses")
            from ..io.system_codec import system_from_arrays
            from .fastbuild import build_arrays

            with trace.span(
                "provider.get", mode=mode.value, n=n, t=t, horizon=horizon
            ):
                system = system_from_arrays(build_arrays(mode, n, t, horizon))
            self._remember(key, system)
        return system

    def _lookup(self, key: CacheKey) -> Optional[System]:
        with self._lock:
            cached = self._memory.get(key)
            if cached is not None:
                self._memory.move_to_end(key)
                self._hits += 1
                obs.count("system_cache_hits")
        return cached

    def _remember(self, key: CacheKey, system: System) -> None:
        with self._lock:
            self._memory[key] = system
            self._memory.move_to_end(key)
            while len(self._memory) > self.max_memory_entries:
                self._memory.popitem(last=False)
                self._evictions += 1
                obs.count("system_cache_evictions")

    # -- introspection -----------------------------------------------------

    def cache_info(self) -> Dict[str, object]:
        """Hit/miss/size statistics of the LRU."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "size": len(self._memory),
                "max_size": self.max_memory_entries,
                "evictions": self._evictions,
                "keys": list(self._memory.keys()),
            }

    def clear(self) -> Dict[str, int]:
        """Drop every cached system; ``{"evicted": ...}`` counts them."""
        with self._lock:
            evicted = len(self._memory)
            self._memory.clear()
            self._evictions += evicted
        return {"evicted": evicted}


#: The process-wide provider used by :mod:`repro.model.builder`.
PROVIDER = SystemProvider()


def get_provider() -> SystemProvider:
    """The process-wide :class:`SystemProvider`."""
    return PROVIDER
