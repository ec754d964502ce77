"""SystemProvider: the layered cache pipeline for enumerated systems.

Every experiment and knowledge query funnels through one enumeration per
``(mode, n, t, horizon)`` cell.  This module layers the lookup:

1. a **bounded in-memory LRU** (hits are free and share one
   :class:`~repro.model.system.System` instance process-wide, exactly like
   the old ``_SYSTEM_CACHE`` dict — but bounded and introspectable), plus
   a separate one for the cell's
   :class:`~repro.model.partition.SystemArrays`;
2. a **versioned on-disk cache** under ``.repro_cache/`` (override with the
   ``REPRO_CACHE_DIR`` env var, disable with ``REPRO_DISK_CACHE=0``): one
   ``.npz`` per cell holding its arrays.  Every load is validated against
   the requested cell (:meth:`~repro.model.partition.SystemArrays.validate`)
   and the ``System`` is a view over the arrays
   (:func:`repro.io.system_codec.system_from_arrays`): a load builds no
   ``Run`` and no ``ViewTable``; the system builds them the first time
   something reads them;
3. on a full miss, an arrays-first build (:mod:`repro.model.fastbuild`),
   after which the ``.npz`` is written for the next process.

Cache files are keyed by ``(mode, n, t, horizon)`` *and* versioned by the
arrays format plus the library version, so a library upgrade or format
change can never resurrect a stale enumeration.  A corrupt, truncated,
foreign or tampered file is a miss: the provider unlinks it, counts an
``arrays_cache_repairs`` event and rebuilds — it never crashes and never
answers from the wrong cell.  Files are written to a temp name carrying
the cell's prefix and renamed into place, so readers only ever see whole
files, and a writer killed mid-save leaves a temp file that the next
store into the cell prunes.

Only exhaustive cells over every configuration are cached; restricted
systems and configuration subsets build fresh through
:func:`~repro.model.system.build_system`, the same arrays-first builder.

Thread-safety: the in-memory layers (system LRU, arrays LRU, hit/miss
counters) are guarded by one lock, so the serve daemon's worker
threads may share the process-wide provider.  Builds and disk I/O happen
*outside* the lock — an enumeration must not serialize unrelated cached
lookups — which means two threads missing on the same cell may both
build it; the second :meth:`SystemProvider._remember` wins and the
duplicate work is bounded by one cell.  The daemon avoids even that by
routing non-resident cells through the fork-pool.
"""

from __future__ import annotations

import os
import tempfile
import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from .. import obs, trace
from ..errors import ConfigurationError
from .failures import FailureMode
from .system import System

#: Default bound on the in-memory layer.  Systems are large; a handful of
#: parameter cells covers every experiment in the suite.
DEFAULT_MAX_MEMORY_ENTRIES = 16

#: Default bound on the in-memory arrays layer.  Array projections are much
#: smaller than systems but accounted separately — arrays pressure must
#: never evict a hot system (and vice versa).
DEFAULT_MAX_ARRAYS_ENTRIES = 8

#: Suffix of in-flight cache writes (numpy appends ``.npz`` to any name
#: without it, so the temp name must already end that way).
TEMP_SUFFIX = ".tmp.npz"

CacheKey = Tuple[str, int, int, int]


def _default_cache_dir() -> str:
    return os.environ.get("REPRO_CACHE_DIR", ".repro_cache")


#: Env values (normalized) that switch the disk layer off.
_DISK_CACHE_FALSY = frozenset({"0", "false", "no", "off"})


def _disk_enabled_default() -> bool:
    raw = os.environ.get("REPRO_DISK_CACHE", "1").strip().lower()
    return raw not in _DISK_CACHE_FALSY


class SystemProvider:
    """Bounded LRUs + one validated ``.npz`` per cell on disk."""

    def __init__(
        self,
        *,
        max_memory_entries: int = DEFAULT_MAX_MEMORY_ENTRIES,
        max_arrays_entries: int = DEFAULT_MAX_ARRAYS_ENTRIES,
        cache_dir: Optional[str] = None,
        disk_cache: Optional[bool] = None,
    ) -> None:
        if max_memory_entries < 1:
            raise ConfigurationError(
                f"need max_memory_entries >= 1, got {max_memory_entries}"
            )
        if max_arrays_entries < 1:
            raise ConfigurationError(
                f"need max_arrays_entries >= 1, got {max_arrays_entries}"
            )
        self.max_memory_entries = max_memory_entries
        self.max_arrays_entries = max_arrays_entries
        self._cache_dir = cache_dir
        self._disk_cache = disk_cache
        self._memory: "OrderedDict[CacheKey, System]" = OrderedDict()
        # Arrays live in their own accounted LRU: sharing the system
        # OrderedDict (the old design) conflated the hit/size/eviction
        # counters and let arrays pressure evict hot systems.
        self._arrays_memory: "OrderedDict[CacheKey, object]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._arrays_evictions = 0
        self._disk_hits = 0
        self._disk_misses = 0
        self._disk_prunes = 0

    # -- configuration -----------------------------------------------------

    @property
    def cache_dir(self) -> str:
        """Directory holding on-disk cache files (env-overridable)."""
        return self._cache_dir or _default_cache_dir()

    @property
    def disk_enabled(self) -> bool:
        """Whether the on-disk layer is active (env-overridable)."""
        if self._disk_cache is not None:
            return self._disk_cache
        return _disk_enabled_default()

    def _cache_path(self, key: CacheKey) -> str:
        name = self._cell_prefix(key) + self._current_suffix()
        return os.path.join(self.cache_dir, name)

    @staticmethod
    def _cell_prefix(key: CacheKey) -> str:
        """Version-free filename prefix shared by all files of a cell."""
        mode, n, t, horizon = key
        return f"system_{mode}_n{n}_t{t}_h{horizon}_"

    def _current_suffix(self) -> str:
        from .. import __version__
        from .partition import ARRAYS_VERSION

        return f"a{ARRAYS_VERSION}_v{__version__}.npz"

    def has_memory_cell(
        self, mode: FailureMode, n: int, t: int, horizon: int
    ) -> bool:
        """Whether the cell is resident in the in-memory LRU right now.

        A pure peek: does not touch recency order or hit/miss counters.
        The serve daemon uses it (with :meth:`has_current_cell`) to place
        queries inline vs. on the fork-pool.
        """
        key: CacheKey = (mode.value, n, t, horizon)
        with self._lock:
            return key in self._memory

    def peek(
        self, mode: FailureMode, n: int, t: int, horizon: int
    ) -> Optional[System]:
        """The memory-resident :class:`System` for a cell, or ``None``.

        A pure peek like :meth:`has_memory_cell` — no build, no disk
        load, no recency bump.  Callers use it for *identity* checks: a
        system instance that ``is`` the peeked cell is the provider's
        canonical exhaustive enumeration for those parameters (a
        restricted/explicit-adversary system never is), so projections
        fetched by ``(mode, n, t, horizon)`` describe exactly it.
        """
        key: CacheKey = (mode.value, n, t, horizon)
        with self._lock:
            return self._memory.get(key)

    def has_current_cell(
        self, mode: FailureMode, n: int, t: int, horizon: int
    ) -> bool:
        """Whether a current-version ``.npz`` exists for the cell.

        A present file means any process can load the cell cheaply: the
        execution engine's build stage skips the worker, and the serve
        daemon answers inline.
        """
        if not self.disk_enabled:
            return False
        key: CacheKey = (mode.value, n, t, horizon)
        return os.path.exists(self._cache_path(key))

    # -- lookup ------------------------------------------------------------

    def get_arrays(self, mode: FailureMode, n: int, t: int, horizon: int):
        """The cell's :class:`~repro.model.partition.SystemArrays`.

        Loads the cell's ``.npz`` when present and otherwise builds the
        arrays with :mod:`repro.model.fastbuild` and writes the file for
        the next process — no ``Run`` object is ever materialized.
        Memoized in their own bounded LRU (``max_arrays_entries``),
        accounted separately from systems.
        """
        key: CacheKey = (mode.value, n, t, horizon)
        with self._lock:
            cached = self._arrays_memory.get(key)
            if cached is not None:
                self._arrays_memory.move_to_end(key)
                obs.count("arrays_cache_hits")
                return cached
        obs.count("arrays_cache_misses")
        arrays = self._load(key, mode, n, t, horizon)
        if arrays is None:
            arrays = self._build_arrays(key, mode, n, t, horizon)
        self._remember_arrays(key, arrays)
        return arrays

    def get(self, mode: FailureMode, n: int, t: int, horizon: int) -> System:
        """The exhaustive system for the cell, through the cache layers.

        A miss loads or builds the cell's arrays and wraps them as the
        system, whose runs and view table are built only when something
        reads them.
        """
        key: CacheKey = (mode.value, n, t, horizon)
        with self._lock:
            cached = self._memory.get(key)
            if cached is not None:
                self._memory.move_to_end(key)
                self._hits += 1
                obs.count("system_cache_hits")
                return cached
            self._misses += 1
            obs.count("system_cache_misses")
        with trace.span(
            "provider.get", mode=mode.value, n=n, t=t, horizon=horizon
        ) as lookup_span:
            arrays = self._load(key, mode, n, t, horizon)
            if arrays is None:
                lookup_span.set("source", "build")
                arrays = self._build_arrays(key, mode, n, t, horizon)
            else:
                lookup_span.set("source", "disk")
            from ..io.system_codec import system_from_arrays

            system = system_from_arrays(arrays)
        self._remember(key, system)
        return system

    def _remember(self, key: CacheKey, system: System) -> None:
        with self._lock:
            self._memory[key] = system
            self._memory.move_to_end(key)
            while len(self._memory) > self.max_memory_entries:
                self._memory.popitem(last=False)
                self._evictions += 1
                obs.count("system_cache_evictions")

    def _remember_arrays(self, key: CacheKey, arrays) -> None:
        with self._lock:
            self._arrays_memory[key] = arrays
            self._arrays_memory.move_to_end(key)
            while len(self._arrays_memory) > self.max_arrays_entries:
                self._arrays_memory.popitem(last=False)
                self._arrays_evictions += 1
                obs.count("arrays_cache_evictions")

    # -- disk layer --------------------------------------------------------

    def _build_arrays(
        self, key: CacheKey, mode: FailureMode, n: int, t: int, horizon: int
    ):
        """Build the cell arrays-first and store them."""
        from . import fastbuild

        arrays = fastbuild.build_arrays(mode, n, t, horizon)
        self._store(key, arrays)
        return arrays

    def _load(
        self, key: CacheKey, mode: FailureMode, n: int, t: int, horizon: int
    ):
        """The cell's validated arrays from disk, or ``None`` on a miss."""
        if not self.disk_enabled:
            return None
        path = self._cache_path(key)
        arrays = None
        if os.path.exists(path):
            from .partition import SystemArrays

            try:
                with obs.stage("disk_cache_load"):
                    arrays = SystemArrays.load(path)
                    arrays.validate(mode.value, n, t, horizon)
            except Exception:
                # Corrupt, truncated, foreign or tampered: never answer
                # from it.  Unlink so the rebuild's store replaces it.
                arrays = None
                try:
                    os.unlink(path)
                    obs.count("arrays_cache_repairs")
                except OSError:
                    pass
        with self._lock:
            if arrays is None:
                self._disk_misses += 1
            else:
                self._disk_hits += 1
        obs.count("disk_cache_misses" if arrays is None else "disk_cache_hits")
        return arrays

    def _store(self, key: CacheKey, arrays) -> None:
        if not self.disk_enabled:
            return
        path = self._cache_path(key)
        try:
            with obs.stage("disk_cache_store"):
                os.makedirs(self.cache_dir, exist_ok=True)
                fd, temp_path = tempfile.mkstemp(
                    dir=self.cache_dir,
                    prefix=self._cell_prefix(key),
                    suffix=TEMP_SUFFIX,
                )
                os.close(fd)
                try:
                    arrays.save(temp_path)
                    os.replace(temp_path, path)
                finally:
                    if os.path.exists(temp_path):
                        os.unlink(temp_path)
            self._prune_stale(key, keep=os.path.basename(path))
        except Exception:
            # Caching must never break evaluation (read-only disk, full
            # disk, a concurrent writer pruning our temp file, ...).
            pass

    def _prune_stale(self, key: CacheKey, *, keep: str) -> None:
        """Delete every other file of the cell.

        Version-stamped filenames mean a format or library bump leaves the
        previous stamp's file behind forever, and a writer killed mid-save
        leaves its temp file; after a successful store the newly written
        file is authoritative, so any sibling with the same ``(mode, n, t,
        horizon)`` prefix is garbage and is removed here.
        """
        prefix = self._cell_prefix(key)
        try:
            names = os.listdir(self.cache_dir)
        except OSError:
            return
        for name in names:
            if name == keep or not name.startswith(prefix):
                continue
            try:
                os.unlink(os.path.join(self.cache_dir, name))
            except OSError:
                continue
            with self._lock:
                self._disk_prunes += 1
            obs.count("disk_cache_prunes")

    # -- introspection -----------------------------------------------------

    def cache_info(self) -> Dict[str, object]:
        """Hit/miss/size statistics for both cache layers."""
        with self._lock:
            info = {
                "hits": self._hits,
                "misses": self._misses,
                "size": len(self._memory),
                "max_size": self.max_memory_entries,
                "evictions": self._evictions,
                "arrays_size": len(self._arrays_memory),
                "arrays_max_size": self.max_arrays_entries,
                "arrays_evictions": self._arrays_evictions,
                "disk_hits": self._disk_hits,
                "disk_misses": self._disk_misses,
                "disk_prunes": self._disk_prunes,
                "keys": list(self._memory.keys()),
            }
        info["disk_stale"] = sum(
            1 for entry in self.disk_entries() if entry["stale"]
        )
        info["disk_enabled"] = self.disk_enabled
        info["cache_dir"] = self.cache_dir
        return info

    def _cell_files(self) -> List[str]:
        """Names of every cell file in the cache dir, temp files included."""
        if not os.path.isdir(self.cache_dir):
            return []
        return sorted(
            name
            for name in os.listdir(self.cache_dir)
            if name.startswith("system_")
        )

    def disk_entries(self) -> List[Dict[str, object]]:
        """The on-disk cache inventory.

        Each entry carries the file name, its size in bytes, and a
        ``stale`` flag — true when the file's version suffix differs from
        the current arrays/library stamp (it will never be read again, only
        pruned on the next store into its cell).  In-flight (or orphaned)
        temp files are not cells and are left out.
        """
        entries: List[Dict[str, object]] = []
        current = self._current_suffix()
        for name in self._cell_files():
            if name.endswith(TEMP_SUFFIX):
                continue
            try:
                size = os.path.getsize(os.path.join(self.cache_dir, name))
            except OSError:
                continue
            entries.append(
                {
                    "file": name,
                    "bytes": size,
                    "stale": not name.endswith(current),
                }
            )
        return entries

    def clear(self, *, disk: bool = False) -> Dict[str, int]:
        """Drop cached systems; returns eviction statistics.

        Args:
            disk: Also delete the on-disk cache files (temp files
                included).

        Returns:
            ``{"evicted": ..., "arrays_evicted": ..., "disk_files_removed":
            ...}`` — how many in-memory systems, in-memory array
            projections and disk files were dropped by this call.
        """
        with self._lock:
            evicted = len(self._memory)
            self._memory.clear()
            self._evictions += evicted
            arrays_evicted = len(self._arrays_memory)
            self._arrays_memory.clear()
            self._arrays_evictions += arrays_evicted
        removed = 0
        if disk:
            for name in self._cell_files():
                try:
                    os.unlink(os.path.join(self.cache_dir, name))
                    removed += 1
                except OSError:
                    pass
        return {
            "evicted": evicted,
            "arrays_evicted": arrays_evicted,
            "disk_files_removed": removed,
        }


#: The process-wide provider used by :mod:`repro.model.builder`.
PROVIDER = SystemProvider()


def get_provider() -> SystemProvider:
    """The process-wide :class:`SystemProvider`."""
    return PROVIDER
