"""SystemProvider: the layered cache pipeline for enumerated systems.

Every experiment and knowledge query funnels through one enumeration per
``(mode, n, t, horizon)`` cell.  This module layers the lookup:

1. a **bounded in-memory LRU** (hits are free and share one
   :class:`~repro.model.system.System` instance process-wide, exactly like
   the old ``_SYSTEM_CACHE`` dict — but bounded and introspectable);
2. a **versioned on-disk cache** under ``.repro_cache/`` (override with the
   ``REPRO_CACHE_DIR`` env var, disable with ``REPRO_DISK_CACHE=0``),
   round-tripped through :mod:`repro.io.system_codec` so a warm process
   skips the doubly-exponential enumeration entirely; each cell keeps a
   portable JSON payload plus a **pickle sidecar** (``REPRO_PICKLE_CACHE=0``
   disables it) that loads ~4-5x faster on the huge cells and is tried
   first, falling back to JSON on any mismatch;
3. a fresh (possibly parallel) :func:`~repro.model.system.build_system` on
   a full miss, after which both cache layers are populated.

Cache files are keyed by ``(mode, n, t, horizon)`` *and* versioned by the
codec version plus the library version, so a library upgrade or payload
change can never resurrect a stale enumeration.  Corrupted or unreadable
cache files are treated as misses: the provider rebuilds and overwrites
them, never crashes.

Only exhaustive default-config systems are cached; restricted systems and
explicit config subsets always build fresh.

Thread-safety: the in-memory layers (system LRU, arrays LRU, hit/miss
counters) are guarded by one reentrant lock, so the serve daemon's worker
threads may share the process-wide provider.  Builds and disk I/O happen
*outside* the lock — a doubly-exponential enumeration must not serialize
unrelated cached lookups — which means two threads missing on the same
cell may both build it; the second :meth:`SystemProvider._remember` wins
and the duplicate work is bounded by one cell.  The daemon avoids even
that by routing non-resident cells through the fork-pool.
"""

from __future__ import annotations

import os
import tempfile
import threading
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Tuple

from .. import obs, trace
from ..errors import ConfigurationError
from .adversary import exhaustive_adversary
from .config import InitialConfiguration
from .failures import FailureMode
from .system import System, build_system, extend_system

#: Default bound on the in-memory layer.  Systems are large; a handful of
#: parameter cells covers every experiment in the suite.
DEFAULT_MAX_MEMORY_ENTRIES = 16

#: Default bound on the in-memory arrays layer.  Array projections are much
#: smaller than systems but accounted separately — arrays pressure must
#: never evict a hot system (and vice versa).
DEFAULT_MAX_ARRAYS_ENTRIES = 8

CacheKey = Tuple[str, int, int, int]


def _default_cache_dir() -> str:
    return os.environ.get("REPRO_CACHE_DIR", ".repro_cache")


#: Env values (normalized) that switch the disk layer off.
_DISK_CACHE_FALSY = frozenset({"0", "false", "no", "off"})


def _disk_enabled_default() -> bool:
    raw = os.environ.get("REPRO_DISK_CACHE", "1").strip().lower()
    return raw not in _DISK_CACHE_FALSY


def _pickle_enabled_default() -> bool:
    raw = os.environ.get("REPRO_PICKLE_CACHE", "1").strip().lower()
    return raw not in _DISK_CACHE_FALSY


class SystemProvider:
    """Bounded LRU + versioned disk cache in front of ``build_system``."""

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
        # Reentrant: _remember (locked) is reached from get (locked
        # sections) and from extend's per-round loop.
        self._lock = threading.RLock()
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
        from ..io.system_codec import CODEC_VERSION

        return f"c{CODEC_VERSION}_v{__version__}.json.gz"

    def _pickle_suffix(self) -> str:
        from .. import __version__
        from ..io.system_codec import CODEC_VERSION

        return f"c{CODEC_VERSION}_v{__version__}.pickle"

    def _pickle_path(self, key: CacheKey) -> str:
        name = self._cell_prefix(key) + self._pickle_suffix()
        return os.path.join(self.cache_dir, name)

    def _arrays_suffix(self) -> str:
        from .. import __version__
        from ..io.system_codec import CODEC_VERSION
        from .partition import ARRAYS_VERSION

        return f"a{ARRAYS_VERSION}_c{CODEC_VERSION}_v{__version__}.npz"

    def _arrays_path(self, key: CacheKey) -> str:
        name = self._cell_prefix(key) + self._arrays_suffix()
        return os.path.join(self.cache_dir, name)

    @property
    def pickle_enabled(self) -> bool:
        """Whether the pickle sidecar layer is active (env-overridable)."""
        return self.disk_enabled and _pickle_enabled_default()

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
        """Whether a current-version disk file exists for the cell.

        Used by the execution engine's build stage to decide if a worker
        needs to enumerate: a present file means the parent can load the
        system cheaply, so the build shard is a no-op.
        """
        if not self.disk_enabled:
            return False
        key: CacheKey = (mode.value, n, t, horizon)
        return os.path.exists(self._cache_path(key)) or (
            self.pickle_enabled and os.path.exists(self._pickle_path(key))
        )

    def has_current_arrays(
        self, mode: FailureMode, n: int, t: int, horizon: int
    ) -> bool:
        """Whether a current-version ``.npz`` array sidecar exists."""
        if not self.disk_enabled:
            return False
        key: CacheKey = (mode.value, n, t, horizon)
        return os.path.exists(self._arrays_path(key))

    def get_arrays(self, mode: FailureMode, n: int, t: int, horizon: int):
        """The cell's :class:`~repro.model.partition.SystemArrays`.

        Loads the ``.npz`` sidecar when present — orders of magnitude
        cheaper than unpickling the ``Run`` objects on the big cells —
        and otherwise projects the full system (through :meth:`get`,
        populating the regular layers on the way) and writes the sidecar
        for the next process.  Array projections are memoized in their
        own bounded LRU (``max_arrays_entries``), accounted separately
        from systems.
        """
        from .partition import SystemArrays

        key: CacheKey = (mode.value, n, t, horizon)
        with self._lock:
            cached = self._arrays_memory.get(key)
            if cached is not None:
                self._arrays_memory.move_to_end(key)
                obs.count("arrays_cache_hits")
                return cached
        arrays = None
        path = self._arrays_path(key)
        if self.disk_enabled and os.path.exists(path):
            try:
                with obs.stage("arrays_cache_load"):
                    arrays = SystemArrays.load(path)
                obs.count("arrays_disk_hits")
            except Exception:
                arrays = None
        if arrays is None:
            obs.count("arrays_cache_misses")
            # Arrays-first fast path: when the object graph is not
            # already materialized anywhere (memory or disk), enumerate
            # straight into arrays and skip Run/ViewTable construction
            # entirely — evaluation-only consumers never pay for the
            # object graph.  Byte-identical to the projection below.
            if not self.has_memory_cell(mode, n, t, horizon) and not (
                self.has_current_cell(mode, n, t, horizon)
            ):
                from . import fastbuild

                arrays = fastbuild.try_build_arrays(mode, n, t, horizon)
                if arrays is not None:
                    self._store_arrays(key, arrays)
            if arrays is None:
                system = self.get(mode, n, t, horizon)
                arrays = SystemArrays.from_system(system)
                self._store_arrays(key, arrays)
        self._remember_arrays(key, arrays)
        return arrays

    def _store_arrays(self, key: CacheKey, arrays) -> None:
        if not self.disk_enabled:
            return
        path = self._arrays_path(key)
        try:
            with obs.stage("arrays_cache_store"):
                os.makedirs(self.cache_dir, exist_ok=True)
                # numpy appends ``.npz`` to names without it, so the
                # temp file must already end that way to stay findable.
                fd, temp_path = tempfile.mkstemp(
                    dir=self.cache_dir, suffix=".tmp.npz"
                )
                os.close(fd)
                try:
                    arrays.save(temp_path)
                    os.replace(temp_path, path)
                finally:
                    if os.path.exists(temp_path):
                        os.unlink(temp_path)
            # Same keep-set discipline as _store_to_disk: an arrays-only
            # workflow (get_arrays over a warm system cache) must not leak
            # old-version .npz siblings after a codec or numpy bump.
            self._prune_stale(
                key,
                keep={
                    os.path.basename(self._cache_path(key)),
                    os.path.basename(self._pickle_path(key)),
                    os.path.basename(path),
                },
            )
        except Exception:
            # Same contract as the other layers: caching must never
            # break evaluation (read-only disk, full disk, ...).
            pass

    # -- lookup ------------------------------------------------------------

    def get(
        self,
        mode: FailureMode,
        n: int,
        t: int,
        horizon: int,
        *,
        configs: Optional[Iterable[InitialConfiguration]] = None,
        use_cache: bool = True,
        workers: Optional[int] = None,
    ) -> System:
        """The exhaustive system for the cell, through the cache layers.

        ``configs`` subsets and ``use_cache=False`` bypass both layers and
        build fresh.
        """
        if configs is not None or not use_cache:
            return self._build(mode, n, t, horizon, configs, workers)
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
            system = self._load_from_disk(key, mode, n, t, horizon)
            if system is None:
                lookup_span.set("source", "build")
                system = self._build(mode, n, t, horizon, None, workers)
                self._store_to_disk(key, system)
            else:
                lookup_span.set("source", "disk")
        self._remember(key, system)
        return system

    def extend(
        self, mode: FailureMode, n: int, t: int, horizon: int
    ) -> System:
        """The cell's system, grown incrementally from a shallower cell.

        Scans horizons ``horizon-1 .. 1`` for the deepest available base —
        the in-memory LRU first, then a current-version disk file — and
        extends it round by round through
        :func:`~repro.model.system.extend_system`, which is identical to a
        fresh build but pays only one new round (plus an amortized prefix
        remap) per step.  Every intermediate horizon is remembered in the
        LRU, so a streaming monitor advancing one round at a time always
        extends from the previous round.  Only the target cell is written
        to disk.  With no shallower cell cached this degrades to
        :meth:`get`.
        """
        key: CacheKey = (mode.value, n, t, horizon)
        with self._lock:
            cached = self._memory.get(key)
            if cached is not None:
                self._memory.move_to_end(key)
                self._hits += 1
                obs.count("system_cache_hits")
                return cached
        base: Optional[System] = None
        base_horizon = 0
        for h0 in range(horizon - 1, 0, -1):
            base_key: CacheKey = (mode.value, n, t, h0)
            with self._lock:
                base = self._memory.get(base_key)
                if base is not None:
                    self._memory.move_to_end(base_key)
            if base is not None:
                base_horizon = h0
                break
            if self.has_current_cell(mode, n, t, h0):
                base = self.get(mode, n, t, h0)
                base_horizon = h0
                break
        if base is None:
            return self.get(mode, n, t, horizon)
        with self._lock:
            self._misses += 1
            obs.count("system_cache_misses")
        with trace.span(
            "provider.extend",
            mode=mode.value,
            n=n,
            t=t,
            horizon=horizon,
            base_horizon=base_horizon,
        ):
            system = base
            for next_horizon in range(base_horizon + 1, horizon + 1):
                adversary = exhaustive_adversary(mode, n, t, next_horizon)
                system = extend_system(system, adversary)
                obs.count("system_extends")
                self._remember((mode.value, n, t, next_horizon), system)
            self._store_to_disk(key, system)
        return system

    def _build(
        self,
        mode: FailureMode,
        n: int,
        t: int,
        horizon: int,
        configs: Optional[Iterable[InitialConfiguration]],
        workers: Optional[int],
    ) -> System:
        adversary = exhaustive_adversary(mode, n, t, horizon)
        return build_system(adversary, configs=configs, workers=workers)

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

    def _load_from_disk(
        self, key: CacheKey, mode: FailureMode, n: int, t: int, horizon: int
    ) -> Optional[System]:
        if not self.disk_enabled:
            return None
        system = self._load_pickle(key, mode, n, t, horizon)
        if system is not None:
            self._disk_hits += 1
            obs.count("disk_cache_hits")
            return system
        path = self._cache_path(key)
        if not os.path.exists(path):
            self._disk_misses += 1
            obs.count("disk_cache_misses")
            return None
        try:
            with obs.stage("disk_cache_load"):
                from ..io.system_codec import load_system

                system = load_system(path)
            if (system.n, system.t, system.horizon) != (n, t, horizon) or (
                system.mode is not mode
            ):
                raise ConfigurationError(
                    f"cache file {path} holds a different system"
                )
        except Exception:
            # Corrupted, truncated or mismatched file: treat as a miss and
            # let the rebuild overwrite it.
            self._disk_misses += 1
            obs.count("disk_cache_misses")
            return None
        self._disk_hits += 1
        obs.count("disk_cache_hits")
        # Backfill the fast sidecar so the next process skips the replay.
        self._store_pickle(key, system)
        return system

    def _load_pickle(
        self, key: CacheKey, mode: FailureMode, n: int, t: int, horizon: int
    ) -> Optional[System]:
        """Try the fast sidecar; any problem degrades to the JSON layer."""
        if not self.pickle_enabled:
            return None
        path = self._pickle_path(key)
        if not os.path.exists(path):
            return None
        try:
            with obs.stage("disk_cache_load"):
                from ..io.system_codec import load_system_pickle

                system = load_system_pickle(path)
            if (system.n, system.t, system.horizon) != (n, t, horizon) or (
                system.mode is not mode
            ):
                raise ConfigurationError(
                    f"pickle sidecar {path} holds a different system"
                )
        except Exception:
            # A sidecar that fails to load (truncated by a crashed run,
            # or holding the wrong system) would otherwise linger forever:
            # _store_pickle early-returns when the path exists, so it was
            # never repaired.  Delete it here so the next store — the JSON
            # backfill a few frames up, or the next fresh build — rewrites
            # a good one.
            try:
                os.unlink(path)
                obs.count("pickle_cache_repairs")
            except OSError:
                pass
            return None
        obs.count("pickle_cache_hits")
        return system

    def _store_pickle(self, key: CacheKey, system: System) -> None:
        if not self.pickle_enabled:
            return
        path = self._pickle_path(key)
        if os.path.exists(path):
            return
        try:
            with obs.stage("disk_cache_store"):
                os.makedirs(self.cache_dir, exist_ok=True)
                fd, temp_path = tempfile.mkstemp(
                    dir=self.cache_dir, suffix=".tmp"
                )
                os.close(fd)
                try:
                    from ..io.system_codec import dump_system_pickle

                    dump_system_pickle(system, temp_path)
                    os.replace(temp_path, path)
                finally:
                    if os.path.exists(temp_path):
                        os.unlink(temp_path)
        except OSError:
            pass

    def _store_to_disk(self, key: CacheKey, system: System) -> None:
        if not self.disk_enabled:
            return
        path = self._cache_path(key)
        try:
            with obs.stage("disk_cache_store"):
                os.makedirs(self.cache_dir, exist_ok=True)
                fd, temp_path = tempfile.mkstemp(
                    dir=self.cache_dir, suffix=".tmp"
                )
                os.close(fd)
                try:
                    from ..io.system_codec import dump_system

                    dump_system(system, temp_path)
                    os.replace(temp_path, path)
                finally:
                    if os.path.exists(temp_path):
                        os.unlink(temp_path)
            self._store_pickle(key, system)
            self._prune_stale(
                key,
                keep={
                    os.path.basename(path),
                    os.path.basename(self._pickle_path(key)),
                    os.path.basename(self._arrays_path(key)),
                },
            )
        except OSError:
            # A read-only or full filesystem must never break enumeration.
            pass

    def _prune_stale(self, key: CacheKey, *, keep) -> None:
        """Delete superseded cache files of the same parameter cell.

        Version-stamped filenames mean a codec or library bump leaves the
        previous stamp's file behind forever; after a successful store the
        newly written files are authoritative, so any sibling with the same
        ``(mode, n, t, horizon)`` prefix but a different version suffix —
        JSON payload or pickle sidecar — is garbage and is removed here.
        """
        if isinstance(keep, str):
            keep = {keep}
        prefix = self._cell_prefix(key)
        try:
            names = os.listdir(self.cache_dir)
        except OSError:
            return
        for name in names:
            if name in keep:
                continue
            if not name.startswith(prefix) or not (
                name.endswith(".json.gz")
                or name.endswith(".pickle")
                or name.endswith(".npz")
            ):
                continue
            try:
                os.unlink(os.path.join(self.cache_dir, name))
            except OSError:
                continue
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

    def disk_entries(self) -> List[Dict[str, object]]:
        """The on-disk cache inventory.

        Each entry carries the file name, its size in bytes, and a
        ``stale`` flag — true when the file's version suffix differs from
        the current codec/library stamp (it will never be read again, only
        pruned on the next store into its cell).
        """
        entries: List[Dict[str, object]] = []
        if not os.path.isdir(self.cache_dir):
            return entries
        current = {
            ".json.gz": self._current_suffix(),
            ".pickle": self._pickle_suffix(),
            ".npz": self._arrays_suffix(),
        }
        for name in sorted(os.listdir(self.cache_dir)):
            extension = next(
                (ext for ext in current if name.endswith(ext)), None
            )
            if extension is None:
                continue
            path = os.path.join(self.cache_dir, name)
            try:
                size = os.path.getsize(path)
            except OSError:
                continue
            entries.append(
                {
                    "file": name,
                    "bytes": size,
                    "stale": name.startswith("system_")
                    and not name.endswith(current[extension]),
                }
            )
        return entries

    def clear(self, *, disk: bool = False) -> Dict[str, int]:
        """Drop cached systems; returns eviction statistics.

        Args:
            disk: Also delete the on-disk cache files.

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
        if disk and os.path.isdir(self.cache_dir):
            for entry in self.disk_entries():
                try:
                    os.unlink(os.path.join(self.cache_dir, str(entry["file"])))
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
