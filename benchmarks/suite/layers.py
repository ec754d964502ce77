"""Per-layer timing hooks, installed from outside the program.

The traced run of the benchmark wraps a closed table of public callables
(:data:`HOOKS`) with timing wrappers and records one span per call: its
layer, start, end and depth below the enclosing hooked call.  A span's
*self* time is its duration minus the time covered by its child spans,
so the self times of all layers add up to the duration of the outermost
spans exactly.

:func:`install` rebinds every module-level alias of a hooked function
(``build_system`` is imported by name into the provider, the builder and
several experiments) and patches methods on their classes;
:meth:`Hooks.remove` restores every binding to the original object.  A
target that no longer exists lands in :attr:`Hooks.missing` instead of
failing, so a change that deletes a code path stays measurable.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: ``(layer, "module:qualname")`` — the closed table of hooked callables.
#: Layer names are ``<module>.<quantity>`` prefixes of the per-layer
#: metrics in BENCHMARK.json; ``experiments`` is the outermost layer.
HOOKS: Tuple[Tuple[str, str], ...] = (
    ("experiments", "repro.experiments.registry:run_experiment"),
    ("experiments", "repro.exec.plan:plan_for"),
    ("experiments", "repro.exec.plan:run_batch"),
    ("serve.session", "repro.serve.session:QueryEngine.execute"),
    ("model.provider", "repro.model.provider:SystemProvider.get"),
    ("model.provider", "repro.model.provider:SystemProvider.get_arrays"),
    ("model.provider", "repro.model.provider:SystemProvider.extend"),
    ("model.system", "repro.model.system:build_system"),
    ("model.system", "repro.model.system:extend_system"),
    ("model.fastbuild", "repro.model.fastbuild:try_build_arrays"),
    ("model.fastbuild", "repro.model.fastbuild:build_arrays"),
    ("io.system_codec", "repro.io.system_codec:dump_system"),
    ("io.system_codec", "repro.io.system_codec:load_system"),
    ("io.system_codec", "repro.io.system_codec:dump_system_pickle"),
    ("io.system_codec", "repro.io.system_codec:load_system_pickle"),
    ("io.system_codec", "repro.model.partition:SystemArrays.save"),
    ("io.system_codec", "repro.model.partition:SystemArrays.load"),
    ("model.partition", "repro.model.partition:SystemArrays.from_system"),
    ("model.partition", "repro.model.partition:SystemArrays.recall_closure"),
    ("model.partition", "repro.model.partition:SystemArrays.first_fire_triggers"),
    ("model.partition", "repro.model.partition:SystemArrays.first_decision"),
    ("model.partition", "repro.model.partition:LimbBlockPartition.from_arrays"),
    ("model.partition", "repro.model.partition:LimbBlockPartition.from_index"),
    ("model.partition", "repro.model.partition:LimbBlockPartition.component_labels"),
    ("model.partition", "repro.model.partition:LimbBlockPartition.believes_true_views"),
    ("model.partition", "repro.model.partition:merge_component_labels"),
    ("model.index", "repro.model.system:System.bitset_index"),
    ("model.index", "repro.model.system:System.chunked_index"),
    ("model.index", "repro.model.chunked:ChunkedIndex.extend_points"),
    ("knowledge.sweep", "repro.knowledge.semantics:eval_knows"),
    ("knowledge.sweep", "repro.knowledge.semantics:eval_believes"),
    ("knowledge.sweep", "repro.knowledge.semantics:eval_everyone"),
    ("knowledge.sweep", "repro.knowledge.semantics:eval_everyone_box"),
    ("knowledge.sweep", "repro.knowledge.semantics:eval_always"),
    ("knowledge.sweep", "repro.knowledge.semantics:eval_eventually"),
    ("knowledge.sweep", "repro.knowledge.semantics:eval_at_all_times"),
    ("knowledge.fixpoint", "repro.knowledge.semantics:eval_common"),
    ("knowledge.fixpoint", "repro.knowledge.semantics:eval_continual_common"),
    ("knowledge.fixpoint", "repro.knowledge.semantics:eval_eventual_common"),
    ("knowledge.fixpoint", "repro.knowledge.semantics:run_reachability_components"),
    ("knowledge.fixpoint", "repro.knowledge.semantics:eval_continual_common_components"),
    ("knowledge.planner", "repro.knowledge.planner:evaluate_formulas"),
    ("knowledge.planner", "repro.knowledge.planner:prefetch"),
    ("knowledge.planner", "repro.knowledge.planner:seed_block_components"),
    ("protocols.fip", "repro.protocols.fip:FullInformationProtocol.outcome"),
    ("protocols.fip", "repro.protocols.fip:FullInformationProtocol.conflicts"),
    ("protocols.fip", "repro.protocols.fip:FullInformationProtocol.sticky_pair"),
    ("protocols.fip", "repro.protocols.fip:pair_from_formulas"),
    ("sim.engine", "repro.sim.engine:run_over_scenarios"),
    ("sim.engine", "repro.sim.engine:traces_over_scenarios"),
    ("core", "repro.core.construction:two_step_optimization"),
    ("core", "repro.core.construction:construction_sequence"),
    ("core", "repro.core.decision_sets:close_under_recall"),
    ("core", "repro.core.domination:compare"),
    ("core", "repro.core.lower_bounds:worst_case_decision_time"),
    ("core", "repro.core.lower_bounds:check_ds82_bounds"),
    ("core", "repro.core.optimality:check_optimality"),
    ("core", "repro.core.search:find_improvement"),
    ("core", "repro.core.search:improvement_report"),
    ("core", "repro.core.specs:check_eba"),
    ("core", "repro.core.specs:check_sba"),
    ("core", "repro.core.specs:check_nontrivial_agreement"),
    ("exec.pool", "repro.exec.pool:ShardPool.run"),
)

#: Layers whose spans also record the size of the file they read or wrote.
BYTES_LAYERS = frozenset({"io.system_codec"})

#: Formula-cache lookups are counted (hit or miss), not timed.
FORMULA_CACHE_TARGET = "repro.model.system:System.cached_evaluation"

#: Every layer a span can carry, in report order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _ in HOOKS))

# One span: (layer, start, end, self seconds, depth, bytes, child spans).
Span = Tuple[str, float, float, float, int, int, int]


class Recorder:
    """Collects spans and formula-cache lookups from every thread.

    Times come from :func:`time.monotonic`, which on Linux reads the
    system-wide monotonic clock, so spans recorded in a daemon or a pool
    worker can be matched against times taken in another process.

    With *spill_dir*, a forked process (a pool worker inherits the hooks)
    appends its spans as JSON lines to ``spans-<pid>.jsonl`` there, one
    flushed line per span, since workers may exit without cleanup.
    """

    def __init__(self, spill_dir: Optional[str] = None) -> None:
        self.spans: List[Span] = []
        #: ``(time, hit)`` per formula-cache lookup.
        self.lookups: List[Tuple[float, bool]] = []
        self.spill_dir = spill_dir
        self._pid = os.getpid()
        self._local = threading.local()
        self._spill: Optional[Tuple[int, object]] = None

    def _stack(self) -> List[List[float]]:
        # A forked child inherits the forking thread's stack; start afresh.
        local = self._local
        pid = os.getpid()
        if getattr(local, "pid", None) != pid:
            local.pid = pid
            local.stack = []
        return local.stack

    def _record(self, span: Span) -> None:
        pid = os.getpid()
        if pid == self._pid:
            self.spans.append(span)
            return
        if self.spill_dir is None:
            return
        if self._spill is None or self._spill[0] != pid:
            path = os.path.join(self.spill_dir, f"spans-{pid}.jsonl")
            self._spill = (pid, open(path, "a", encoding="utf-8"))
        handle = self._spill[1]
        handle.write(json.dumps(span) + "\n")
        handle.flush()

    def wrap(self, layer: str, fn: Callable) -> Callable:
        stack_of = self._stack
        record = self._record
        clock = time.monotonic
        sized = layer in BYTES_LAYERS

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            stack = stack_of()
            children = [0.0, 0]
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                    stack[-1][1] += 1
                nbytes = _file_bytes(args) if sized else 0
                record(
                    (
                        layer, start, end, duration - children[0],
                        len(stack), nbytes, children[1],
                    )
                )

        return hooked

    def wrap_cache_lookup(self, fn: Callable) -> Callable:
        lookups = self.lookups

        @functools.wraps(fn)
        def hooked(system, key, compute):
            computed = []

            def tracked():
                computed.append(True)
                return compute()

            result = fn(system, key, tracked)
            lookups.append((time.monotonic(), not computed))
            return result

        return hooked

    def spilled(self) -> List[List[Span]]:
        """The spans forked processes wrote, one list per process."""
        if self.spill_dir is None or not os.path.isdir(self.spill_dir):
            return []
        processes = []
        for name in sorted(os.listdir(self.spill_dir)):
            with open(os.path.join(self.spill_dir, name), encoding="utf-8") as handle:
                processes.append(
                    [tuple(json.loads(line)) for line in handle if line.endswith("\n")]
                )
        return processes

    def summary(
        self, start: float = float("-inf"), end: float = float("inf")
    ) -> Dict[str, object]:
        """Per-layer totals over the spans that began in ``[start, end]``.

        Returns ``{"layers": {layer: {"calls", "leaf_calls", "self_s",
        "bytes"}}, "outer_s": seconds covered by outermost spans,
        "cache_hits", "cache_lookups"}``.  A leaf call reached no other
        hooked callable — for the provider layer, a memory hit.

        Spans of forked workers (:meth:`spilled`) count as calls, and the
        pool's wall time is split among the layers they were busy in:
        each instant goes to the innermost layer of every busy worker,
        shared equally.  What no worker covered stays ``exec.pool`` self
        time, so self times still add up to ``outer_s``.
        """
        result = empty_summary()
        layers = result["layers"]

        def count(spans: List[Span]) -> None:
            for layer, _, _, _, _, nbytes, nested in spans:
                entry = layers[layer]
                entry["calls"] += 1
                entry["leaf_calls"] += nested == 0
                entry["bytes"] += nbytes

        own = [span for span in self.spans if start <= span[1] <= end]
        count(own)
        for layer, began, ended, self_s, depth, _, _ in own:
            layers[layer]["self_s"] += self_s
            if depth == 0:
                result["outer_s"] += ended - began
        workers = [
            [span for span in spans if start <= span[1] <= end]
            for spans in self.spilled()
        ]
        busy = _share_busy_time([_innermost(spans) for spans in workers])
        pool = layers["exec.pool"]
        scale = min(1.0, pool["self_s"] / sum(busy.values())) if busy else 0.0
        for layer, seconds in busy.items():
            layers[layer]["self_s"] += seconds * scale
            pool["self_s"] -= seconds * scale
        for spans in workers:
            count(spans)
        window = [hit for at, hit in self.lookups if start <= at <= end]
        result["cache_hits"] = sum(window)
        result["cache_lookups"] = len(window)
        return result


def empty_summary() -> Dict[str, object]:
    """A :meth:`Recorder.summary` with nothing recorded."""
    return {
        "layers": {
            layer: {"calls": 0, "leaf_calls": 0, "self_s": 0.0, "bytes": 0}
            for layer in LAYERS
        },
        "outer_s": 0.0,
        "cache_hits": 0,
        "cache_lookups": 0,
    }


def _innermost(spans: List[Span]) -> List[Tuple[float, float, str]]:
    """One process's timeline as ``(start, end, layer)`` segments of its
    innermost active span."""
    events = []
    for index, span in enumerate(spans):
        events.append((span[1], 1, index))
        events.append((span[2], 0, index))
    events.sort()
    active: Dict[int, int] = {}
    segments = []
    last = None
    for at, starting, index in events:
        if active and last is not None and at > last:
            innermost = max(active, key=lambda i: (spans[i][4], spans[i][1]))
            segments.append((last, at, spans[innermost][0]))
        if starting:
            active[index] = spans[index][4]
        else:
            active.pop(index, None)
        last = at
    return segments


def _share_busy_time(timelines: List[List[Tuple[float, float, str]]]) -> Dict[str, float]:
    """Wall seconds per layer, each instant shared by the busy processes."""
    events = []
    for segments in timelines:
        for began, ended, layer in segments:
            events.append((began, 1, layer))
            events.append((ended, -1, layer))
    events.sort()
    active: Dict[str, int] = {}
    shares: Dict[str, float] = {}
    last = None
    for at, delta, layer in events:
        busy = sum(active.values())
        if busy and last is not None and at > last:
            for name, processes in active.items():
                shares[name] = shares.get(name, 0.0) + (at - last) * processes / busy
        active[layer] = active.get(layer, 0) + delta
        if not active[layer]:
            del active[layer]
        last = at
    return shares


def _file_bytes(args) -> int:
    """Size of the file named by the call's first string argument."""
    for arg in args:
        if isinstance(arg, str):
            for path in (arg, arg + ".npz"):
                try:
                    return os.path.getsize(path)
                except OSError:
                    continue
            return 0
    return 0


class Hooks:
    """Installed hooks; :meth:`remove` puts every original back."""

    def __init__(self) -> None:
        #: Targets of :data:`HOOKS` that could not be resolved.
        self.missing: List[str] = []
        # (namespace, attribute, original, replacement)
        self._patches: List[Tuple[object, str, object, object]] = []

    def remove(self) -> None:
        """Restore every patched binding, newest first.

        Modules imported after installation may have copied a wrapper
        (``from x import f``); those aliases are restored as well.
        """
        replaced = {id(new): original for _, _, original, new in self._patches}
        for namespace, name, original, _ in reversed(self._patches):
            setattr(namespace, name, original)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for name, value in list(namespace.items()):
                if id(value) in replaced:
                    setattr(module, name, replaced[id(value)])
        self._patches.clear()


def install(
    recorder: Recorder,
    hooks: Tuple[Tuple[str, str], ...] = HOOKS,
    cache_target: Optional[str] = FORMULA_CACHE_TARGET,
) -> Hooks:
    """Wrap every target of *hooks* (and the formula-cache lookup)."""
    installed = Hooks()
    for layer, target in hooks:
        _install_one(installed, target, lambda fn, layer=layer: recorder.wrap(layer, fn))
    if cache_target is not None:
        _install_one(installed, cache_target, recorder.wrap_cache_lookup)
    return installed


def _install_one(installed: Hooks, target: str, make: Callable) -> None:
    module_name, _, qualname = target.partition(":")
    try:
        module = importlib.import_module(module_name)
        owner: object = module
        *path, name = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        raw = (
            owner.__dict__[name]
            if isinstance(owner, type)
            else getattr(owner, name)
        )
    except (ImportError, AttributeError, KeyError):
        installed.missing.append(target)
        return
    if isinstance(owner, type):
        replacement = _wrap_member(raw, make)
        if replacement is None:
            installed.missing.append(target)
            return
        setattr(owner, name, replacement)
        installed._patches.append((owner, name, raw, replacement))
        return
    replacement = make(raw)
    for alias_module in list(sys.modules.values()):
        namespace = getattr(alias_module, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for alias, value in list(namespace.items()):
            if value is raw:
                setattr(alias_module, alias, replacement)
                installed._patches.append((alias_module, alias, raw, replacement))


def _wrap_member(raw: object, make: Callable) -> Optional[object]:
    """Wrap a class member, keeping its descriptor kind."""
    if isinstance(raw, staticmethod):
        return staticmethod(make(raw.__func__))
    if isinstance(raw, classmethod):
        return classmethod(make(raw.__func__))
    if callable(raw):
        return make(raw)
    return None
