"""Produce one bench snapshot of the tier-1 micro benches.

Standalone runner (not a pytest file): times the same hot paths as
``bench_micro_core.py`` with a plain best-of-rounds ``perf_counter`` loop,
then appends the snapshot to the JSONL history so
``repro-eba bench-compare --history`` can diff consecutive CI runs.

Usage::

    PYTHONPATH=src python benchmarks/regression.py \
        --label ci-$GITHUB_SHA --history BENCH_HISTORY.jsonl

Timings use best-of-N (default 3) rounds: the minimum is the least noisy
location statistic for CI machines with background load.
"""

from __future__ import annotations

import argparse
import platform
import sys
import time
from typing import Callable, Dict, Optional

from repro.bench.regression import (
    BenchSnapshot,
    DEFAULT_HISTORY,
    append_history,
    compare_snapshots,
    load_history,
)


def _bench_enumerate_crash_n4() -> None:
    from repro.model.adversary import ExhaustiveCrashAdversary
    from repro.model.system import build_system

    build_system(ExhaustiveCrashAdversary(4, 1, 3))


def _bench_continual_ck_components() -> None:
    from repro.knowledge.formulas import Exists
    from repro.knowledge.nonrigid import NONFAULTY
    from repro.knowledge.semantics import eval_continual_common_components
    from repro.model.builder import crash_system

    system = crash_system(4, 1, 3)
    phi = Exists(1).evaluate(system)
    # Drop the component memo so the union-find scan itself is timed.
    system._components_cache.clear()
    eval_continual_common_components(system, NONFAULTY, phi.run_levels())


def _bench_continual_ck_fixpoint() -> None:
    from repro.knowledge.formulas import Exists
    from repro.knowledge.nonrigid import NONFAULTY
    from repro.knowledge.semantics import eval_continual_common
    from repro.model.builder import crash_system

    system = crash_system(3, 1, 3)
    phi = Exists(1).evaluate(system)
    eval_continual_common(system, NONFAULTY, phi)


def _bench_two_step_construction() -> None:
    from repro.core.construction import two_step_optimization
    from repro.core.decision_sets import empty_pair
    from repro.model.builder import crash_system

    system = crash_system(3, 1, 3)
    system.clear_caches()
    two_step_optimization(system, empty_pair())


def _bench_simulator_throughput() -> None:
    from repro.model.builder import crash_system
    from repro.protocols.p0opt import p0opt
    from repro.sim.engine import run_over_scenarios

    system = crash_system(4, 1, 3)
    run_over_scenarios(p0opt(), system.scenarios(), 3, 1)


def _kernel_fixpoint_bench(kernel_name: str) -> None:
    from repro.knowledge.formulas import Exists
    from repro.knowledge.nonrigid import NONFAULTY
    from repro.knowledge.semantics import eval_common
    from repro.model import kernels
    from repro.model.builder import crash_system

    system = crash_system(4, 1, 3)
    with kernels.use_kernel(kernel_name):
        system.clear_caches()
        eval_common(system, NONFAULTY, Exists(1).evaluate(system))


def _bench_kernel_bitset_fixpoint() -> None:
    _kernel_fixpoint_bench("bitset")


def _bench_kernel_chunked_fixpoint() -> None:
    _kernel_fixpoint_bench("chunked")


def _bench_kernel_reference_fixpoint() -> None:
    _kernel_fixpoint_bench("reference")


_CHUNKED_1M_PAIR = []


def _bench_kernel_chunked_algebra_1m() -> None:
    """Limb-array boolean algebra at the 1M-point synthetic scale.

    The operand construction is cached across rounds so the timing is the
    algebra loop itself (mirroring ``bench_chunked.py``, where operands
    are built outside the benchmarked callable).
    """
    import random

    from repro.model.chunked import ChunkedAssignment

    if not _CHUNKED_1M_PAIR:
        num_runs, width = 1 << 18, 4

        class Shape:
            runs = range(num_runs)
            horizon = width - 1

        def rows(seed):
            rng = random.Random(seed)
            return [
                [rng.random() < 0.5 for _ in range(width)]
                for _ in range(num_runs)
            ]

        _CHUNKED_1M_PAIR.extend(
            ChunkedAssignment.from_rows(Shape(), rows(seed))
            for seed in (1, 2)
        )
    phi, psi = _CHUNKED_1M_PAIR
    acc = phi
    for _ in range(50):
        acc = acc.conjoin(psi).disjoin(phi).negate()
    acc.count_true()


_CHUNKED_10M_PAIR = []


def _bench_kernel_chunked_algebra_10m() -> None:
    """Limb-array boolean algebra at the 10M-point synthetic scale.

    The ROADMAP item-3 cell: operands are drawn directly as uint64 limbs
    (cached across rounds, through ``bench_chunked._chunked_operand``) so
    the timing is the algebra loop itself.
    """
    import importlib.util
    import os
    import sys

    if not _CHUNKED_10M_PAIR:
        bench_dir = os.path.dirname(os.path.abspath(__file__))
        spec = importlib.util.spec_from_file_location(
            "_bench_chunked_module",
            os.path.join(bench_dir, "bench_chunked.py"),
        )
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
        _CHUNKED_10M_PAIR.extend(
            module._chunked_operand("10m", seed) for seed in (1, 2)
        )
    phi, psi = _CHUNKED_10M_PAIR
    acc = phi
    for _ in range(50):
        acc = acc.conjoin(psi).disjoin(phi).negate()
    acc.count_true()


_EXTEND_BASE = []


def _bench_extend_omission_h2_to_h3() -> None:
    """Incremental extension of the E9-class omission cell.

    The horizon-2 base is built once and cached across rounds, so the
    timing is the extension itself — the A side of the extend-vs-rebuild
    comparison whose B side is ``enumerate_omission_system_h3``.
    """
    from repro.model.adversary import ExhaustiveOmissionAdversary
    from repro.model.system import build_system, extend_system

    if not _EXTEND_BASE:
        _EXTEND_BASE.append(
            build_system(ExhaustiveOmissionAdversary(3, 1, 2))
        )
    extend_system(_EXTEND_BASE[0], ExhaustiveOmissionAdversary(3, 1, 3))


def _bench_enumerate_omission_h3() -> None:
    from repro.model.adversary import ExhaustiveOmissionAdversary
    from repro.model.system import build_system

    build_system(ExhaustiveOmissionAdversary(3, 1, 3))


def _bench_kernel_bitset_everyone() -> None:
    from repro.knowledge.formulas import Exists
    from repro.knowledge.nonrigid import NONFAULTY
    from repro.knowledge.semantics import eval_everyone
    from repro.model import kernels
    from repro.model.builder import crash_system

    system = crash_system(4, 1, 3)
    with kernels.use_kernel("bitset"):
        system.clear_caches()
        eval_everyone(system, NONFAULTY, Exists(1).evaluate(system))


#: The tier-1 micro benches tracked for regressions (mirrors
#: ``bench_micro_core.py``, ``bench_kernels.py`` and
#: ``bench_chunked.py``).
MICRO_BENCHES: Dict[str, Callable[[], None]] = {
    "enumerate_crash_system_n4": _bench_enumerate_crash_n4,
    "continual_ck_component_fast_path": _bench_continual_ck_components,
    "continual_ck_fixpoint_reference": _bench_continual_ck_fixpoint,
    "two_step_construction_crash_n3": _bench_two_step_construction,
    "simulator_throughput_p0opt": _bench_simulator_throughput,
    "kernel_bitset_common_fixpoint": _bench_kernel_bitset_fixpoint,
    "kernel_chunked_common_fixpoint": _bench_kernel_chunked_fixpoint,
    "kernel_reference_common_fixpoint": _bench_kernel_reference_fixpoint,
    "kernel_bitset_everyone_sweep": _bench_kernel_bitset_everyone,
    "extend_omission_h2_to_h3": _bench_extend_omission_h2_to_h3,
    "enumerate_omission_system_h3": _bench_enumerate_omission_h3,
    "kernel_chunked_algebra_1m": _bench_kernel_chunked_algebra_1m,
    "kernel_chunked_algebra_10m": _bench_kernel_chunked_algebra_10m,
}


#: What each bench evaluates with, for the per-entry kernel metadata:
#: ``None`` means no formula evaluation at all (pure construction or
#: simulation — no kernel is involved); otherwise a ``(requested, cell)``
#: pair where *requested* is a pinned kernel name (the bench enters
#: ``use_kernel`` or constructs that representation directly) or ``None``
#: for the ambient :func:`~repro.model.kernels.active_kernel`, and
#: *cell* names the system the bench evaluates on (its point count feeds
#: :func:`~repro.model.kernels.resolve_selection`, so any size upgrade —
#: e.g. ``bitset`` → ``chunked`` past the point limit — is reflected in
#: what gets recorded) or ``None`` for synthetic operands with no system.
BENCH_KERNELS: Dict[str, Optional[tuple]] = {
    "enumerate_crash_system_n4": None,
    "continual_ck_component_fast_path": (None, "crash-n4t1h3"),
    "continual_ck_fixpoint_reference": (None, "crash-n3t1h3"),
    "two_step_construction_crash_n3": (None, "crash-n3t1h3"),
    "simulator_throughput_p0opt": None,
    "kernel_bitset_common_fixpoint": ("bitset", "crash-n4t1h3"),
    "kernel_chunked_common_fixpoint": ("chunked", "crash-n4t1h3"),
    "kernel_reference_common_fixpoint": ("reference", "crash-n4t1h3"),
    "kernel_bitset_everyone_sweep": ("bitset", "crash-n4t1h3"),
    "extend_omission_h2_to_h3": None,
    "enumerate_omission_system_h3": None,
    "kernel_chunked_algebra_1m": ("chunked", None),
    "kernel_chunked_algebra_10m": ("chunked", None),
}

#: Point counts of the cells named in :data:`BENCH_KERNELS`, fetched
#: lazily (after the benches ran these are provider cache hits).
_CELL_POINTS: Dict[str, Callable[[], int]] = {
    "crash-n4t1h3": lambda: _cell_points(4),
    "crash-n3t1h3": lambda: _cell_points(3),
}


def _cell_points(n: int) -> int:
    from repro.model.builder import crash_system

    return crash_system(n, 1, 3).num_points()


def entry_kernels(
    names, extra_kernels: Optional[Dict[str, str]] = None
) -> Dict[str, Optional[str]]:
    """The *effective* kernel each timed entry ran under, or ``None``.

    This is what the old snapshot-wide ``meta["kernel"]`` silently got
    wrong: it recorded :func:`~repro.model.kernels.active_kernel` — the
    *requested* kernel — even for benches that pin another kernel or
    whose system auto-upgrades past the bitset point limit.  Here every
    entry resolves through the same
    :func:`~repro.model.kernels.resolve_selection` rule the evaluator
    uses; externally measured walls take their kernel from the
    ``--extra NAME=SECONDS@KERNEL`` suffix (``None`` when not given).
    """
    from repro.model.kernels import active_kernel, resolve_selection

    ambient = active_kernel()
    points: Dict[str, int] = {}
    resolved: Dict[str, Optional[str]] = {}
    for name in names:
        if extra_kernels is not None and name in extra_kernels:
            resolved[name] = extra_kernels[name]
            continue
        info = BENCH_KERNELS.get(name)
        if info is None:
            resolved[name] = None
            continue
        requested, cell = info
        if requested is None:
            requested = ambient
        if cell is None:
            resolved[name] = requested
            continue
        if cell not in points:
            points[cell] = _CELL_POINTS[cell]()
        resolved[name] = resolve_selection(requested, points[cell])
    return resolved


def best_of(bench: Callable[[], None], rounds: int) -> float:
    """Best-of-*rounds* wall time, with one untimed warmup round."""
    bench()
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        bench()
        best = min(best, time.perf_counter() - start)
    return best


def take_snapshot(
    label: str,
    rounds: int = 3,
    extra: Optional[Dict[str, float]] = None,
    extra_kernels: Optional[Dict[str, str]] = None,
) -> BenchSnapshot:
    """Time every micro bench; return the snapshot.

    ``extra`` merges externally measured walls into the snapshot — e.g.
    the sharded ``batch run E9`` wall clock, which is measured by the
    batch runner itself rather than re-run here — so end-to-end numbers
    ride the same history and regression gate as the micro benches.
    ``extra_kernels`` names the kernel each extra ran under (from the
    ``--extra NAME=SECONDS@KERNEL`` suffix) for the per-entry metadata.

    Snapshot metadata records both the ambient requested kernel
    (``meta["kernel"]``, kept for history compatibility) and the
    per-entry effective kernels (``meta["entry_kernels"]``) — see
    :func:`entry_kernels` for why the latter is the trustworthy one.
    """
    timings: Dict[str, float] = dict(extra or {})
    for name, seconds in timings.items():
        print(f"{name:<40} {seconds:.6f}s (extra)", flush=True)
    for name, bench in MICRO_BENCHES.items():
        timings[name] = best_of(bench, rounds)
        print(f"{name:<40} {timings[name]:.6f}s", flush=True)
    from repro.model.chunked import backend_name
    from repro.model.kernels import active_kernel

    return BenchSnapshot(
        label=label,
        timings=timings,
        meta={
            "rounds": rounds,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "kernel": active_kernel(),
            "entry_kernels": entry_kernels(sorted(timings), extra_kernels),
            "chunked_backend": backend_name(),
        },
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="record a micro-bench snapshot into the JSONL history"
    )
    parser.add_argument("--label", default="local", help="snapshot label")
    parser.add_argument(
        "--history", default=DEFAULT_HISTORY,
        help=f"JSONL history path (default {DEFAULT_HISTORY})",
    )
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument(
        "--no-append", action="store_true",
        help="time only; do not write the history",
    )
    parser.add_argument(
        "--extra", action="append", default=[],
        metavar="NAME=SECONDS[@KERNEL]",
        help="record an externally measured wall (repeatable), e.g. "
        "--extra exec_e9_limb_shard_w4=4.7@chunked; the optional @KERNEL "
        "suffix names the effective kernel for the per-entry metadata",
    )
    args = parser.parse_args(argv)
    from repro.model.kernels import KERNELS

    extra: Dict[str, float] = {}
    extra_kernels: Dict[str, str] = {}
    for item in args.extra:
        name, _, rest = item.partition("=")
        seconds, _, kernel = rest.partition("@")
        if not name or not seconds:
            parser.error(
                f"--extra expects NAME=SECONDS[@KERNEL], got {item!r}"
            )
        try:
            extra[name] = float(seconds)
        except ValueError:
            parser.error(f"--extra {item!r}: {seconds!r} is not a number")
        if kernel:
            if kernel not in KERNELS:
                parser.error(
                    f"--extra {item!r}: kernel must be one of "
                    f"{', '.join(KERNELS)}"
                )
            extra_kernels[name] = kernel
    snapshot = take_snapshot(
        args.label,
        rounds=args.rounds,
        extra=extra,
        extra_kernels=extra_kernels,
    )
    previous = load_history(args.history)
    if not args.no_append:
        append_history(args.history, snapshot)
        print(f"appended snapshot {args.label!r} to {args.history}")
    if previous:
        report = compare_snapshots(previous[-1], snapshot)
        print()
        print(report.render())
    return 0


if __name__ == "__main__":
    sys.exit(main())
