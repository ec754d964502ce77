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


def _bench_kernel_chunked_fixpoint() -> None:
    from repro.knowledge.formulas import Exists
    from repro.knowledge.nonrigid import NONFAULTY
    from repro.knowledge.semantics import eval_common
    from repro.model.builder import crash_system

    system = crash_system(4, 1, 3)
    system.clear_caches()
    eval_common(system, NONFAULTY, Exists(1).evaluate(system))


_CHUNKED_1M_PAIR = []


def _bench_kernel_chunked_algebra_1m() -> None:
    """Limb-array boolean algebra at the 1M-point synthetic scale.

    The operand construction is cached across rounds so the timing is the
    algebra loop itself (mirroring ``bench_chunked.py``, where operands
    are built outside the benchmarked callable).
    """
    import random

    from repro.model.system import TruthAssignment

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
            TruthAssignment.from_rows(Shape(), rows(seed))
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


def _bench_enumerate_omission_h3() -> None:
    from repro.model.adversary import ExhaustiveOmissionAdversary
    from repro.model.system import build_system

    build_system(ExhaustiveOmissionAdversary(3, 1, 3))


#: The tier-1 micro benches tracked for regressions (mirrors
#: ``bench_micro_core.py`` and ``bench_chunked.py``).
MICRO_BENCHES: Dict[str, Callable[[], None]] = {
    "enumerate_crash_system_n4": _bench_enumerate_crash_n4,
    "continual_ck_component_fast_path": _bench_continual_ck_components,
    "continual_ck_fixpoint_reference": _bench_continual_ck_fixpoint,
    "two_step_construction_crash_n3": _bench_two_step_construction,
    "simulator_throughput_p0opt": _bench_simulator_throughput,
    "kernel_chunked_common_fixpoint": _bench_kernel_chunked_fixpoint,
    "enumerate_omission_system_h3": _bench_enumerate_omission_h3,
    "kernel_chunked_algebra_1m": _bench_kernel_chunked_algebra_1m,
    "kernel_chunked_algebra_10m": _bench_kernel_chunked_algebra_10m,
}


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
) -> BenchSnapshot:
    """Time every micro bench; return the snapshot.

    ``extra`` merges externally measured walls into the snapshot — e.g.
    the sharded ``batch run E9`` wall clock, which is measured by the
    batch runner itself rather than re-run here — so end-to-end numbers
    ride the same history and regression gate as the micro benches.
    """
    timings: Dict[str, float] = dict(extra or {})
    for name, seconds in timings.items():
        print(f"{name:<40} {seconds:.6f}s (extra)", flush=True)
    for name, bench in MICRO_BENCHES.items():
        timings[name] = best_of(bench, rounds)
        print(f"{name:<40} {timings[name]:.6f}s", flush=True)
    return BenchSnapshot(
        label=label,
        timings=timings,
        meta={
            "rounds": rounds,
            "python": platform.python_version(),
            "machine": platform.machine(),
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
        metavar="NAME=SECONDS",
        help="record an externally measured wall (repeatable), e.g. "
        "--extra exec_e9_limb_shard_w4=4.7",
    )
    args = parser.parse_args(argv)

    extra: Dict[str, float] = {}
    for item in args.extra:
        name, _, seconds = item.partition("=")
        if not name or not seconds:
            parser.error(f"--extra expects NAME=SECONDS, got {item!r}")
        try:
            extra[name] = float(seconds)
        except ValueError:
            parser.error(f"--extra {item!r}: {seconds!r} is not a number")
    snapshot = take_snapshot(args.label, rounds=args.rounds, extra=extra)
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
