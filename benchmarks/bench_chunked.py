"""Micro-benchmarks for the limb-array evaluation kernel.

They time boolean algebra at four synthetic scales (16k / 131k / 1M /
10M points), the knowledge/everyone sweeps and the common-knowledge
greatest fixpoint, and guard the fixpoint against the per-point
reference evaluator of ``tests/oracles.py``.  The same workloads feed
the bench-regression job through ``benchmarks/regression.py``, so a
slowdown fails CI via ``repro-eba bench-compare``.
"""

import random

import numpy

from repro.knowledge.formulas import Common, Exists
from repro.knowledge.nonrigid import NONFAULTY
from repro.knowledge.semantics import (
    eval_common,
    eval_everyone,
    eval_knows,
)
from repro.model.builder import crash_system
from repro.model.chunked import _tail_mask
from repro.model.system import TruthAssignment
from tests import oracles

#: Synthetic assignment shapes: (num_runs, width) — 16k, 131k, ~1M and
#: ~10M points.  The 10M cell's operands are drawn directly as 64-bit
#: limbs because per-row Python construction dominates there.
SYNTHETIC_SHAPES = {
    "16k": (1 << 12, 4),
    "131k": (1 << 15, 4),
    "1m": (1 << 18, 4),
    "10m": (1 << 21, 5),
}


class _Shape:
    """Just enough of a ``System`` for the assignment factories."""

    def __init__(self, num_runs, width):
        self.runs = range(num_runs)
        self.horizon = width - 1


def _random_rows(num_runs, width, seed=0):
    rng = random.Random(seed)
    return [
        [rng.random() < 0.5 for _ in range(width)] for _ in range(num_runs)
    ]


def _synthetic_pair(shape_key):
    num_runs, width = SYNTHETIC_SHAPES[shape_key]
    shape = _Shape(num_runs, width)
    phi = TruthAssignment.from_rows(
        shape, _random_rows(num_runs, width, seed=1)
    )
    psi = TruthAssignment.from_rows(
        shape, _random_rows(num_runs, width, seed=2)
    )
    return phi, psi


def _chunked_operand(shape_key, seed):
    """A random operand drawn as uint64 limbs in one call.

    Row-by-row Python packing dominates construction at the 10M scale.
    """
    num_runs, width = SYNTHETIC_SHAPES[shape_key]
    num_bits = num_runs * width
    rng = numpy.random.default_rng(seed)
    limbs = rng.integers(
        0, 1 << 64, size=-(-num_bits // 64), dtype=numpy.uint64
    )
    if num_bits % 64:
        limbs[-1] &= numpy.uint64(_tail_mask(num_bits))
    return TruthAssignment(limbs, num_runs, width)


def _algebra_loop(phi, psi, rounds=50):
    acc = phi
    for _ in range(rounds):
        acc = acc.conjoin(psi).disjoin(phi).negate()
    return acc.count_true()


def test_chunked_algebra_16k(benchmark):
    phi, psi = _synthetic_pair("16k")
    benchmark(lambda: _algebra_loop(phi, psi))


def test_chunked_algebra_131k(benchmark):
    phi, psi = _synthetic_pair("131k")
    benchmark(lambda: _algebra_loop(phi, psi))


def test_chunked_algebra_1m(benchmark):
    phi, psi = _synthetic_pair("1m")
    benchmark(lambda: _algebra_loop(phi, psi))


def test_chunked_algebra_10m(benchmark):
    """The 10M-point synthetic cell (ROADMAP item 3 scale)."""
    phi = _chunked_operand("10m", 1)
    psi = _chunked_operand("10m", 2)
    benchmark(lambda: _algebra_loop(phi, psi))


def _fresh_operand(system):
    system.clear_caches()
    return Exists(1).evaluate(system)


def test_chunked_knows_sweep(benchmark):
    system = crash_system(4, 1, 3)
    phi = _fresh_operand(system)
    benchmark(lambda: eval_knows(system, 0, phi))


def test_chunked_everyone_sweep(benchmark):
    system = crash_system(4, 1, 3)
    phi = _fresh_operand(system)
    benchmark(lambda: eval_everyone(system, NONFAULTY, phi))


def test_chunked_common_fixpoint(benchmark):
    system = crash_system(4, 1, 3)
    phi = _fresh_operand(system)
    benchmark(lambda: eval_common(system, NONFAULTY, phi))


def test_chunked_beats_reference_on_common_fixpoint():
    """Acceptance guard: the limb fixpoint beats the per-point reference
    evaluator on the n=4 crash system (best of 3 rounds each)."""
    import time

    system = crash_system(4, 1, 3)
    formula = Common(NONFAULTY, Exists(1))

    def best_of(evaluate, rounds=3):
        evaluate()  # warm
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            evaluate()
            best = min(best, time.perf_counter() - start)
        return best

    phi = _fresh_operand(system)
    reference = best_of(lambda: oracles.evaluate(formula, system))
    chunked = best_of(lambda: eval_common(system, NONFAULTY, phi))
    assert chunked * 2 <= reference, (
        f"chunked common-knowledge fixpoint only "
        f"{reference / chunked:.1f}x faster ({chunked:.4f}s vs "
        f"{reference:.4f}s)"
    )


def test_chunked_pack_unpack_round_trip(benchmark):
    """from_rows -> to_rows round-trip cost on the n=4 crash system."""
    system = crash_system(4, 1, 3)
    rows = _fresh_operand(system).to_rows()
    benchmark(lambda: TruthAssignment.from_rows(system, rows).to_rows())
