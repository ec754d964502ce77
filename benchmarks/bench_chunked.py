"""Micro-benchmarks for the chunked limb-array evaluation kernel.

These pin the ``chunked`` kernel explicitly and time the workloads the
tentpole optimization moves onto fixed-width 64-bit limbs: boolean algebra
at three synthetic scales (16k / 131k / 1M points — below, at and far
beyond ``BITSET_POINT_LIMIT``), the knowledge/everyone sweeps, and the
common-knowledge greatest fixpoint.  The same workloads feed the
bench-regression job through ``benchmarks/regression.py``, so a chunked
slowdown fails CI via ``repro-eba bench-compare``.
"""

import random

import numpy

from repro.knowledge.formulas import Exists
from repro.knowledge.nonrigid import NONFAULTY
from repro.knowledge.semantics import (
    eval_common,
    eval_everyone,
    eval_knows,
)
from repro.model import kernels
from repro.model.builder import crash_system
from repro.model.chunked import ChunkedAssignment, _tail_mask
from repro.model.system import BitsetAssignment, TruthAssignment

#: Synthetic assignment shapes: (num_runs, width) — 16k, 131k, ~1M and
#: ~10M points, i.e. below, at, past and far past BITSET_POINT_LIMIT.
#: The 10M cell's operands are drawn directly as 64-bit limbs because
#: per-row Python construction dominates there.
SYNTHETIC_SHAPES = {
    "16k": (1 << 12, 4),
    "131k": (1 << 15, 4),
    "1m": (1 << 18, 4),
    "10m": (1 << 21, 5),
}


class _Shape:
    """Just enough of a ``System`` for the packed factories."""

    def __init__(self, num_runs, width):
        self.runs = range(num_runs)
        self.horizon = width - 1


def _random_rows(num_runs, width, seed=0):
    rng = random.Random(seed)
    return [
        [rng.random() < 0.5 for _ in range(width)] for _ in range(num_runs)
    ]


def _build(builder, shape, rows):
    if builder is BitsetAssignment:
        from repro.model.system import _pack_rows

        width = shape.horizon + 1
        return BitsetAssignment(
            _pack_rows(rows, width), len(shape.runs), width
        )
    return builder.from_rows(shape, rows)


def _synthetic_pair(shape_key, builder):
    num_runs, width = SYNTHETIC_SHAPES[shape_key]
    shape = _Shape(num_runs, width)
    phi = _build(builder, shape, _random_rows(num_runs, width, seed=1))
    psi = _build(builder, shape, _random_rows(num_runs, width, seed=2))
    return phi, psi


def _chunked_operand(shape_key, seed):
    """A random chunked operand drawn as uint64 limbs in one call.

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
    return ChunkedAssignment(limbs, num_runs, width)


def _algebra_loop(phi, psi, rounds=50):
    acc = phi
    for _ in range(rounds):
        acc = acc.conjoin(psi).disjoin(phi).negate()
    return acc.count_true()


def test_chunked_algebra_16k(benchmark):
    phi, psi = _synthetic_pair("16k", ChunkedAssignment)
    benchmark(lambda: _algebra_loop(phi, psi))


def test_chunked_algebra_131k(benchmark):
    phi, psi = _synthetic_pair("131k", ChunkedAssignment)
    benchmark(lambda: _algebra_loop(phi, psi))


def test_chunked_algebra_1m(benchmark):
    phi, psi = _synthetic_pair("1m", ChunkedAssignment)
    benchmark(lambda: _algebra_loop(phi, psi))


def test_chunked_algebra_10m(benchmark):
    """The 10M-point synthetic cell (ROADMAP item 3 scale)."""
    phi = _chunked_operand("10m", 1)
    psi = _chunked_operand("10m", 2)
    benchmark(lambda: _algebra_loop(phi, psi))


def test_bitset_algebra_1m(benchmark):
    """The big-int kernel on the same 1M-point workload, for the A/B."""
    phi, psi = _synthetic_pair("1m", BitsetAssignment)
    benchmark(lambda: _algebra_loop(phi, psi))


def _fresh_operand(system):
    system.clear_caches()
    return Exists(1).evaluate(system)


def test_chunked_knows_sweep(benchmark):
    system = crash_system(4, 1, 3)
    with kernels.use_kernel(kernels.CHUNKED):
        phi = _fresh_operand(system)
        benchmark(lambda: eval_knows(system, 0, phi))


def test_chunked_everyone_sweep(benchmark):
    system = crash_system(4, 1, 3)
    with kernels.use_kernel(kernels.CHUNKED):
        phi = _fresh_operand(system)
        benchmark(lambda: eval_everyone(system, NONFAULTY, phi))


def test_chunked_common_fixpoint(benchmark):
    system = crash_system(4, 1, 3)
    with kernels.use_kernel(kernels.CHUNKED):
        phi = _fresh_operand(system)
        benchmark(lambda: eval_common(system, NONFAULTY, phi))


def test_chunked_beats_reference_on_common_fixpoint():
    """Acceptance guard: the chunked fixpoint beats the reference kernel
    on the n=4 crash system (best of 3 rounds each)."""
    import time

    system = crash_system(4, 1, 3)

    def best_of(kernel_name, rounds=3):
        with kernels.use_kernel(kernel_name):
            phi = _fresh_operand(system)
            eval_common(system, NONFAULTY, phi)  # warm
            best = float("inf")
            for _ in range(rounds):
                start = time.perf_counter()
                eval_common(system, NONFAULTY, phi)
                best = min(best, time.perf_counter() - start)
        return best

    reference = best_of(kernels.REFERENCE)
    chunked = best_of(kernels.CHUNKED)
    assert chunked * 2 <= reference, (
        f"chunked common-knowledge fixpoint only "
        f"{reference / chunked:.1f}x faster ({chunked:.4f}s vs "
        f"{reference:.4f}s)"
    )


def test_chunked_pack_unpack_round_trip(benchmark):
    """from_rows -> to_rows round-trip cost on the n=4 crash system."""
    system = crash_system(4, 1, 3)
    with kernels.use_kernel(kernels.CHUNKED):
        rows = _fresh_operand(system).to_rows()
        benchmark(
            lambda: TruthAssignment.from_rows(system, rows).to_rows()
        )
