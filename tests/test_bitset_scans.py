"""The limb kernel's whole-array conversions against per-run loops.

``to_rows``, ``run_levels``, ``from_run_levels``, row packing and the
``col0`` column convert between point rows and a limb buffer in one
``packbits``/``unpackbits`` pass; the per-run first-set-bit scan is the
first-fire scan over a view matrix.  The loops below are per-run
shift-and-mask versions over the point mask as one integer (bit ``run *
width + time``, the limbs' little-endian reading), kept as the oracle:
randomized masks, run counts whose ``runs * width`` is and is not a
multiple of 8 (or of 64), and the all-zero and all-one masks.
"""

from __future__ import annotations

import random

import pytest

import numpy as np

from repro.model.adversary import ExhaustiveCrashAdversary
from repro.model.chunked import _bits_to_limbs, _nlimbs
from repro.model.partition import first_fire_times
from repro.model.system import TruthAssignment, build_system

# -- the per-run loops (oracle) ---------------------------------------------


def loop_bits(mask, nbits):
    return [bool((mask >> bit) & 1) for bit in range(nbits)]


def limbs_mask(limbs):
    """A limb buffer read as one integer (limb ``k`` at bit ``64 k``)."""
    return int.from_bytes(limbs.astype("<u8").tobytes(), "little")


def loop_pack_rows(rows, width):
    mask = 0
    base = 0
    for row in rows:
        bits = 0
        for time, value in enumerate(row):
            if value:
                bits |= 1 << time
        mask |= bits << base
        base += width
    return mask


def loop_to_rows(mask, num_runs, width):
    block = (1 << width) - 1
    rows = []
    for run_index in range(num_runs):
        bits = (mask >> (run_index * width)) & block
        rows.append([bool((bits >> time) & 1) for time in range(width)])
    return rows


def loop_run_levels(mask, num_runs, width):
    return [
        bool((mask >> (run_index * width)) & 1)
        for run_index in range(num_runs)
    ]


def loop_from_run_levels(run_levels, width):
    block = (1 << width) - 1
    mask = 0
    for run_index, value in enumerate(run_levels):
        if value:
            mask |= block << (run_index * width)
    return mask


def loop_col0(num_runs, width):
    col0 = 0
    for run_index in range(num_runs):
        col0 |= 1 << (run_index * width)
    return col0


def loop_first_times(mask, num_runs, width):
    block = (1 << width) - 1
    times = []
    for run_index in range(num_runs):
        bits = (mask >> (run_index * width)) & block
        times.append((bits & -bits).bit_length() - 1 if bits else None)
    return times


# -- cases --------------------------------------------------------------------

#: (runs, width): runs * width = 1, 9, 14, 303 (not multiples of 8) and
#: 24, 896 (multiples of 8).
SHAPES = [(1, 1), (3, 3), (7, 2), (101, 3), (12, 2), (224, 4)]


def masks(num_runs, width, seed):
    rng = random.Random(seed)
    nbits = num_runs * width
    full = (1 << nbits) - 1
    cases = [0, full]
    for density in (0.05, 0.5, 0.95):
        mask = 0
        for bit in range(nbits):
            if rng.random() < density:
                mask |= 1 << bit
        cases.append(mask)
    return cases


@pytest.mark.parametrize("num_runs,width", SHAPES)
def test_to_rows_and_run_levels(num_runs, width):
    for mask in masks(num_runs, width, seed=num_runs * width):
        nbits = num_runs * width
        limbs = _bits_to_limbs(loop_bits(mask, nbits), _nlimbs(nbits))
        assert limbs_mask(limbs) == mask
        assignment = TruthAssignment(limbs, num_runs, width)
        assert assignment.to_rows() == loop_to_rows(mask, num_runs, width)
        assert assignment.run_levels() == loop_run_levels(
            mask, num_runs, width
        )


class Shape:
    """The two fields ``TruthAssignment.from_rows`` reads of a system."""

    def __init__(self, num_runs, width):
        self.runs = range(num_runs)
        self.horizon = width - 1


@pytest.mark.parametrize("num_runs,width", SHAPES)
def test_pack_rows(num_runs, width):
    for mask in masks(num_runs, width, seed=7 + num_runs):
        rows = loop_to_rows(mask, num_runs, width)
        packed = TruthAssignment.from_rows(Shape(num_runs, width), rows)
        assert limbs_mask(packed.limbs) == loop_pack_rows(rows, width) == mask


@pytest.mark.parametrize("num_runs,width", SHAPES)
def test_first_times(num_runs, width):
    """The per-run first-set-bit scan, now :func:`first_fire_times` over
    a one-processor view matrix whose every point holds its own view:
    the mask's bits are the zero set, the one set is empty."""
    views = np.arange(num_runs * width).reshape(num_runs, width, 1)
    never = np.zeros(num_runs * width, dtype=bool)
    for mask in masks(num_runs, width, seed=11 + num_runs):
        bits = np.array(loop_bits(mask, num_runs * width))
        value, time, tie = first_fire_times(views, bits, never)
        assert not tie.any()
        assert [
            int(at) if decided == 0 else None
            for decided, at in zip(value[:, 0], time[:, 0])
        ] == loop_first_times(mask, num_runs, width)


#: 4 runs x width 3 (12 bits) and 152 runs x width 3 (456 bits).
SYSTEMS = [(2, 0, 2), (3, 1, 2)]


@pytest.mark.parametrize("n,t,horizon", SYSTEMS)
def test_from_run_levels_and_col0(n, t, horizon):
    system = build_system(ExhaustiveCrashAdversary(n, t, horizon))
    num_runs, width = len(system.runs), horizon + 1
    rng = random.Random(n)
    for levels in (
        [False] * num_runs,
        [True] * num_runs,
        [rng.random() < 0.5 for _ in range(num_runs)],
    ):
        assignment = TruthAssignment.from_run_levels(system, levels)
        assert limbs_mask(assignment.limbs) == loop_from_run_levels(
            levels, width
        )
        assert assignment.run_levels() == levels
    assert limbs_mask(system.chunked_index().col0) == loop_col0(
        num_runs, width
    )
