"""Differential tests for the limb evaluation kernel.

Every :class:`TruthAssignment` is a limb array evaluated through the
system's :class:`~repro.model.chunked.ChunkedIndex`; the per-point
reference evaluator of ``tests/oracles.py`` is the executable
specification.  These tests assert the two produce identical valuations
over the boolean algebra, over randomized formula trees on both failure
modes and over every formula in the E4/E5/E21 explain catalogs, and
that sharded batches agree with the monolithic path.
"""

import random
import re

import numpy as np
import pytest

from repro.knowledge import (
    NONFAULTY,
    AllStarted,
    Always,
    And,
    Believes,
    Common,
    ContinualCommon,
    Everyone,
    EventualCommon,
    Eventually,
    Exists,
    Implies,
    InitialValueIs,
    IsNonfaulty,
    Knows,
    Not,
    Or,
)
from repro.knowledge.explain import EXPLAIN_CATALOG, catalog_system
from repro.model.chunked import _nlimbs
from repro.model.system import TruthAssignment

from . import oracles


def _bits(system, rng):
    return rng.random((len(system.runs), system.horizon + 1)) < 0.5


def _mask(bits):
    """*bits* (``(runs, width)`` bool) as one Python int, bit ``run *
    width + time``."""
    return sum(1 << pos for pos in np.flatnonzero(bits).tolist())


def _as_int(truth):
    """The valuation as one Python int: the limb buffer's little-endian
    integer."""
    return int.from_bytes(truth.limbs.astype("<u8").tobytes(), "little")


def _from_int(system, mask):
    """The assignment whose :func:`_as_int` is *mask*."""
    num_runs, width = len(system.runs), system.horizon + 1
    size = 8 * _nlimbs(num_runs * width)
    limbs = np.frombuffer(mask.to_bytes(size, "little"), "<u8")
    return TruthAssignment(limbs.astype(np.uint64), num_runs, width)


#: How a test valuation enters and leaves the limb kernel, as ``(load,
#: read, expect)``: ``chunked`` as per-run rows, through ``from_rows``
#: and ``bits()``; ``bitset`` as one Python int, bit ``run * width +
#: time``, through the limb buffer's bytes, which pins the bit layout
#: independently of both conversions.
FORMS = {
    "bitset": (
        lambda system, bits: _from_int(system, _mask(bits)),
        _as_int,
        _mask,
    ),
    "chunked": (
        lambda system, bits: TruthAssignment.from_rows(system, bits.tolist()),
        lambda truth: truth.bits().tolist(),
        lambda bits: bits.tolist(),
    ),
}


class TestPackedAlgebra:
    """The limb operations agree with elementwise boolean algebra, read
    back as bool arrays and as Python-int bitsets."""

    @pytest.mark.parametrize("form", sorted(FORMS))
    @pytest.mark.parametrize("seed", range(5))
    def test_binary_and_unary_ops_match(self, crash3, form, seed):
        load, read, expect = FORMS[form]
        rng = np.random.default_rng(seed)
        bits_a = _bits(crash3, rng)
        bits_b = _bits(crash3, rng)
        a = load(crash3, bits_a)
        b = load(crash3, bits_b)
        assert read(a.conjoin(b)) == expect(bits_a & bits_b)
        assert read(a.disjoin(b)) == expect(bits_a | bits_b)
        assert read(a.implies(b)) == expect(~bits_a | bits_b)
        assert read(a.negate()) == expect(~bits_a)
        assert a.count_true() == int(bits_a.sum())
        assert a.is_valid() == bool(bits_a.all())
        everywhere = np.ones_like(bits_a)
        assert read(TruthAssignment.constant(crash3, True)) == expect(
            everywhere
        )
        assert read(TruthAssignment.constant(crash3, False)) == expect(
            ~everywhere
        )

    @pytest.mark.parametrize("form", sorted(FORMS))
    @pytest.mark.parametrize("seed", range(3))
    def test_point_access_and_equality(self, crash3, form, seed):
        load, read, expect = FORMS[form]
        rng = np.random.default_rng(100 + seed)
        bits = _bits(crash3, rng)
        packed = load(crash3, bits)
        for run_index in range(0, len(crash3.runs), 17):
            for time in range(crash3.horizon + 1):
                assert packed.at(run_index, time) == bits[run_index, time]
        assert packed == TruthAssignment.from_rows(crash3, bits)
        assert packed != packed.negate()
        assert read(packed) == expect(bits)
        assert packed.to_rows() == bits.tolist()


def _random_formula(rng, n, depth=2):
    """A random knowledge/temporal formula tree over small atoms."""
    atoms = [
        lambda: Exists(rng.choice((0, 1))),
        lambda: InitialValueIs(rng.randrange(n), rng.choice((0, 1))),
        lambda: IsNonfaulty(rng.randrange(n)),
        lambda: AllStarted(rng.choice((0, 1))),
    ]
    if depth == 0:
        return rng.choice(atoms)()
    sub = _random_formula(rng, n, depth - 1)
    combinators = [
        lambda: Not(sub),
        lambda: And([sub, _random_formula(rng, n, depth - 1)]),
        lambda: Or([sub, _random_formula(rng, n, depth - 1)]),
        lambda: Implies(sub, _random_formula(rng, n, depth - 1)),
        lambda: Knows(rng.randrange(n), sub),
        lambda: Believes(rng.randrange(n), sub, NONFAULTY),
        lambda: Everyone(NONFAULTY, sub),
        lambda: Always(sub),
        lambda: Eventually(sub),
        lambda: Common(NONFAULTY, sub),
        lambda: ContinualCommon(NONFAULTY, sub, force_fixpoint=True),
        lambda: EventualCommon(NONFAULTY, sub),
    ]
    return rng.choice(combinators)()


def _differential(system, formula):
    assert formula.evaluate(system).to_rows() == oracles.evaluate(
        formula, system
    )


class TestRandomizedDifferential:
    @pytest.mark.parametrize("seed", range(12))
    def test_crash_mode(self, crash3, seed):
        rng = random.Random(seed)
        _differential(crash3, _random_formula(rng, crash3.n))

    @pytest.mark.parametrize("seed", range(12))
    def test_omission_mode(self, omission3, seed):
        rng = random.Random(1000 + seed)
        _differential(omission3, _random_formula(rng, omission3.n))


def induced_partition(labels):
    """The run partition a component labelling induces, and its ``-1``
    (no-occurrence) runs.

    Label *values* are arbitrary representatives, so two labellings agree
    exactly when these agree.
    """
    groups = {}
    unlabelled = set()
    for run, label in enumerate(labels):
        if label == -1:
            unlabelled.add(run)
        else:
            groups.setdefault(label, set()).add(run)
    return set(map(frozenset, groups.values())), unlabelled


class TestShardedDifferential:
    """Sharded batches vs the monolithic path (E9/E14/E20).

    The deep parity drills (per-kernel E9, fault injection, resume) live
    in ``tests/test_exec.py``; this is the kernel-suite view of the same
    guarantee at the reduced experiment sizes used above.
    """

    NONPARITY_KEYS = {"instrumentation", "trace", "batch"}

    @pytest.mark.parametrize("experiment_id", ["E9", "E14", "E20"])
    def test_sharded_matches_monolithic(
        self, experiment_id, tmp_path, monkeypatch
    ):
        from repro.exec import plan_for, run_batch
        from repro.experiments.registry import run_experiment

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        params = dict(_reduced_params(experiment_id))
        if experiment_id == "E20":
            params["seed"] = 5
        mono = run_experiment(experiment_id, **params)
        sharded = run_batch(
            plan_for(experiment_id, **params),
            workers=2,
            checkpoint_root=str(tmp_path / "exec"),
        )
        assert sharded.ok == mono.ok
        assert sharded.notes == mono.notes
        if experiment_id == "E14":
            # E14's table embeds measured wall times; compare structure.
            assert re.sub(r"\d+\.\d+", "#", sharded.table) == re.sub(
                r"\d+\.\d+", "#", mono.table
            )
            return
        assert sharded.table == mono.table
        for key in mono.data.keys() | sharded.data.keys():
            if key in self.NONPARITY_KEYS:
                continue
            assert sharded.data[key] == mono.data[key], key


class TestExplainCatalogDifferential:
    """Every formula the explain CLI exposes, identical to the oracle."""

    @pytest.mark.parametrize(
        "experiment_id,key",
        [
            (experiment_id, key)
            for experiment_id, entries in sorted(EXPLAIN_CATALOG.items())
            for key in sorted(entries)
        ],
    )
    def test_catalog_formula_matches(self, experiment_id, key):
        entry = EXPLAIN_CATALOG[experiment_id][key]
        system = catalog_system(entry)
        _differential(system, entry.build(system))


def _reduced_params(experiment_id):
    """Small-size parameters of the sharded experiments (mirrors the
    light runs in ``test_cli_and_experiments.py``)."""
    if experiment_id == "E9":
        return {"n": 3, "t": 1, "horizon": 2}
    if experiment_id == "E14":
        from repro.model.failures import FailureMode

        return {
            "cells": (
                (FailureMode.CRASH, 3, 1, 3),
                (FailureMode.OMISSION, 3, 1, 3),
            )
        }
    return {"cells": ((4, 1), (4, 2)), "samples": 120}
