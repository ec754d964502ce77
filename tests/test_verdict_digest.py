"""The served verdict digest and the ``bits()`` read it is rendered from.

``verdict_digest`` hashes the compact JSON of a truth assignment's
per-run rows, rendered from ``bits()`` through tables of the text of
every chunk of up to 8 points.  Its definition is the per-point JSON of
:func:`tests.oracles.rows_digest`: on random valuations of widths on
both sides of every chunk boundary up to 70 the two must agree, and so
must served digests of cells 10 and 1001 points wide; the assignment's
``bits()``, ``to_rows()`` and ``run_levels()`` must read the valuation
back.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.knowledge.explain import EXPLAIN_CATALOG, catalog_system
from repro.model.chunked import _bits_to_limbs, _nlimbs
from repro.model.system import TruthAssignment
from repro.serve.session import QueryEngine, verdict_digest

from . import oracles

#: ``E4/common-exists1`` on crash n=3 t=1 h=3: a digest clients hold.
PINNED_DIGEST = (
    "6c59c920e14fd5d368d9d10667547cb161416a267aef70cf5d05f6d95b73e77b"
)


@st.composite
def valuations(draw):
    """Random ``(runs, width)`` bool matrices, 1–300 runs, width 1–70."""
    runs = draw(st.integers(min_value=1, max_value=300))
    width = draw(st.integers(min_value=1, max_value=70))
    density = draw(st.sampled_from((0.0, 0.1, 0.5, 0.9, 1.0)))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    return rng.random((runs, width)) < density


@given(matrix=valuations())
@example(matrix=np.ones((300, 6), dtype=bool))
@example(matrix=np.zeros((1, 1), dtype=bool))
@example(matrix=np.eye(8, dtype=bool))
@example(matrix=np.eye(9, dtype=bool)[::-1])
@example(matrix=np.tri(5, 64, dtype=bool))
@example(matrix=np.tri(3, 65, 40, dtype=bool))
@settings(max_examples=120, deadline=None)
def test_digest_matches_oracle(matrix):
    runs, width = matrix.shape
    rows = matrix.tolist()
    truth = TruthAssignment(
        _bits_to_limbs(matrix, _nlimbs(runs * width)), runs, width
    )
    bits = truth.bits()
    assert bits.dtype == bool and bits.shape == matrix.shape
    assert np.array_equal(bits, matrix)
    assert truth.to_rows() == rows
    assert truth.run_levels() == matrix[:, 0].tolist()
    assert verdict_digest(truth) == oracles.rows_digest(rows)


@pytest.mark.parametrize("evaluator", ["chunked", "reference"])
def test_pinned_digest(evaluator):
    """A served ``eval`` digest, pinned: as served from the limb kernel
    (``chunked``), and as the digest of the reference evaluator's rows
    (``reference``)."""
    if evaluator == "chunked":
        result = QueryEngine().execute(
            "eval",
            {"catalog": {"experiment": "E4", "formula": "common-exists1"}},
        )
        runs, count_true, digest = (
            result["system"]["runs"],
            result["count_true"],
            result["digest"],
        )
    else:
        entry = EXPLAIN_CATALOG["E4"]["common-exists1"]
        system = catalog_system(entry)
        rows = oracles.evaluate(entry.build(system), system)
        runs, count_true, digest = (
            len(rows),
            sum(map(sum, rows)),
            oracles.rows_digest(rows),
        )
    assert runs == 224
    assert count_true == 386
    assert digest == PINNED_DIGEST


_EXISTS1 = {"kind": "exists", "value": 1}


@pytest.mark.parametrize(
    "t,horizon,spec",
    [
        (1, 9, {"kind": "knows", "processor": 0, "of": _EXISTS1}),
        (0, 1000, {"kind": "everyone", "of": _EXISTS1}),
    ],
    ids=["crash-n2t1h9", "crash-n2t0h1000"],
)
def test_served_digest_of_wide_rows(t, horizon, spec):
    """Served ``eval`` digests on crash n=2 cells whose rows span two
    chunks (width 10) and 126 (width 1001)."""
    from repro.model.builder import crash_system
    from repro.serve.protocol import build_formula

    result = QueryEngine().execute(
        "eval",
        {"formula": spec, "mode": "crash", "n": 2, "t": t, "horizon": horizon},
    )
    system = crash_system(2, t, horizon)
    rows = oracles.evaluate(build_formula(spec, 2), system)
    assert len(rows[0]) == horizon + 1
    assert result["system"]["points"] == len(rows) * (horizon + 1)
    assert result["digest"] == oracles.rows_digest(rows)
