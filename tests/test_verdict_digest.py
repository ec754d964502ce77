"""The served verdict digest and the ``bits()`` read it is rendered from.

``verdict_digest`` hashes the compact JSON of a truth assignment's
per-run rows, rendered from ``bits()`` through a table of the row
patterns that occur.  Its definition is the per-point JSON of
:func:`tests.oracles.verdict_digest`: on random valuations the two must
agree under every assignment kind, and the kinds' ``bits()`` and
``to_rows()`` must agree with each other.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.model.chunked import ChunkedAssignment, _bits_to_limbs, _nlimbs
from repro.model.system import BitsetAssignment, TruthAssignment, _bits_mask
from repro.serve.session import QueryEngine, verdict_digest

from . import oracles

KERNELS = ("bitset", "chunked", "reference")

#: ``E4/common-exists1`` on crash n=3 t=1 h=3, as every kernel served it
#: before the digest was rendered from packed bits.
PINNED_DIGEST = (
    "6c59c920e14fd5d368d9d10667547cb161416a267aef70cf5d05f6d95b73e77b"
)


def _kinds(matrix):
    """*matrix* (``(runs, width)`` bool) as each assignment kind."""
    runs, width = matrix.shape
    return {
        "bitset": BitsetAssignment(_bits_mask(matrix), runs, width),
        "chunked": ChunkedAssignment(
            _bits_to_limbs(matrix, _nlimbs(runs * width)), runs, width
        ),
        "reference": TruthAssignment(matrix.tolist()),
    }


@st.composite
def valuations(draw):
    """Random ``(runs, width)`` bool matrices, 1–300 runs, width 1–6."""
    runs = draw(st.integers(min_value=1, max_value=300))
    width = draw(st.integers(min_value=1, max_value=6))
    density = draw(st.sampled_from((0.0, 0.1, 0.5, 0.9, 1.0)))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    return rng.random((runs, width)) < density


@given(matrix=valuations())
@example(matrix=np.ones((300, 6), dtype=bool))
@example(matrix=np.zeros((1, 1), dtype=bool))
@settings(max_examples=120, deadline=None)
def test_digest_matches_oracle_under_every_kind(matrix):
    rows = matrix.tolist()
    wanted = oracles.verdict_digest(TruthAssignment(rows))
    for kind, truth in _kinds(matrix).items():
        bits = truth.bits()
        assert bits.dtype == bool and bits.shape == matrix.shape, kind
        assert np.array_equal(bits, matrix), kind
        assert truth.to_rows() == rows, kind
        assert truth.run_levels() == matrix[:, 0].tolist(), kind
        assert verdict_digest(truth) == wanted, kind


@pytest.mark.parametrize("kernel", KERNELS)
def test_pinned_digest(kernel):
    """A served ``eval`` digest, pinned under all three kernels."""
    result = QueryEngine(fork_policy="never").execute(
        "eval",
        {
            "catalog": {"experiment": "E4", "formula": "common-exists1"},
            "kernel": kernel,
        },
    )
    assert result["system"]["runs"] == 224
    assert result["count_true"] == 386
    assert result["digest"] == PINNED_DIGEST
