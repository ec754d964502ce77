"""Byte-parity of the arrays-first builder against the object graph.

The fastbuild contract (see ``repro.model.fastbuild``) is that every
array it emits is **byte-identical** — same dtype, same shape, same
buffer — to ``SystemArrays.from_system`` on the ``build_system`` object
graph of the same cell, including the dense first-appearance view-id
order.  These tests pin that contract per failure mode, plus the
provider integration: a cold ``get_arrays`` takes the fast path (no
``Run`` objects anywhere) with identical output.
"""

from __future__ import annotations

import os

import pytest

from repro.errors import ConfigurationError
from repro.model.adversary import (
    ExhaustiveCrashAdversary,
    ExhaustiveOmissionAdversary,
    ExhaustiveReceiveOmissionAdversary,
)
from repro.model.failures import FailureMode
from repro.model.fastbuild import build_arrays
from repro.model.partition import SystemArrays
from repro.model.provider import SystemProvider
from repro.model.system import build_system

#: Every array field of a ``SystemArrays`` (meta fields checked apart).
_ARRAY_FIELDS = (
    "views",
    "owner",
    "vtime",
    "prev",
    "init",
    "nonfaulty",
    "deliveries",
    "occurs",
)

_CELLS = [
    (FailureMode.CRASH, ExhaustiveCrashAdversary, 3, 1, 2),
    (FailureMode.CRASH, ExhaustiveCrashAdversary, 4, 2, 2),
    (FailureMode.OMISSION, ExhaustiveOmissionAdversary, 3, 1, 2),
    (
        FailureMode.RECEIVE_OMISSION,
        ExhaustiveReceiveOmissionAdversary,
        3,
        1,
        2,
    ),
]


def assert_arrays_byte_identical(fast, reference):
    assert (fast.mode, fast.n, fast.t, fast.horizon) == (
        reference.mode,
        reference.n,
        reference.t,
        reference.horizon,
    )
    assert fast.num_views == reference.num_views
    for name in _ARRAY_FIELDS:
        built = getattr(fast, name)
        projected = getattr(reference, name)
        assert built.dtype == projected.dtype, name
        assert built.shape == projected.shape, name
        assert built.tobytes() == projected.tobytes(), name


class TestByteParity:
    @pytest.mark.parametrize(
        "mode,adversary_cls,n,t,horizon",
        _CELLS,
        ids=[f"{m.value}-n{n}t{t}h{h}" for m, _, n, t, h in _CELLS],
    )
    def test_identical_to_object_graph_projection(
        self, mode, adversary_cls, n, t, horizon
    ):
        fast = build_arrays(mode, n, t, horizon)
        reference = SystemArrays.from_system(
            build_system(adversary_cls(n, t, horizon))
        )
        assert_arrays_byte_identical(fast, reference)

    def test_save_load_round_trip(self, tmp_path):
        fast = build_arrays(FailureMode.CRASH, 3, 1, 2)
        path = str(tmp_path / "cell.npz")
        fast.save(path)
        assert_arrays_byte_identical(SystemArrays.load(path), fast)


class TestProviderIntegration:
    def test_cold_get_arrays_takes_fast_path(self, tmp_path):
        from repro import obs

        provider = SystemProvider(cache_dir=str(tmp_path))
        before = obs.snapshot()["counters"].get("system_fast_builds", 0)
        arrays = provider.get_arrays(FailureMode.CRASH, 3, 1, 2)
        after = obs.snapshot()["counters"].get("system_fast_builds", 0)
        assert after == before + 1
        # The object graph was never materialized on the way.
        assert not provider.has_memory_cell(FailureMode.CRASH, 3, 1, 2)
        reference = SystemArrays.from_system(
            build_system(ExhaustiveCrashAdversary(3, 1, 2))
        )
        assert_arrays_byte_identical(arrays, reference)

    @pytest.mark.parametrize(
        "cell",
        [
            (FailureMode.CRASH, 1, 0, 2),
            (FailureMode.CRASH, 3, 1, 0),
            (FailureMode.CRASH, 3, 3, 1),
            (FailureMode.GENERAL_OMISSION, 3, 1, 1),
        ],
        ids=["n1", "h0", "t-eq-n", "general-omission"],
    )
    def test_unsupported_cells_rejected(self, tmp_path, cell):
        with pytest.raises(ConfigurationError):
            build_arrays(*cell)
        provider = SystemProvider(cache_dir=str(tmp_path))
        with pytest.raises(ConfigurationError):
            provider.get_arrays(*cell)
        with pytest.raises(ConfigurationError):
            provider.get(*cell)
        assert os.listdir(str(tmp_path)) == []
