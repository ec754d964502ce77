"""Byte-parity of the arrays-first builder against the object graph.

The fastbuild contract (see ``repro.model.fastbuild``) is that every
array it emits is **byte-identical** — same dtype, same shape, same
buffer — to the projection of the object-graph oracle
(``tests/oracles.py``: ``project(build_graph(...))``) of the same cell,
including the dense first-appearance view-id order.  These tests pin
that contract per failure mode on exhaustive cells, as a Hypothesis
property on restricted systems (explicit pattern lists and
configuration subsets, whose runs and view table must equal the
oracle's too), plus the provider integration: a cold ``get_arrays``
takes the fast path (no ``Run`` objects anywhere) with identical output.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tracemalloc
import zipfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.model.adversary import (
    ExhaustiveCrashAdversary,
    ExhaustiveOmissionAdversary,
    ExhaustiveReceiveOmissionAdversary,
    ExplicitAdversary,
    exhaustive_adversary,
)
from repro.model.config import all_configurations
from repro.model.failures import FailureMode
from repro.model.fastbuild import build_arrays, pattern_count
from repro.model.partition import SystemArrays
from repro.model.provider import SystemProvider
from repro.model.system import build_system

from .oracles import build_graph, project

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
    (FailureMode.CRASH, ExhaustiveCrashAdversary, 4, 1, 3),
    (FailureMode.OMISSION, ExhaustiveOmissionAdversary, 3, 1, 3),
    (
        FailureMode.RECEIVE_OMISSION,
        ExhaustiveReceiveOmissionAdversary,
        3,
        1,
        3,
    ),
    (FailureMode.OMISSION, ExhaustiveOmissionAdversary, 3, 2, 2),
    (FailureMode.CRASH, ExhaustiveCrashAdversary, 5, 1, 2),
]

#: Cells too large for the object-graph oracle, pinned by the SHA-256 of
#: :func:`arrays_digest` as an earlier builder (one interned key row per
#: run and processor, checked against the oracle on ``_CELLS``) emitted
#: them: the benchmark's E9 cell, crash n=4 t=3 h=2 and the paper's E9
#: cell (Proposition 6.3, 385,072 runs).
_PINNED = [
    (
        (FailureMode.OMISSION, 5, 2, 1),
        "c1ddd67bb6eaa66fc4f69b846cd94f976c92675d93cde7b0f847f460706435a9",
    ),
    (
        (FailureMode.CRASH, 4, 3, 2),
        "443d124feb58812b4fee2226761534b7220dd87cc877b131a0b95f8af855b231",
    ),
    (
        (FailureMode.OMISSION, 4, 2, 2),
        "e9d20d9311e80295491724581e5109629ac4dd8ee61e2917cf62a088369005e4",
    ),
]


def arrays_digest(arrays) -> str:
    """SHA-256 over each array's name, dtype, shape and bytes."""
    digest = hashlib.sha256()
    for name in _ARRAY_FIELDS:
        array = getattr(arrays, name)
        digest.update(f"{name}:{array.dtype.str}:{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


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
        reference = project(build_graph(adversary_cls(n, t, horizon)))
        assert_arrays_byte_identical(fast, reference)

    @pytest.mark.parametrize(
        "mode,adversary_cls,n,t,horizon",
        _CELLS,
        ids=[f"{m.value}-n{n}t{t}h{h}" for m, _, n, t, h in _CELLS],
    )
    def test_pattern_count_gives_the_point_count(
        self, mode, adversary_cls, n, t, horizon
    ):
        arrays = build_arrays(mode, n, t, horizon)
        runs, width, _ = arrays.views.shape
        points = (1 << n) * pattern_count(mode, n, t, horizon) * (horizon + 1)
        assert points == runs * width

    @pytest.mark.parametrize(
        "cell,digest",
        _PINNED,
        ids=[f"{m.value}-n{n}t{t}h{h}" for (m, n, t, h), _ in _PINNED],
    )
    def test_pinned_digest(self, cell, digest):
        assert arrays_digest(build_arrays(*cell)) == digest

    def test_peak_allocation_bounded(self):
        # The benchmark's E9 cell (74,432 runs, 5.3 MB of arrays); numpy
        # reports its buffers to tracemalloc.
        tracemalloc.start()
        try:
            build_arrays(FailureMode.OMISSION, 5, 2, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40e6

    def test_save_load_round_trip(self, tmp_path):
        fast = build_arrays(FailureMode.CRASH, 3, 1, 2)
        path = str(tmp_path / "cell.npz")
        fast.save(path)
        with zipfile.ZipFile(path) as archive:
            kinds = {info.compress_type for info in archive.infolist()}
        assert kinds == {zipfile.ZIP_STORED}
        assert_arrays_byte_identical(SystemArrays.load(path), fast)
        # A deflated file, as np.savez_compressed writes, still loads.
        deflated = str(tmp_path / "deflated.npz")
        with np.load(path) as bundle:
            np.savez_compressed(deflated, **bundle)
        loaded = SystemArrays.load(deflated)
        loaded.validate("crash", 3, 1, 2)
        assert_arrays_byte_identical(loaded, fast)

    def test_load_and_merge_leave_numpy_ma_unimported(self, tmp_path):
        """Loading and validating a cell never imports ``numpy.ma`` (the
        row-wise ``np.unique`` would)."""
        import repro

        path = str(tmp_path / "cell.npz")
        build_arrays(FailureMode.OMISSION, 3, 1, 2).save(path)
        script = (
            "import sys\n"
            "from repro.model.partition import SystemArrays\n"
            "SystemArrays.load(sys.argv[1]).validate('omission', 3, 1, 2)\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script, path],
            capture_output=True,
            text=True,
            timeout=120,
            env={
                **os.environ,
                "PYTHONPATH": os.path.dirname(os.path.dirname(repro.__file__)),
            },
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "False\n"


#: ``(mode, n, t, horizon)`` of the cells restricted systems are drawn
#: from: small enough for the oracle, every exhaustive mode.
_RESTRICTED_CELLS = [
    (FailureMode.CRASH, 2, 1, 2),
    (FailureMode.CRASH, 3, 1, 3),
    (FailureMode.CRASH, 3, 2, 2),
    (FailureMode.CRASH, 4, 2, 2),
    (FailureMode.OMISSION, 3, 1, 2),
    (FailureMode.OMISSION, 3, 2, 2),
    (FailureMode.OMISSION, 4, 1, 1),
    (FailureMode.RECEIVE_OMISSION, 3, 1, 2),
    (FailureMode.RECEIVE_OMISSION, 4, 2, 1),
]


@st.composite
def restricted_cells(draw):
    """``(adversary, configs)``: an explicit pattern list, with or
    without the failure-free pattern, and ``None`` or a configuration
    subset — often one in which some processor never starts with some
    value (every configuration starting with the drawn processor at the
    drawn value is dropped)."""
    mode, n, t, horizon = draw(st.sampled_from(_RESTRICTED_CELLS))
    patterns = list(exhaustive_adversary(mode, n, t, horizon).patterns())
    chosen = draw(
        st.lists(
            st.sampled_from(patterns[1:]),
            min_size=1,
            max_size=10,
            unique=True,
        )
    )
    adversary = ExplicitAdversary(
        n,
        t,
        horizon,
        chosen,
        mode=mode,
        include_failure_free=draw(st.booleans()),
    )
    configs = list(all_configurations(n))
    kind = draw(st.sampled_from(("all", "subset", "value-missing")))
    if kind == "all":
        return adversary, None
    if kind == "value-missing":
        processor = draw(st.integers(0, n - 1))
        value = draw(st.integers(0, 1))
        configs = [c for c in configs if c.value_of(processor) != value]
    chosen_configs = draw(
        st.lists(st.sampled_from(configs), min_size=1, unique=True)
    )
    return adversary, chosen_configs


class _SilentSubclassAdversary(ExhaustiveCrashAdversary):
    """An exhaustive subclass that allows only crashes heard by nobody:
    its patterns are not its cell's digit tables."""

    def behaviors_for(self, processor):
        for behavior in super().behaviors_for(processor):
            if not behavior.receivers:
                yield behavior


class TestRestrictedParity:
    @given(cell=restricted_cells())
    @settings(max_examples=120, deadline=None)
    # Exhaustive adversaries, built from their cells' digit tables, and a
    # subclass of one, which keeps the explicit path.
    @example(cell=(ExhaustiveCrashAdversary(3, 1, 3), None))
    @example(
        cell=(
            ExhaustiveOmissionAdversary(3, 1, 2),
            list(all_configurations(3))[2:7],
        )
    )
    @example(cell=(ExhaustiveReceiveOmissionAdversary(3, 1, 2), None))
    @example(cell=(_SilentSubclassAdversary(3, 1, 2), None))
    def test_build_system_matches_oracle(self, cell):
        adversary, configs = cell
        system = build_system(adversary, configs=configs)
        graph = build_graph(adversary, configs=configs)
        assert_arrays_byte_identical(system.arrays(), project(graph))
        assert system.scenarios() == graph.scenarios()
        assert list(system.runs) == graph.runs
        assert system.table.export_entries() == graph.table.export_entries()

    def test_empty_and_repeated_lists_rejected(self):
        adversary = exhaustive_adversary(FailureMode.CRASH, 3, 1, 1)
        configs = list(all_configurations(3))
        for bad in ([], configs[:1] * 2):
            with pytest.raises(ConfigurationError):
                build_system(adversary, configs=bad)
        patterns = list(adversary.patterns())
        for bad in ([], patterns[:1] * 2):
            with pytest.raises(ConfigurationError):
                build_arrays(FailureMode.CRASH, 3, 1, 1, patterns=bad)


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
        reference = project(build_graph(ExhaustiveCrashAdversary(3, 1, 2)))
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
