"""Differential property: the evaluators that read the view-id matrix
against the per-point oracles of :mod:`tests.oracles`.

Nonrigid membership, Corollary 3.3 components and ``FIP(Z, O)``
decisions are computed from a system's
:class:`~repro.model.partition.SystemArrays`.  The cells drawn here cover
every kind of system the builder makes — exhaustive crash, omission and
receive-omission cells from the provider, a restricted pattern family,
and an explicit configuration subset.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decision_sets import DecisionPair, close_under_recall
from repro.knowledge.formulas import ContinualCommon, Exists, SetEmpty
from repro.knowledge.nonrigid import (
    EVERYONE,
    NONFAULTY,
    ConstantSet,
    NonfaultyAndDeciding,
)
from repro.knowledge.semantics import (
    _member_limbs,
    run_reachability_components,
)
from repro.model.adversary import exhaustive_adversary
from repro.model.builder import restricted_system
from repro.model.config import all_configurations
from repro.model.failures import FailureMode
from repro.model.partition import reachability_labels
from repro.model.provider import PROVIDER
from repro.model.system import build_system
from repro.protocols.fip import FullInformationProtocol

from . import oracles
from .test_kernels import induced_partition

#: ``(mode, n, t, horizon)`` of the exhaustive cells drawn (at most a few
#: thousand points each).
CELLS = [
    (FailureMode.CRASH, 2, 1, 2),
    (FailureMode.CRASH, 3, 1, 2),
    (FailureMode.CRASH, 3, 2, 2),
    (FailureMode.CRASH, 4, 1, 2),
    (FailureMode.OMISSION, 2, 1, 2),
    (FailureMode.OMISSION, 3, 1, 2),
    (FailureMode.OMISSION, 4, 1, 1),
    (FailureMode.RECEIVE_OMISSION, 2, 1, 2),
    (FailureMode.RECEIVE_OMISSION, 3, 1, 2),
    (FailureMode.RECEIVE_OMISSION, 4, 1, 1),
]

KINDS = ("exhaustive", "restricted", "configs")


@st.composite
def cells(draw):
    """``(system, pool)``: a system and the view ids its decision pairs
    are drawn from."""
    kind = draw(st.sampled_from(KINDS))
    mode, n, t, horizon = draw(st.sampled_from(CELLS))
    if kind == "exhaustive":
        system = PROVIDER.get(mode, n, t, horizon)
        return system, sorted(system.occurring_views())
    if kind == "restricted":
        patterns = list(exhaustive_adversary(mode, n, t, horizon).patterns())
        chosen = draw(
            st.lists(
                st.sampled_from(patterns[1:]), min_size=1, unique=True
            )
        )
        system = restricted_system(mode, n, t, horizon, chosen)
        return system, sorted(system.occurring_views())
    configs = list(all_configurations(n))
    chosen = draw(st.lists(st.sampled_from(configs), min_size=1, unique=True))
    adversary = exhaustive_adversary(mode, n, t, horizon)
    system = build_system(adversary, configs=chosen)
    return system, sorted(system.occurring_views())


@st.composite
def pairs(draw, system, pool):
    """A random recall-closed pair over *pool*; its one-triggers share
    some zero-triggers, so simultaneous first firings occur."""
    views = st.sampled_from(pool)
    zero_triggers = draw(st.sets(views, max_size=12))
    shared = draw(
        st.sets(st.sampled_from(sorted(zero_triggers) or pool), max_size=3)
    )
    one_triggers = draw(st.sets(views, max_size=12)) | shared
    return DecisionPair(
        close_under_recall(zero_triggers, pool, system.table),
        close_under_recall(one_triggers, pool, system.table),
    )


def check_membership(system, nonrigid):
    expected = oracles.members_matrix(system, nonrigid)
    assert nonrigid.members_matrix(system) == expected
    member = nonrigid.membership(system)
    assert member.shape == (len(system.runs), system.horizon + 1, system.n)
    rows = [
        [[p in cell for p in range(system.n)] for cell in row]
        for row in expected
    ]
    assert member.tolist() == rows
    assert nonrigid.always_empty(system) == (not member.any())
    empty = [[not cell for cell in row] for row in expected]
    assert SetEmpty(nonrigid).evaluate(system).to_rows() == empty
    points = len(system.runs) * (system.horizon + 1)
    for processor in range(system.n):
        wanted = [
            processor in cell for row in expected for cell in row
        ]
        limbs = _member_limbs(system, system.chunked_index(), nonrigid)
        got = np.unpackbits(
            limbs[processor].view(np.uint8), bitorder="little"
        )[:points].astype(bool).tolist()
        assert got == wanted, processor


def check_components(system, nonrigid):
    labels = run_reachability_components(system, nonrigid)
    expected = oracles.components(system, nonrigid)
    assert induced_partition(labels) == induced_partition(expected)
    # Each component is labelled by its smallest run.
    for run_index, label in enumerate(labels):
        assert label == -1 or label <= run_index
        assert label == -1 or labels[label] == label
    exists1 = [1 in run.config.values for run in system.runs]
    ok = {}
    for run_index, label in enumerate(expected):
        if label != -1:
            ok[label] = ok.get(label, True) and exists1[run_index]
    width = system.horizon + 1
    wanted = [
        [label == -1 or ok[label]] * width for label in expected
    ]
    cbox = ContinualCommon(nonrigid, Exists(1)).evaluate(system)
    assert cbox.to_rows() == wanted


def check_fip(system, pair):
    protocol = FullInformationProtocol(pair)
    times = oracles.first_times(system, pair)
    for run_index in range(len(system.runs)):
        for processor in range(system.n):
            assert protocol.decision_for(
                system, run_index, processor
            ) == oracles.decision_for(times, run_index, processor)
    outcome = protocol.outcome(system)
    for run_index, run in enumerate(system.runs):
        decisions = outcome.get((run.config, run.pattern)).decisions
        assert list(decisions) == [
            oracles.decision_for(times, run_index, processor)
            for processor in range(system.n)
        ]
    assert protocol.conflicts(system) == oracles.conflicts(times)
    sticky = protocol.sticky_pair(system)
    assert (sticky.zeros, sticky.ones) == oracles.sticky_pair(system, pair)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_arrays_paths_match_oracles(data):
    system, pool = data.draw(cells())
    pair = data.draw(pairs(system, pool))
    group = frozenset(
        data.draw(st.sets(st.integers(0, system.n - 1), max_size=system.n))
    )
    sets = [
        NONFAULTY,
        EVERYONE,
        ConstantSet(group),
        NonfaultyAndDeciding(pair, "zeros"),
        NonfaultyAndDeciding(pair, "ones"),
    ]
    for nonrigid in sets:
        check_membership(system, nonrigid)
        check_components(system, nonrigid)
    check_fip(system, pair)


@given(
    num_runs=st.integers(1, 24),
    edges=st.lists(
        st.tuples(st.integers(0, 23), st.integers(0, 11)), max_size=40
    ),
)
@settings(max_examples=200, deadline=None)
def test_reachability_labels_match_union_find(num_runs, edges):
    """Min-label propagation on random sparse incidences — chains whose
    middle runs have larger indices than their ends take several
    sweeps — against the union-find oracle: same partition, each
    component labelled by its smallest run, ``-1`` off the incidence."""
    edges = [(run % num_runs, node) for run, node in edges]
    runs = [run for run, _ in edges]
    nodes = [node for _, node in edges]
    labels = reachability_labels(num_runs, runs, nodes, 12).tolist()
    uf = oracles.UnionFind(num_runs)
    anchor = {}
    for run, node in edges:
        uf.union(anchor.setdefault(node, run), run)
    touched = set(runs)
    smallest = {}
    for run in sorted(touched):
        smallest.setdefault(uf.find(run), run)
    assert labels == [
        smallest[uf.find(run)] if run in touched else -1
        for run in range(num_runs)
    ]
