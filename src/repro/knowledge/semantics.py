"""Core evaluation routines for the knowledge formalism.

This module implements the satisfaction relation of Section 3 of the paper
over enumerated systems:

* ``K_i φ`` — knowledge as truth at all same-state points;
* ``B_i^S φ = K_i(i ∈ S ⇒ φ)`` — belief relative to a nonrigid set;
* ``E_S φ`` — "everyone in S believes";
* ``C_S φ`` — common knowledge, as the greatest fixed point of
  ``X ↔ E_S(φ ∧ X)``;
* ``□ / ◇ / ⊡`` — temporal operators (present-and-future always /
  eventually, and the paper's all-times ``⊡``);
* ``E□_S φ = ⊡ E_S φ`` and **continual common knowledge** ``C□_S φ`` as the
  greatest fixed point of ``X ↔ E□_S(φ ∧ X)``, plus the fast
  reachability-component algorithm of Corollary 3.3 for run-level facts.

All functions take and return
:class:`~repro.model.system.TruthAssignment` limb arrays; formula-level
caching lives in :mod:`repro.knowledge.formulas`.  Each operator is one
pass of the :class:`~repro.model.chunked.ChunkedIndex` of the system:

* ``K_i φ``, ``B_i^S φ`` and ``E_S φ`` are one subset test per distinct
  local state, over the group's limbs only;
* the temporal operators sweep time columns;
* the fixpoints ``C``, ``C□`` and ``C◇`` iterate downward from all-true,
  retiring in one vectorized pass per iteration the state groups the
  freshly eliminated points touch (iterates shrink monotonically, so a
  group's belief verdict flips true→false at most once).

What the evaluators read besides their operands comes from the system's
:class:`~repro.model.partition.SystemArrays` in vectorized passes: member
masks are packed from a nonrigid set's membership array, and the
Corollary 3.3 components are labelled over the ``(run, view)`` incidence
of the member points.  The per-point reference evaluator these passes
replaced is the differential oracle of the test suite.

Finite-horizon caveat: temporal operators treat the horizon as the end of
time.  For the run-level and monotone facts used throughout the paper this
is exact provided the horizon exceeds all decision times (see DESIGN.md).

Cache invalidation: every memo these evaluators feed — the formula cache
(``System.cached_evaluation``), nonrigid membership arrays, component
labellings and the group index — lives **on the System instance**, and
each ``(mode, n, t, horizon)`` cell is its own System.  A verdict
computed at horizon ``h`` can therefore never be served for the
horizon-``h+1`` system: the caches are horizon-qualified structurally,
by instance identity, with nothing to invalidate.
"""

from __future__ import annotations

from typing import Callable, List

import numpy as np

from .. import obs, trace
from ..model.chunked import ChunkedIndex
from ..model.partition import component_holds, reachability_labels
from ..model.system import System, TruthAssignment
from .nonrigid import NonrigidSet


def _member_limbs(
    system: System, index: ChunkedIndex, nonrigid: NonrigidSet
) -> List[object]:
    """Per-processor limb buffer of points where the processor is in ``S``.

    Packed from the nonrigid set's membership array; memoized on the
    system's :class:`ChunkedIndex` by the nonrigid set's cache key.
    """
    key = nonrigid.cache_key()
    masks = index.member_masks.get(key)
    if masks is None:
        member = nonrigid.membership(system)
        masks = [index.pack_points(member[:, :, p]) for p in range(system.n)]
        index.member_masks[key] = masks
    return masks


def _fixpoint(
    span: str,
    system: System,
    nonrigid: NonrigidSet,
    phi: TruthAssignment,
    post: Callable[[ChunkedIndex, object], object],
) -> TruthAssignment:
    """Greatest fixed point of ``X ↔ post(E_S(φ ∧ X))`` in trace span
    *span*, which records the iteration count."""
    with trace.span(span) as fixpoint_span:
        index = system.chunked_index()
        limbs, iterations = index.fixpoint(
            _member_limbs(system, index, nonrigid),
            phi.limbs,
            lambda m: post(index, m),
        )
        fixpoint_span.set("iterations", iterations)
    return phi._replace(limbs)


# -- state operators ----------------------------------------------------------

def eval_knows(
    system: System, processor: int, phi: TruthAssignment
) -> TruthAssignment:
    """``K_i φ``: truth of φ at every point where ``i`` has the same state.

    Knowledge is state-determined, so the result is computed once per
    distinct local state of *processor* and broadcast to all points sharing
    it.
    """
    index = system.chunked_index()
    return phi._replace(index.knows_limbs(processor, phi.limbs))


def eval_believes(
    system: System,
    nonrigid: NonrigidSet,
    processor: int,
    phi: TruthAssignment,
) -> TruthAssignment:
    """``B_i^S φ = K_i(i ∈ S ⇒ φ)``.

    True at ``(r, m)`` iff φ holds at every same-state point ``(r', m')``
    with ``i ∈ S(r', m')``.  Vacuously true when no such point exists —
    matching the paper's observation that ``B_i^S`` is a *belief*: it does
    not imply φ when ``i ∉ S``.
    """
    index = system.chunked_index()
    pmask = _member_limbs(system, index, nonrigid)[processor]
    return phi._replace(index.believes_limbs(processor, pmask, phi.limbs))


def eval_everyone(
    system: System, nonrigid: NonrigidSet, phi: TruthAssignment
) -> TruthAssignment:
    """``E_S φ = ∧_{i ∈ S} B_i^S φ`` (vacuously true when ``S`` is empty)."""
    index = system.chunked_index()
    members = _member_limbs(system, index, nonrigid)
    return phi._replace(index.everyone_limbs(members, phi.limbs))


def eval_common(
    system: System, nonrigid: NonrigidSet, phi: TruthAssignment
) -> TruthAssignment:
    """``C_S φ``: greatest fixed point of ``X ↔ E_S(φ ∧ X)``.

    Iterates downward from the all-true assignment; each iteration strictly
    shrinks the true set until stable, so termination is guaranteed on a
    finite system.
    """
    return _fixpoint(
        "fixpoint.common", system, nonrigid, phi, lambda index, m: m
    )


def eval_always(system: System, phi: TruthAssignment) -> TruthAssignment:
    """``□ φ``: φ holds now and at all later times of the run."""
    return phi._replace(system.chunked_index().always_limbs(phi.limbs))


def eval_eventually(system: System, phi: TruthAssignment) -> TruthAssignment:
    """``◇ φ``: φ holds now or at some later time of the run."""
    return phi._replace(system.chunked_index().eventually_limbs(phi.limbs))


def eval_at_all_times(system: System, phi: TruthAssignment) -> TruthAssignment:
    """The paper's ``⊡ φ``: φ holds at *every* time of the run (past,
    present and future) — a run-level property."""
    return phi._replace(system.chunked_index().at_all_times_limbs(phi.limbs))


def eval_everyone_box(
    system: System, nonrigid: NonrigidSet, phi: TruthAssignment
) -> TruthAssignment:
    """``E□_S φ = ⊡ E_S φ`` (paper, Section 3.3)."""
    return eval_at_all_times(system, eval_everyone(system, nonrigid, phi))


def eval_continual_common(
    system: System, nonrigid: NonrigidSet, phi: TruthAssignment
) -> TruthAssignment:
    """``C□_S φ``: greatest fixed point of ``X ↔ E□_S(φ ∧ X)``.

    The semantic definition; for run-level φ the component algorithm
    :func:`eval_continual_common_components` is equivalent (Corollary 3.3)
    and much faster.  Tests cross-check the two.
    """
    return _fixpoint(
        "fixpoint.continual_common",
        system,
        nonrigid,
        phi,
        ChunkedIndex.at_all_times_limbs,
    )


def eval_eventual_common(
    system: System, nonrigid: NonrigidSet, phi: TruthAssignment
) -> TruthAssignment:
    """Eventual common knowledge ``C◇_S φ`` ([HM90]; paper, Section 3.2).

    "Eventually everyone will know that eventually everyone will know
    that … φ": the greatest fixed point of ``X ↔ ◇ E_S(φ ∧ X)``.  The
    paper's Section 3.2 uses it to motivate continual common knowledge —
    ``C◇`` is *too weak* a basis for a decision rule on its own (both
    ``C◇∃0`` and ``C◇∃1`` can be known by different processors at once),
    which is exactly what experiment E21 exhibits.

    Satisfies ``◇ C_S φ ⇒ C◇_S φ`` (if φ ever becomes common knowledge it
    is eventual common knowledge) — checked in tests.
    """
    return _fixpoint(
        "fixpoint.eventual_common",
        system,
        nonrigid,
        phi,
        ChunkedIndex.eventually_limbs,
    )


def run_reachability_components(
    system: System, nonrigid: NonrigidSet
) -> List[int]:
    """S-□-reachability components over runs (Corollary 3.3).

    Two runs are linked when some processor, while a member of ``S``, has
    the same local state at a point of each — exactly the one-step relation
    of the paper's ``S-□-reachability``, which (per Lemma 3.4(g)) depends
    only on the runs, not the times.  Returns, for each run index, its
    component's label — the component's smallest run; runs with **no**
    ``S`` occurrence at any point get the sentinel ``-1`` (no point is
    reachable from them, so any ``C□_S φ`` holds there vacuously).

    The scan reads the ``(run, view)`` incidence of the member points off
    the view-id matrix (the set's membership array selects them) and
    labels its components by min-label propagation with pointer jumping
    (:func:`~repro.model.partition.reachability_labels`).

    Labellings are memoized on the system per nonrigid set (the explanation
    machinery asks for the same components once per explained point); treat
    the returned list as read-only.
    """
    return system.cached_components(
        nonrigid.cache_key(), lambda: _components(system, nonrigid)
    )


def _components(system: System, nonrigid: NonrigidSet) -> List[int]:
    arrays = system.arrays()
    points = np.flatnonzero(nonrigid.membership(system))
    runs = points // (arrays.width * arrays.n)
    views = arrays.views.reshape(-1)[points]
    return reachability_labels(
        arrays.num_runs, runs, views, arrays.num_views
    ).tolist()


def eval_continual_common_components(
    system: System,
    nonrigid: NonrigidSet,
    run_level_phi: List[bool],
) -> TruthAssignment:
    """Fast ``C□_S φ`` for run-level φ via reachability components.

    ``C□_S φ`` holds at (every point of) run ``r`` iff φ holds in every run
    of ``r``'s S-□-reachability component; runs without any ``S``
    occurrence satisfy it vacuously.

    Args:
        run_level_phi: ``run_level_phi[run_index]`` — truth of φ in the run
            (φ must be time-independent).
    """
    with obs.stage("reachability_components"), trace.span(
        "reachability_components", runs=len(system.runs)
    ):
        components = run_reachability_components(system, nonrigid)
    return TruthAssignment.from_run_levels(
        system, component_holds(components, run_level_phi)
    )
