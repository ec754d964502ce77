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

All functions take and return :class:`~repro.model.system.TruthAssignment`
matrices; formula-level caching lives in :mod:`repro.knowledge.formulas`.

Every evaluator is implemented three times (see :mod:`repro.model.kernels`):

* the **bitset kernel** operates on packed point bitmasks.  ``K_i φ``
  becomes one subset test per distinct local state against the
  :class:`~repro.model.system.BitsetIndex` group masks; temporal operators
  sweep time columns; the fixpoints run a *changed-frontier* iteration
  that only re-examines local states whose relevant points were eliminated
  in the previous round (greatest-fixed-point iterates shrink
  monotonically, so belief verdicts flip true→false at most once);
* the **chunked kernel** runs the same algorithms over 64-bit limb
  arrays via the :class:`~repro.model.chunked.ChunkedIndex`: group tests
  touch only the limbs a state's points occupy, and the fixpoints drive
  the changed-frontier iteration with a *dirty-limb* set, so huge
  systems (beyond ``BITSET_POINT_LIMIT``) stay on a packed fast path;
* the **reference kernel** is the original list-of-lists evaluator,
  retained as an executable specification — differential tests assert all
  kernels produce identical assignments on every formula in the explain
  catalogs.

Dispatch is by representation: operands built under the bitset kernel are
:class:`~repro.model.system.BitsetAssignment` instances, chunked operands
are :class:`~repro.model.chunked.ChunkedAssignment` instances, and both
take their fast paths; reference assignments take the original ones.

What the evaluators read besides their operands comes from the system's
:class:`~repro.model.partition.SystemArrays` in vectorized passes: the
packed kernels' member masks are packed from a nonrigid set's membership
array, and the Corollary 3.3 components are labelled over the
``(run, view)`` incidence of the member points, whatever the kernel.

Finite-horizon caveat: temporal operators treat the horizon as the end of
time.  For the run-level and monotone facts used throughout the paper this
is exact provided the horizon exceeds all decision times (see DESIGN.md).

Incremental extension and cache invalidation: every memo these evaluators
feed — the formula cache (``System.cached_evaluation``, keyed per resolved
kernel), nonrigid membership arrays, component labellings, and the packed
kernel indexes — lives **on the System instance**, and
:func:`~repro.model.system.extend_system` returns a *new* System per
horizon step.  A verdict computed at horizon ``h`` can therefore never be
served for the extended horizon-``h+1`` system: the caches are
horizon-qualified structurally, by instance identity, with nothing to
invalidate.  The base system keeps its caches and stays fully usable.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import numpy as np

from .. import obs, trace
from ..model.chunked import ChunkedAssignment, ChunkedIndex
from ..model.partition import component_holds, reachability_labels
from ..model.system import (
    BitsetAssignment,
    BitsetIndex,
    System,
    TruthAssignment,
    _bits_mask,
)
from .nonrigid import NonrigidSet


def _reference_rows(system: System, value: bool) -> List[List[bool]]:
    """Mutable all-*value* rows for the reference evaluators.

    The reference branches build their results by mutating rows in place,
    so they must not go through the kernel-dispatching
    ``TruthAssignment.constant`` factory: under a packed kernel that
    returns an assignment whose ``.values`` is a materialized throwaway
    copy, and the mutations would be lost.
    """
    return [
        [value] * (system.horizon + 1) for _ in range(len(system.runs))
    ]


# -- member masks -------------------------------------------------------------

def _member_masks(
    system: System, index: BitsetIndex, nonrigid: NonrigidSet
) -> List[int]:
    """Per-processor bitmask of points where the processor is in ``S``.

    Packed from the nonrigid set's membership array; memoized on the
    system's :class:`BitsetIndex` by the nonrigid set's cache key.
    """
    key = nonrigid.cache_key()
    masks = index.member_masks.get(key)
    if masks is None:
        member = nonrigid.membership(system)
        masks = [_bits_mask(member[:, :, p]) for p in range(system.n)]
        index.member_masks[key] = masks
    return masks


def _member_limbs(
    system: System, index: ChunkedIndex, nonrigid: NonrigidSet
) -> List[object]:
    """Per-processor limb buffer of points where the processor is in ``S``.

    Memoized on the system's :class:`ChunkedIndex` by the nonrigid set's
    cache key (the chunked twin of :func:`_member_masks`).
    """
    key = nonrigid.cache_key()
    masks = index.member_masks.get(key)
    if masks is None:
        member = nonrigid.membership(system)
        masks = [index.pack_points(member[:, :, p]) for p in range(system.n)]
        index.member_masks[key] = masks
    return masks


# -- bitset kernel helpers ----------------------------------------------------

def _believes_mask(
    index: BitsetIndex, processor: int, pmask: int, phi_mask: int
) -> int:
    """``B_i^S φ`` as a mask: per distinct state of *processor*, true iff
    φ holds at every same-state point where the processor is an S-member
    (vacuously true when there is none)."""
    not_phi = ~phi_mask
    result = 0
    for gmask in index.groups[processor]:
        if not (gmask & pmask) & not_phi:
            result |= gmask
    return result


def _everyone_mask(
    system: System,
    index: BitsetIndex,
    member_masks: List[int],
    phi_mask: int,
) -> int:
    """``E_S φ`` as a mask (vacuously true where ``S`` is empty)."""
    bad = 0
    for processor in range(system.n):
        pmask = member_masks[processor]
        if pmask:
            belief = _believes_mask(index, processor, pmask, phi_mask)
            bad |= pmask & ~belief
    return index.full & ~bad


def _always_mask(index: BitsetIndex, mask: int) -> int:
    """``□`` column sweep: suffix-AND within each run's bit block."""
    width = index.width
    column = index.col0 << (width - 1)
    previous = mask & column
    result = previous
    for _ in range(width - 1):
        column >>= 1
        previous = mask & column & (previous >> 1)
        result |= previous
    return result


def _eventually_mask(index: BitsetIndex, mask: int) -> int:
    """``◇`` column sweep: suffix-OR within each run's bit block."""
    width = index.width
    column = index.col0 << (width - 1)
    previous = mask & column
    result = previous
    for _ in range(width - 1):
        column >>= 1
        previous = column & (mask | (previous >> 1))
        result |= previous
    return result


def _at_all_times_mask(index: BitsetIndex, mask: int) -> int:
    """``⊡``: fold all time columns of a run onto its col0 bit, then
    broadcast the per-run verdict back across the run's window."""
    folded = mask
    for shift in range(1, index.width):
        folded &= mask >> shift
    return index.spread_run_levels(folded & index.col0)


def _bitset_fixpoint(
    system: System,
    nonrigid: NonrigidSet,
    phi: BitsetAssignment,
    post: Callable[[int], int],
) -> Tuple[int, int]:
    """Greatest fixed point of ``X ↔ post(E_S(φ ∧ X))`` on masks.

    Returns ``(final mask, iterations)``.  Runs the standard downward
    iteration from all-true, but with a changed-frontier inner loop: the
    iterates shrink monotonically, so a local state's belief verdict can
    only flip true→false, and only when the eliminated frontier (``delta``)
    intersects the state's relevant points.  States are dropped from the
    alive list the moment they fail, so late iterations touch only the
    shrinking frontier instead of rescanning every state.
    """
    index = system.bitset_index()
    member_masks = _member_masks(system, index, nonrigid)
    full = index.full
    phi_mask = phi.mask
    processors = [p for p in range(system.n) if member_masks[p]]
    # Seed with operand = φ ∧ all-true = φ: belief verdict per alive state.
    alive: Dict[int, List[int]] = {}
    bad = 0
    operand = phi_mask
    not_operand = ~operand
    for processor in processors:
        pmask = member_masks[processor]
        keep: List[int] = []
        for gmask in index.groups[processor]:
            if (gmask & pmask) & not_operand:
                bad |= pmask & gmask
            else:
                keep.append(gmask)
        alive[processor] = keep
    current = full
    iterations = 0
    while True:
        obs.count("fixpoint_iterations")
        iterations += 1
        candidate = post(full & ~bad)
        if candidate == current:
            obs.observe("fixpoint_iterations_per_call", iterations)
            return current, iterations
        new_operand = phi_mask & candidate
        delta = operand & ~new_operand
        if delta:
            for processor in processors:
                pmask = member_masks[processor]
                touched = delta & pmask
                if not touched:
                    continue
                keep = []
                for gmask in alive[processor]:
                    if gmask & touched:
                        # A previously-satisfying point was eliminated:
                        # the subset test now fails by construction.
                        bad |= pmask & gmask
                    else:
                        keep.append(gmask)
                alive[processor] = keep
        operand = new_operand
        current = candidate


# -- state operators ----------------------------------------------------------

def eval_knows(
    system: System, processor: int, phi: TruthAssignment
) -> TruthAssignment:
    """``K_i φ``: truth of φ at every point where ``i`` has the same state.

    Knowledge is state-determined, so the result is computed once per
    distinct local state of *processor* and broadcast to all points sharing
    it.
    """
    if isinstance(phi, BitsetAssignment):
        index = system.bitset_index()
        phi_mask = phi.mask
        result = 0
        for gmask in index.groups[processor]:
            if phi_mask & gmask == gmask:
                result |= gmask
        return phi._replace(result)
    if isinstance(phi, ChunkedAssignment):
        cindex = system.chunked_index()
        return phi._replace(cindex.knows_limbs(processor, phi.limbs))
    rows = _reference_rows(system, False)
    seen: Dict[int, bool] = {}
    for run_index, run in enumerate(system.runs):
        for time in range(system.horizon + 1):
            view = run.view(processor, time)
            value = seen.get(view)
            if value is None:
                value = all(
                    phi.at(other_run, other_time)
                    for other_run, other_time in system.same_state_points(view)
                )
                seen[view] = value
            rows[run_index][time] = value
    return TruthAssignment(rows)


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
    if isinstance(phi, BitsetAssignment):
        index = system.bitset_index()
        pmask = _member_masks(system, index, nonrigid)[processor]
        return phi._replace(
            _believes_mask(index, processor, pmask, phi.mask)
        )
    if isinstance(phi, ChunkedAssignment):
        cindex = system.chunked_index()
        pmask = _member_limbs(system, cindex, nonrigid)[processor]
        return phi._replace(
            cindex.believes_limbs(processor, pmask, phi.limbs)
        )
    members = nonrigid.members_matrix(system)
    rows = _reference_rows(system, False)
    seen: Dict[int, bool] = {}
    for run_index, run in enumerate(system.runs):
        for time in range(system.horizon + 1):
            view = run.view(processor, time)
            value = seen.get(view)
            if value is None:
                value = all(
                    phi.at(other_run, other_time)
                    for other_run, other_time in system.same_state_points(view)
                    if processor in members[other_run][other_time]
                )
                seen[view] = value
            rows[run_index][time] = value
    return TruthAssignment(rows)


def eval_everyone(
    system: System, nonrigid: NonrigidSet, phi: TruthAssignment
) -> TruthAssignment:
    """``E_S φ = ∧_{i ∈ S} B_i^S φ`` (vacuously true when ``S`` is empty)."""
    if isinstance(phi, BitsetAssignment):
        index = system.bitset_index()
        member_masks = _member_masks(system, index, nonrigid)
        return phi._replace(
            _everyone_mask(system, index, member_masks, phi.mask)
        )
    if isinstance(phi, ChunkedAssignment):
        cindex = system.chunked_index()
        member_limbs = _member_limbs(system, cindex, nonrigid)
        return phi._replace(
            cindex.everyone_limbs(member_limbs, phi.limbs)
        )
    members = nonrigid.members_matrix(system)
    beliefs = [
        eval_believes(system, nonrigid, processor, phi)
        for processor in range(system.n)
    ]
    rows = _reference_rows(system, True)
    for run_index in range(len(system.runs)):
        for time in range(system.horizon + 1):
            for processor in members[run_index][time]:
                if not beliefs[processor].at(run_index, time):
                    rows[run_index][time] = False
                    break
    return TruthAssignment(rows)


def eval_common(
    system: System, nonrigid: NonrigidSet, phi: TruthAssignment
) -> TruthAssignment:
    """``C_S φ``: greatest fixed point of ``X ↔ E_S(φ ∧ X)``.

    Iterates downward from the all-true assignment; each iteration strictly
    shrinks the true set until stable, so termination is guaranteed on a
    finite system.
    """
    with trace.span("fixpoint.common") as fixpoint_span:
        if isinstance(phi, BitsetAssignment):
            mask, iterations = _bitset_fixpoint(
                system, nonrigid, phi, lambda m: m
            )
            fixpoint_span.set("iterations", iterations)
            return phi._replace(mask)
        if isinstance(phi, ChunkedAssignment):
            cindex = system.chunked_index()
            limbs, iterations = cindex.fixpoint(
                _member_limbs(system, cindex, nonrigid),
                phi.limbs,
                lambda m: m,
            )
            fixpoint_span.set("iterations", iterations)
            return phi._replace(limbs)
        iterations = 0
        current = TruthAssignment(_reference_rows(system, True))
        while True:
            obs.count("fixpoint_iterations")
            iterations += 1
            candidate = eval_everyone(system, nonrigid, phi.conjoin(current))
            if candidate == current:
                obs.observe("fixpoint_iterations_per_call", iterations)
                fixpoint_span.set("iterations", iterations)
                return current
            current = candidate


def eval_always(system: System, phi: TruthAssignment) -> TruthAssignment:
    """``□ φ``: φ holds now and at all later times of the run."""
    if isinstance(phi, BitsetAssignment):
        return phi._replace(_always_mask(system.bitset_index(), phi.mask))
    if isinstance(phi, ChunkedAssignment):
        return phi._replace(
            system.chunked_index().always_limbs(phi.limbs)
        )
    rows = _reference_rows(system, False)
    for run_index in range(len(system.runs)):
        holds = True
        for time in range(system.horizon, -1, -1):
            holds = holds and phi.at(run_index, time)
            rows[run_index][time] = holds
        # `holds` intentionally carried across the descending sweep.
    return TruthAssignment(rows)


def eval_eventually(system: System, phi: TruthAssignment) -> TruthAssignment:
    """``◇ φ``: φ holds now or at some later time of the run."""
    if isinstance(phi, BitsetAssignment):
        return phi._replace(
            _eventually_mask(system.bitset_index(), phi.mask)
        )
    if isinstance(phi, ChunkedAssignment):
        return phi._replace(
            system.chunked_index().eventually_limbs(phi.limbs)
        )
    rows = _reference_rows(system, False)
    for run_index in range(len(system.runs)):
        holds = False
        for time in range(system.horizon, -1, -1):
            holds = holds or phi.at(run_index, time)
            rows[run_index][time] = holds
    return TruthAssignment(rows)


def eval_at_all_times(system: System, phi: TruthAssignment) -> TruthAssignment:
    """The paper's ``⊡ φ``: φ holds at *every* time of the run (past,
    present and future) — a run-level property."""
    if isinstance(phi, BitsetAssignment):
        return phi._replace(
            _at_all_times_mask(system.bitset_index(), phi.mask)
        )
    if isinstance(phi, ChunkedAssignment):
        return phi._replace(
            system.chunked_index().at_all_times_limbs(phi.limbs)
        )
    rows = _reference_rows(system, False)
    for run_index in range(len(system.runs)):
        holds = all(phi.at(run_index, time) for time in range(system.horizon + 1))
        for time in range(system.horizon + 1):
            rows[run_index][time] = holds
    return TruthAssignment(rows)


def eval_everyone_box(
    system: System, nonrigid: NonrigidSet, phi: TruthAssignment
) -> TruthAssignment:
    """``E□_S φ = ⊡ E_S φ`` (paper, Section 3.3)."""
    return eval_at_all_times(system, eval_everyone(system, nonrigid, phi))


def eval_continual_common(
    system: System, nonrigid: NonrigidSet, phi: TruthAssignment
) -> TruthAssignment:
    """``C□_S φ``: greatest fixed point of ``X ↔ E□_S(φ ∧ X)``.

    This is the reference (semantic-definition) evaluator; for run-level φ
    the component algorithm :func:`eval_continual_common_components` is
    equivalent (Corollary 3.3) and much faster.  Tests cross-check the two.
    """
    with trace.span("fixpoint.continual_common") as fixpoint_span:
        if isinstance(phi, BitsetAssignment):
            index = system.bitset_index()
            mask, iterations = _bitset_fixpoint(
                system,
                nonrigid,
                phi,
                lambda m: _at_all_times_mask(index, m),
            )
            fixpoint_span.set("iterations", iterations)
            return phi._replace(mask)
        if isinstance(phi, ChunkedAssignment):
            cindex = system.chunked_index()
            limbs, iterations = cindex.fixpoint(
                _member_limbs(system, cindex, nonrigid),
                phi.limbs,
                cindex.at_all_times_limbs,
            )
            fixpoint_span.set("iterations", iterations)
            return phi._replace(limbs)
        iterations = 0
        current = TruthAssignment(_reference_rows(system, True))
        while True:
            obs.count("fixpoint_iterations")
            iterations += 1
            candidate = eval_everyone_box(
                system, nonrigid, phi.conjoin(current)
            )
            if candidate == current:
                obs.observe("fixpoint_iterations_per_call", iterations)
                fixpoint_span.set("iterations", iterations)
                return current
            current = candidate


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
    with trace.span("fixpoint.eventual_common") as fixpoint_span:
        if isinstance(phi, BitsetAssignment):
            index = system.bitset_index()
            mask, iterations = _bitset_fixpoint(
                system,
                nonrigid,
                phi,
                lambda m: _eventually_mask(index, m),
            )
            fixpoint_span.set("iterations", iterations)
            return phi._replace(mask)
        if isinstance(phi, ChunkedAssignment):
            cindex = system.chunked_index()
            limbs, iterations = cindex.fixpoint(
                _member_limbs(system, cindex, nonrigid),
                phi.limbs,
                cindex.eventually_limbs,
            )
            fixpoint_span.set("iterations", iterations)
            return phi._replace(limbs)
        iterations = 0
        current = TruthAssignment(_reference_rows(system, True))
        while True:
            obs.count("fixpoint_iterations")
            iterations += 1
            candidate = eval_eventually(
                system, eval_everyone(system, nonrigid, phi.conjoin(current))
            )
            if candidate == current:
                obs.observe("fixpoint_iterations_per_call", iterations)
                fixpoint_span.set("iterations", iterations)
                return current
            current = candidate


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
