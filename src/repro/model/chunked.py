"""The limb-array evaluation kernel.

A :class:`TruthAssignment` holds one bit per point of a system: point
``(run, time)`` is bit ``run * width + time`` (``width = horizon + 1``),
stored in a flat buffer of 64-bit limbs.  Boolean algebra is elementwise
over the limbs, and the knowledge sweeps are per-state-group scans over
the :class:`ChunkedIndex` of the system: each distinct local state
touches only the limbs its occurrence points live in, so ``K``/``B``/``E``
are one subset test per state group at any system size.

Limbs are one ``uint64`` numpy array (``numpy >= 2.0``, for
``np.bitwise_count``); group sweeps are vectorized gather /
segmented-reduce (``np.bitwise_or.reduceat``) / scatter
(``np.bitwise_or.at``) passes over a flattened ``(limb index, limb
value)`` entry table.

The fixpoint evaluators (``C`` / ``C□`` / ``C◇``) run a downward
iteration from all-true with per-group *alive* flags: the iterates
shrink monotonically, so a group's belief verdict flips true→false at
most once, and each iteration retires the groups whose member points
the freshly eliminated set (``delta``) touches in one vectorized pass
over the whole entry table.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Container, Dict, List, Sequence, Tuple

import numpy as np

from .. import obs, trace
from .views import ViewId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .system import System

LIMB_BITS = 64
LIMB_MASK = (1 << LIMB_BITS) - 1


# -- limb-buffer primitives ---------------------------------------------------
#
# Buffers are uint64 ndarrays whose last axis is the limb axis.

def _nlimbs(num_bits: int) -> int:
    return max(1, (num_bits + LIMB_BITS - 1) // LIMB_BITS)


def _tail_mask(num_bits: int) -> int:
    rem = num_bits % LIMB_BITS
    return LIMB_MASK if rem == 0 else (1 << rem) - 1


def _not(a, tail: int):
    """Complement within the valid bit range (tail limb masked)."""
    out = ~a
    out[..., -1] &= np.uint64(tail)
    return out


def _popcount(a) -> int:
    return int(np.bitwise_count(a).sum(dtype=np.int64))


def _shift_down(a, k: int):
    """Limb buffer logically shifted toward bit 0 by *k* bits."""
    n = a.shape[-1]
    q, r = divmod(k, LIMB_BITS)
    out = np.zeros(a.shape, np.uint64)
    if q < n:
        if r == 0:
            out[..., : n - q] = a[..., q:]
        else:
            out[..., : n - q] = a[..., q:] >> np.uint64(r)
            if q + 1 < n:
                out[..., : n - q - 1] |= a[..., q + 1 :] << np.uint64(
                    LIMB_BITS - r
                )
    return out


def _shift_up(a, k: int, tail: int):
    """Limb buffer shifted away from bit 0 by *k* bits, tail-masked."""
    n = a.shape[-1]
    q, r = divmod(k, LIMB_BITS)
    out = np.zeros(a.shape, np.uint64)
    if q < n:
        if r == 0:
            out[..., q:] = a[..., : n - q]
        else:
            out[..., q:] = a[..., : n - q] << np.uint64(r)
            if q + 1 < n:
                out[..., q + 1 :] |= a[..., : n - q - 1] >> np.uint64(
                    LIMB_BITS - r
                )
    out[..., -1] &= np.uint64(tail)
    return out


def _bits_to_limbs(bits, nlimbs: int):
    """Pack a point-ordered bool array (bit ``i`` at position ``i``) into
    a limb buffer of *nlimbs* limbs."""
    packed = np.packbits(
        np.asarray(bits, dtype=bool).ravel(), bitorder="little"
    )
    buf = np.zeros(nlimbs * 8, np.uint8)
    buf[: packed.size] = packed
    return buf.view(np.uint64)


def group_tables(views) -> List[Dict[str, object]]:
    """Same-state group tables of a ``(runs, width, n)`` view-id matrix.

    One vectorized pass per processor: the processor's view column is
    stably sorted by view id, and each run of equal ids (a *group*, one
    distinct local state) is cut into *entries* — one per limb its
    points occupy, holding that limb's bits of the group.  Per
    processor: ``idx`` (entry limb indices) and ``val`` (entry limb
    bits), ``starts`` (group boundaries, one past the last), ``gv`` (the
    view of each group, ascending) and ``entries``.  Point ``(run,
    time)`` is bit ``run * width + time``.  The chunked index reads
    these tables.
    """
    tables: List[Dict[str, object]] = []
    for processor in range(views.shape[2]):
        vv = views[:, :, processor].ravel().astype(np.int64)
        order = np.argsort(vv, kind="stable")
        sv = vv[order]
        limb = order >> 6
        bit = (order & 63).astype(np.uint64)
        if sv.size == 0:
            tables.append(
                {
                    "idx": np.zeros(0, np.int64),
                    "val": np.zeros(0, np.uint64),
                    "starts": np.zeros(1, np.int64),
                    "gv": np.zeros(0, np.int64),
                    "entries": 0,
                }
            )
            continue
        new_entry = np.empty(sv.size, dtype=bool)
        new_entry[0] = True
        new_entry[1:] = (sv[1:] != sv[:-1]) | (limb[1:] != limb[:-1])
        entry_starts = np.flatnonzero(new_entry)
        val = np.bitwise_or.reduceat(np.uint64(1) << bit, entry_starts)
        idx = limb[entry_starts]
        sv_entries = sv[entry_starts]
        new_group = np.empty(sv_entries.size, dtype=bool)
        new_group[0] = True
        new_group[1:] = sv_entries[1:] != sv_entries[:-1]
        group_first = np.flatnonzero(new_group)
        tables.append(
            {
                "idx": idx,
                "val": val,
                "starts": np.append(group_first, sv_entries.size),
                "gv": sv_entries[group_first],
                "entries": int(idx.size),
            }
        )
    return tables


class TruthAssignment:
    """A boolean valuation over every point of a system.

    One bit per point, point ``(run, time)`` at bit ``run * width +
    time``, in a flat buffer of 64-bit limbs; bits above ``num_runs *
    width`` are invariantly zero.  Boolean algebra is elementwise over
    the limbs, and the knowledge evaluators of
    :mod:`repro.knowledge.semantics` sweep the limbs through the
    system's :class:`ChunkedIndex`.  The valuation reads out as one
    ``(runs, width)`` bool array (:meth:`bits`), from which rows and run
    levels derive.

    Instances are treated as immutable by the evaluator; helpers that
    derive new assignments always allocate.
    """

    __slots__ = ("limbs", "num_runs", "width", "num_bits")

    def __init__(self, limbs, num_runs: int, width: int) -> None:
        self.limbs = limbs
        self.num_runs = num_runs
        self.width = width
        self.num_bits = num_runs * width

    # -- factories ---------------------------------------------------------

    @staticmethod
    def constant(system: "System", value: bool) -> "TruthAssignment":
        width = system.horizon + 1
        num_runs = len(system.runs)
        num_bits = num_runs * width
        limbs = np.zeros(_nlimbs(num_bits), np.uint64)
        if value:
            limbs = _not(limbs, _tail_mask(num_bits))
        return TruthAssignment(limbs, num_runs, width)

    @staticmethod
    def from_rows(system: "System", rows) -> "TruthAssignment":
        """Build from explicit per-run boolean rows (``[run][time]``)."""
        width = system.horizon + 1
        num_runs = len(system.runs)
        bits = np.asarray(rows, dtype=bool).reshape(num_runs, width)
        return TruthAssignment(
            _bits_to_limbs(bits, _nlimbs(num_runs * width)), num_runs, width
        )

    @staticmethod
    def from_predicate(
        system: "System", predicate: Callable[[int, int], bool]
    ) -> "TruthAssignment":
        """Build from a ``(run_index, time) -> bool`` predicate."""
        rows = [
            [
                bool(predicate(run_index, time))
                for time in range(system.horizon + 1)
            ]
            for run_index in range(len(system.runs))
        ]
        return TruthAssignment.from_rows(system, rows)

    @staticmethod
    def from_run_levels(
        system: "System", run_levels: Sequence[bool]
    ) -> "TruthAssignment":
        """Build a run-level assignment (same truth at every time of a run)."""
        width = system.horizon + 1
        num_runs = len(system.runs)
        bits = np.repeat(np.asarray(run_levels, dtype=bool), width)
        return TruthAssignment(
            _bits_to_limbs(bits, _nlimbs(num_runs * width)), num_runs, width
        )

    @staticmethod
    def from_states(
        system: "System", processor: int, states: Container[ViewId]
    ) -> "TruthAssignment":
        """Truth at ``(r, m)`` iff the processor's local state there ∈
        *states*: the union of those states' occurrence limbs."""
        index = system.chunked_index()
        return index.wrap(index.states_mask(processor, states))

    def _replace(self, limbs) -> "TruthAssignment":
        """Same shape, different limb buffer."""
        clone = TruthAssignment.__new__(TruthAssignment)
        clone.limbs = limbs
        clone.num_runs = self.num_runs
        clone.width = self.width
        clone.num_bits = self.num_bits
        return clone

    # -- point access ------------------------------------------------------

    def at(self, run_index: int, time: int) -> bool:
        pos = run_index * self.width + time
        return bool((int(self.limbs[pos >> 6]) >> (pos & 63)) & 1)

    def count_true(self) -> int:
        return _popcount(self.limbs)

    def bits(self) -> np.ndarray:
        """The valuation as a ``(runs, width)`` bool array, indexed
        ``[run, time]``: the inverse of :func:`_bits_to_limbs`, one
        ``unpackbits`` of the limbs' little-endian bytes."""
        data = np.ascontiguousarray(self.limbs, dtype="<u8").view(np.uint8)
        return (
            np.unpackbits(data, count=self.num_bits, bitorder="little")
            .view(bool)
            .reshape(self.num_runs, self.width)
        )

    def to_rows(self) -> List[List[bool]]:
        """Per-run boolean rows, indexed ``[run][time]`` (a fresh list)."""
        return self.bits().tolist()

    def run_levels(self) -> List[bool]:
        """Time-0 truth per run (exact for run-level assignments)."""
        return self.bits()[:, 0].tolist()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruthAssignment):
            return NotImplemented
        return (
            self.num_runs == other.num_runs
            and self.width == other.width
            and bool((self.limbs == other.limbs).all())
        )

    def __hash__(self) -> int:  # pragma: no cover - not hashed in practice
        return hash((self.limbs.tobytes(), self.num_runs, self.width))

    # -- pointwise algebra -------------------------------------------------

    def negate(self) -> "TruthAssignment":
        return self._replace(_not(self.limbs, _tail_mask(self.num_bits)))

    def conjoin(self, other: "TruthAssignment") -> "TruthAssignment":
        return self._replace(self.limbs & other.limbs)

    def disjoin(self, other: "TruthAssignment") -> "TruthAssignment":
        return self._replace(self.limbs | other.limbs)

    def implies(self, other: "TruthAssignment") -> "TruthAssignment":
        tail = _tail_mask(self.num_bits)
        return self._replace(_not(self.limbs, tail) | other.limbs)

    def is_valid(self) -> bool:
        """True when the assignment holds at *every* point (the paper's
        ``R |= φ``)."""
        return _popcount(self.limbs) == self.num_bits


class ChunkedIndex:
    """Limb-sliced same-state group index of one system.

    The geometric part (``col0``, limb shape) is built eagerly — it is
    all the temporal sweeps need; the group tables are built lazily on
    the first knowledge sweep (:meth:`_ensure_groups`) by
    :func:`group_tables` over the system's view-id matrix:

    * per processor, a flattened sparse entry table: ``_idx[p][k]`` is a
      limb index and ``_val[p][k]`` the limb's bits belonging to one
      state group; ``_rstarts[p]`` and ``_sizes[p]`` delimit the groups.
      ``K_p φ`` is then one subset test per group — only the limbs the
      group's points occupy are touched, and all groups of a processor
      run in one gather/segmented-reduce/scatter pass;
    * ``group_views[p]`` — the view behind each group, for
      decision-state extraction;
    * ``member_masks`` — per nonrigid-set cache key, the per-processor
      limb buffer of points where the processor is a member (memoized
      here by :mod:`repro.knowledge.semantics`).
    """

    __slots__ = (
        "system",
        "num_runs",
        "width",
        "nlimbs",
        "tail",
        "col0",
        "group_views",
        "member_masks",
        "_groups_built",
        "_idx",
        "_val",
        "_rstarts",
        "_sizes",
    )

    def __init__(self, system: "System") -> None:
        self.system = system
        width = system.horizon + 1
        num_runs = len(system.runs)
        self.num_runs = num_runs
        self.width = width
        self.nlimbs = _nlimbs(num_runs * width)
        self.tail = _tail_mask(num_runs * width)
        column = np.zeros((num_runs, width), dtype=bool)
        column[:, 0] = True
        self.col0 = _bits_to_limbs(column, self.nlimbs)
        n = system.n
        self.group_views: List[List[ViewId]] = [[] for _ in range(n)]
        self.member_masks: Dict[object, List[object]] = {}
        self._groups_built = False
        self._idx: List[object] = [None] * n
        self._val: List[object] = [None] * n
        self._rstarts: List[object] = [None] * n
        self._sizes: List[object] = [None] * n

    # -- shape helpers -----------------------------------------------------

    def _zeros(self):
        return np.zeros(self.nlimbs, np.uint64)

    def _ones(self):
        return _not(self._zeros(), self.tail)

    def wrap(self, limbs) -> TruthAssignment:
        """A :class:`TruthAssignment` of this system around *limbs*."""
        return TruthAssignment(limbs, self.num_runs, self.width)

    def pack_points(self, bits):
        """A point-ordered bool array (``(runs, width)``) as limbs."""
        return _bits_to_limbs(bits, self.nlimbs)

    # -- group tables ------------------------------------------------------

    def _ensure_groups(self) -> None:
        if self._groups_built:
            return
        with obs.stage("chunked_index"), trace.span(
            "chunked_index_groups", runs=self.num_runs
        ):
            tables = group_tables(self.system.arrays().views)
            for p, table in enumerate(tables):
                # Group-table sweep size per processor: how many
                # (limb, mask) entries a full knowledge sweep visits.
                obs.observe("chunked_group_entries", table["entries"])
                starts = table["starts"]
                self._idx[p] = table["idx"]
                self._val[p] = table["val"]
                self._rstarts[p] = starts[:-1]
                self._sizes[p] = np.diff(starts)
                self.group_views[p] = table["gv"].tolist()
        self._groups_built = True

    # -- knowledge sweeps --------------------------------------------------

    def knows_limbs(self, processor: int, phi):
        """``K_i φ``: one sparse subset test per distinct state group."""
        self._ensure_groups()
        out = self._zeros()
        idx = self._idx[processor]
        if idx.size == 0:
            return out
        val = self._val[processor]
        bad = (val & ~phi[idx]) != 0
        grp_bad = np.bitwise_or.reduceat(bad, self._rstarts[processor])
        if not grp_bad.all():
            sel = np.repeat(~grp_bad, self._sizes[processor])
            np.bitwise_or.at(out, idx[sel], val[sel])
        return out

    def believes_limbs(self, processor: int, pmask, phi):
        """``B_i^S φ``: subset test restricted to S-member points."""
        self._ensure_groups()
        out = self._zeros()
        idx = self._idx[processor]
        if idx.size == 0:
            return out
        val = self._val[processor]
        gathered = phi[idx]
        bad = ((val & pmask[idx]) & ~gathered) != 0
        grp_bad = np.bitwise_or.reduceat(bad, self._rstarts[processor])
        if not grp_bad.all():
            sel = np.repeat(~grp_bad, self._sizes[processor])
            np.bitwise_or.at(out, idx[sel], val[sel])
        return out

    def everyone_limbs(self, member_masks, phi):
        """``E_S φ`` (vacuously true where ``S`` is empty)."""
        bad_total = self._zeros()
        for processor in range(self.system.n):
            pmask = member_masks[processor]
            if not pmask.any():
                continue
            belief = self.believes_limbs(processor, pmask, phi)
            bad_total |= pmask & _not(belief, self.tail)
        return _not(bad_total, self.tail)

    # -- temporal sweeps ---------------------------------------------------

    def always_limbs(self, m):
        """``□`` column sweep: suffix-AND within each run's bit window."""
        column = _shift_up(self.col0, self.width - 1, self.tail)
        previous = m & column
        result = previous
        for _ in range(self.width - 1):
            column = _shift_down(column, 1)
            previous = m & column & _shift_down(previous, 1)
            result = result | previous
        return result

    def eventually_limbs(self, m):
        """``◇`` column sweep: suffix-OR within each run's bit window."""
        column = _shift_up(self.col0, self.width - 1, self.tail)
        previous = m & column
        result = previous
        for _ in range(self.width - 1):
            column = _shift_down(column, 1)
            previous = column & (m | _shift_down(previous, 1))
            result = result | previous
        return result

    def at_all_times_limbs(self, m):
        """``⊡``: fold all time columns onto col0, then broadcast."""
        folded = m
        for shift in range(1, self.width):
            folded = folded & _shift_down(m, shift)
        return self.spread_run_levels(folded & self.col0)

    def spread_run_levels(self, run_bits):
        """Broadcast a col0-aligned per-run bit across the run's window."""
        out = run_bits
        for shift in range(1, self.width):
            out = out | _shift_up(run_bits, shift, self.tail)
        return out

    # -- decision-state extraction -----------------------------------------

    def states_mask(self, processor: int, states: Container[ViewId]):
        """Union of the occurrence masks of *processor*'s states ∈ *states*."""
        self._ensure_groups()
        out = self._zeros()
        views = self.group_views[processor]
        gids = [g for g, view in enumerate(views) if view in states]
        if not gids:
            return out
        ok = np.zeros(len(views), dtype=bool)
        ok[gids] = True
        sel = np.repeat(ok, self._sizes[processor])
        idx = self._idx[processor]
        np.bitwise_or.at(out, idx[sel], self._val[processor][sel])
        return out

    def state_verdicts(
        self, processor: int, truth
    ) -> Tuple[List[ViewId], List[int], List[int]]:
        """Classify each state group of *processor* against *truth*.

        Returns ``(views, full_ids, mixed_ids)``: the processor's views in
        group order, the group ids entirely inside *truth*, and the group
        ids that overlap it only partially (a state-determinism
        violation for decision formulas).
        """
        self._ensure_groups()
        views = self.group_views[processor]
        idx = self._idx[processor]
        if idx.size == 0:
            return views, [], []
        val = self._val[processor]
        gathered = truth[idx]
        some = (val & gathered) != 0
        notall = (val & ~gathered) != 0
        rstarts = self._rstarts[processor]
        any_some = np.bitwise_or.reduceat(some, rstarts)
        any_notall = np.bitwise_or.reduceat(notall, rstarts)
        full_ids = np.flatnonzero(~any_notall).tolist()
        mixed_ids = np.flatnonzero(any_some & any_notall).tolist()
        return views, full_ids, mixed_ids

    # -- fixpoints ---------------------------------------------------------

    def fixpoint(
        self, member_masks, phi, post: Callable[[object], object]
    ) -> Tuple[object, int]:
        """Greatest fixed point of ``X ↔ post(E_S(φ ∧ X))`` on limbs.

        Returns ``(final limbs, iterations)``.  Downward iteration from
        all-true with one alive flag per state group: a group fails the
        belief test once the eliminated set (``delta``) touches one of its
        S-member points, and failed groups' member points feed ``bad``,
        the complement of ``E_S(φ ∧ X)``.
        """
        self._ensure_groups()
        tail = self.tail
        processors = [
            p for p in range(self.system.n) if member_masks[p].any()
        ]
        bad = self._zeros()
        alive: Dict[int, object] = {}
        for p in processors:
            alive[p] = self._seed_alive(p, member_masks[p], phi, bad)
        current = self._ones()
        operand = phi
        iterations = 0
        while True:
            obs.count("fixpoint_iterations")
            iterations += 1
            candidate = post(_not(bad, tail))
            if (candidate == current).all():
                obs.observe("fixpoint_iterations_per_call", iterations)
                return current, iterations
            new_operand = phi & candidate
            delta = operand & ~new_operand
            if delta.any():
                obs.observe(
                    "fixpoint_frontier_limbs", int(np.count_nonzero(delta))
                )
                for p in processors:
                    self._kill_groups(
                        p, alive[p], member_masks[p], delta, bad
                    )
            operand = new_operand
            current = candidate

    def _seed_alive(self, processor: int, pmask, phi, bad):
        """Initial alive flags (operand = φ); dead groups feed *bad*."""
        idx = self._idx[processor]
        if idx.size == 0:
            return np.zeros(0, dtype=bool)
        rel = self._val[processor] & pmask[idx]
        badent = (rel & ~phi[idx]) != 0
        grp_bad = np.bitwise_or.reduceat(badent, self._rstarts[processor])
        if grp_bad.any():
            sel = np.repeat(grp_bad, self._sizes[processor])
            np.bitwise_or.at(bad, idx[sel], rel[sel])
        return ~grp_bad

    def _kill_groups(self, processor: int, alive, pmask, delta, bad) -> None:
        """Retire alive groups whose S-member points intersect *delta*,
        in one vectorized pass over the processor's entry table."""
        idx = self._idx[processor]
        if idx.size == 0:
            return
        rel = self._val[processor] & pmask[idx]
        touch = (rel & delta[idx]) != 0
        grp_hit = np.bitwise_or.reduceat(touch, self._rstarts[processor])
        newly = alive & grp_hit
        if newly.any():
            alive &= ~grp_hit
            sel = np.repeat(newly, self._sizes[processor])
            np.bitwise_or.at(bad, idx[sel], rel[sel])
