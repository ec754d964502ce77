"""System construction: enumerate straight into numpy tables.

Every system is built here, as its
:class:`~repro.model.partition.SystemArrays`; a
:class:`~repro.model.system.System` is a view over them that builds its
``Run`` objects and view table only when something reads them.  The
builder never materializes either:

* failure patterns become a ``(patterns, horizon, n, n)`` delivery
  tensor.  For an exhaustive cell it is assembled from index tables —
  per-processor behaviour delivery matrices (tiny: one row per canonical
  behaviour) combined by digit arithmetic over the adversary's
  ``itertools.product`` order, a handful of advanced-indexing ``&=``
  passes instead of ``patterns × horizon × n²`` Python calls
  (:func:`pattern_tensors`, which ``SystemArrays.validate`` also reads).
  An explicit pattern list is read off
  :func:`~repro.model.failures.delivery_row`, one row per pattern and
  round (:func:`_explicit_tensors`);
* time-0 views are interned over the (processor, value) pairs that occur
  in the configurations, so a configuration subset in which a processor
  never starts with some value interns no leaf for it;
* view interning runs round by round on integer keys, in two levels.
  Level 1 interns each run's previous row of ids (``R`` distinct rows,
  ``R`` far below the run count) and keys each (run, receiver ``p``)
  by one int64, ``((row * n + p) << n) | mask`` with ``mask`` the
  senders ``p`` heard; one 1-D ``np.unique`` interns those.  Level 2
  expands only the distinct keys into the view table's node keys
  ``[prev_p, x_0 .. x_{n-1}]`` (``x_s = prev_s + 1`` when sender ``s``
  delivered, else 0) — injective, so deduplicating them *is* interning
  — and merges keys that differ only in a sender ``p`` did not hear;
* the table's dense first-appearance id order is recovered afterwards
  from each level's first occurrences (a view's first point is the
  least first point of its keys) by one argsort over the cell's views —
  the order in which interning run by run, time by time and processor
  by processor assigns ids — which makes every emitted array
  **byte-identical** to the projection of the object-graph build that
  ``tests/oracles.py`` keeps as the reference (asserted by
  ``tests/test_fastbuild.py``).
"""

from __future__ import annotations

import itertools
import math
from typing import List

import numpy as np

from .. import obs, trace
from ..errors import ConfigurationError
from .adversary import exhaustive_adversary
from .failures import FailureMode, delivery_row

def _subset_masks(n: int, processor: int, *, strict: bool):
    """Boolean membership rows for the adversary's subset enumeration.

    Row ``j`` marks the members of the ``j``-th subset of
    ``others = range(n) - {processor}`` in the adversary's order (sizes
    ascending, ``itertools.combinations`` within a size); ``strict``
    drops the full set (crash canonicalization).
    """
    others = [p for p in range(n) if p != processor]
    top = len(others) if strict else len(others) + 1
    rows: List[List[bool]] = []
    for size in range(top):
        for combo in itertools.combinations(others, size):
            row = [False] * n
            for member in combo:
                row[member] = True
            rows.append(row)
    return np.asarray(rows, dtype=bool)


def _behavior_tables(mode: FailureMode, n: int, horizon: int, processor: int):
    """Per-behaviour delivery tables for one faulty *processor*.

    Returns ``(send_ok, recv_ok)`` — each either ``None`` (that side
    never drops anything in this mode) or a ``(B, horizon, n)`` bool
    array, row ``b`` matching the ``b``-th behaviour of the exhaustive
    adversary's ``behaviors_for(processor)`` order.  ``send_ok[b, m-1, r]``
    says the round-``m`` message to ``r`` is sent; ``recv_ok[b, m-1, s]``
    says the round-``m`` message from ``s`` is received.  The processor's
    own column is irrelevant (self-delivery is forced later).
    """
    if mode is FailureMode.CRASH:
        members = _subset_masks(n, processor, strict=True)
        num_subsets = members.shape[0]
        count = horizon * num_subsets
        send_ok = np.empty((count, horizon, n), dtype=bool)
        for crash_round in range(1, horizon + 1):
            base = (crash_round - 1) * num_subsets
            block = send_ok[base : base + num_subsets]
            block[:, : crash_round - 1, :] = True
            block[:, crash_round - 1, :] = members
            block[:, crash_round:, :] = False
        return send_ok, None
    # Omission-family: subsets per round (empty included), product over
    # rounds with the all-empty assignment (product index 0) skipped.
    members = _subset_masks(n, processor, strict=False)
    num_subsets = members.shape[0]
    count = num_subsets**horizon - 1
    indices = np.arange(1, num_subsets**horizon, dtype=np.int64)
    ok = np.empty((count, horizon, n), dtype=bool)
    for round_number in range(1, horizon + 1):
        digit = (
            indices // (num_subsets ** (horizon - round_number))
        ) % num_subsets
        ok[:, round_number - 1, :] = ~members[digit]
    if mode is FailureMode.RECEIVE_OMISSION:
        return None, ok
    return ok, None


def pattern_count(mode: FailureMode, n: int, t: int, horizon: int) -> int:
    """Failure patterns of the exhaustive adversary for the cell.

    One failure-free pattern, plus, for each faulty set of size
    ``1..t``, one pattern per choice of behaviour for each member: a
    crash behaviour is a round and a strict subset of the other
    ``n - 1`` processors still reached in it, an omission-family one a
    subset dropped per round, not all empty (:func:`_behavior_tables`).
    A cell has ``2**n`` times this many runs, computed without building.
    """
    if t == 0:
        return 1  # the failure-free pattern alone
    subsets = 1 << (n - 1)
    if mode is FailureMode.CRASH:
        behaviours = horizon * (subsets - 1)
    else:
        behaviours = subsets**horizon - 1
    return sum(
        math.comb(n, size) * behaviours**size for size in range(t + 1)
    )


def pattern_tensors(mode: FailureMode, n: int, t: int, horizon: int):
    """Delivery tensor and nonfaulty matrix over the full pattern list.

    Returns ``(deliveries, nonfaulty)`` with ``deliveries`` of shape
    ``(patterns, horizon, n, n)`` indexed ``[pattern, m-1, receiver,
    sender]`` (diagonal not yet forced) and ``nonfaulty`` of shape
    ``(patterns, n)``, both in the exhaustive adversary's pattern order:
    failure-free first, then faulty sets of size ``1..t`` with the
    behaviour product's last position varying fastest.
    """
    send_tables = []
    recv_tables = []
    for processor in range(n):
        send_ok, recv_ok = _behavior_tables(mode, n, horizon, processor)
        send_tables.append(send_ok)
        recv_tables.append(recv_ok)
    probe = send_tables[0] if send_tables[0] is not None else recv_tables[0]
    behaviors_per_proc = probe.shape[0]

    num_patterns = pattern_count(mode, n, t, horizon)
    deliveries = np.ones((num_patterns, horizon, n, n), dtype=bool)
    nonfaulty = np.ones((num_patterns, n), dtype=bool)

    cursor = 1
    for size in range(1, t + 1):
        block = behaviors_per_proc**size
        for combo in itertools.combinations(range(n), size):
            rows = slice(cursor, cursor + block)
            nonfaulty[rows, list(combo)] = False
            local = np.arange(block, dtype=np.int64)
            for position, processor in enumerate(combo):
                digit = (
                    local // (behaviors_per_proc ** (size - 1 - position))
                ) % behaviors_per_proc
                send_ok = send_tables[processor]
                if send_ok is not None:
                    # Faulty sender: AND its per-receiver sends into the
                    # sender column of every round.
                    deliveries[rows, :, :, processor] &= send_ok[digit]
                recv_ok = recv_tables[processor]
                if recv_ok is not None:
                    deliveries[rows, :, processor, :] &= recv_ok[digit]
            cursor += block
    return deliveries, nonfaulty


def _explicit_tensors(patterns, n: int, t: int, horizon: int):
    """Delivery tensor and nonfaulty matrix over an explicit pattern list.

    The same layout as :func:`pattern_tensors`, in the list's order; each
    pattern's rounds are read off
    :func:`~repro.model.failures.delivery_row`.  Raises
    :class:`~repro.errors.ConfigurationError` for a pattern with more
    than ``t`` faulty processors or a faulty id outside ``range(n)``.
    """
    deliveries = np.zeros((len(patterns), horizon, n, n), dtype=bool)
    nonfaulty = np.ones((len(patterns), n), dtype=bool)
    for index, pattern in enumerate(patterns):
        pattern.validate(n, t)
        nonfaulty[index, sorted(pattern.faulty)] = False
        for m in range(horizon):
            rows = delivery_row(pattern, n, m + 1)
            for receiver, senders in enumerate(rows):
                deliveries[index, m, receiver, list(senders)] = True
    return deliveries, nonfaulty


def _check_scenarios(items) -> None:
    """Raise unless *items* (patterns or configurations) is a non-empty
    list without repeats."""
    if not items:
        raise ConfigurationError("a system needs at least one run")
    if len(set(items)) != len(items):
        raise ConfigurationError("duplicate scenario in system")


def _config_values(configs, n: int):
    """The ``(configs, n)`` int8 value matrix: every configuration in
    ``itertools.product`` order when *configs* is ``None``."""
    if configs is None:
        return np.asarray(
            list(itertools.product((0, 1), repeat=n)), dtype=np.int8
        )
    configs = list(configs)
    _check_scenarios(configs)
    for config in configs:
        if config.n != n:
            raise ConfigurationError(
                f"configuration {config} has n={config.n}, expected {n}"
            )
    return np.asarray([config.values for config in configs], dtype=np.int8)


def build_arrays(
    mode: FailureMode,
    n: int,
    t: int,
    horizon: int,
    *,
    patterns=None,
    configs=None,
):
    """The system's :class:`~repro.model.partition.SystemArrays`, built
    without ever materializing runs or a view table.

    *patterns* — the failure patterns, in run order; ``None`` for the
    exhaustive adversary's list (read off :func:`pattern_tensors`).
    *configs* — the initial configurations, outer in run order; ``None``
    for all ``2**n``.  Byte-identical to the object-graph build of the
    same adversary and configurations projected onto arrays (same
    dtypes, same dense view-id order, same meta).  Raises
    :class:`~repro.errors.ConfigurationError` for an exhaustive cell no
    adversary covers, a pattern outside ``(n, t)``, a configuration of
    another size, or an empty or repeated pattern or configuration list.
    """
    from .partition import SystemArrays, row_keys

    if patterns is None:
        exhaustive_adversary(mode, n, t, horizon)  # validates the cell
    else:
        _check_scenarios(patterns)
    configs = _config_values(configs, n)

    with obs.stage("system_fastbuild"), trace.span(
        "system_fastbuild", mode=mode.value, n=n, t=t, horizon=horizon
    ):
        if patterns is None:
            pattern_deliv, pattern_nf = pattern_tensors(mode, n, t, horizon)
        else:
            pattern_deliv, pattern_nf = _explicit_tensors(
                patterns, n, t, horizon
            )
        num_patterns = pattern_deliv.shape[0]
        num_configs = configs.shape[0]
        num_runs = num_configs * num_patterns

        # Runs are config-outer × pattern-inner, matching the scenario
        # grid of a System.
        deliveries = np.tile(pattern_deliv, (num_configs, 1, 1, 1))
        nonfaulty = np.tile(pattern_nf, (num_configs, 1))
        init = np.repeat(configs, num_patterns, axis=0)

        # -- two-level interning: temp ids per round, renumbered below --
        procs = np.arange(n)
        width = horizon + 1
        temp_views = np.empty((num_runs, width, n), dtype=np.int32)
        by_config = temp_views.reshape(num_configs, num_patterns, width, n)
        # Leaf temp ids: one per (processor, value) pair that occurs,
        # numbered in (processor, value) order; each first appears in
        # the first configuration holding it.
        present = np.stack(
            [(configs == value).any(axis=0) for value in (0, 1)], axis=1
        )
        leaf_proc, leaf_value = np.nonzero(present)
        leaf_id = np.cumsum(present.ravel()) - 1
        by_config[:, :, 0, :] = leaf_id[2 * procs + configs][:, None, :]
        first_config = np.argmax(configs[:, leaf_proc] == leaf_value, axis=0)
        owner_parts = [leaf_proc]
        vtime_parts = [np.zeros(leaf_proc.size, dtype=np.int64)]
        prev_parts = [np.full(leaf_proc.size, -1, dtype=np.int64)]
        pos_parts = [first_config * num_patterns * width * n + leaf_proc]
        offset = leaf_proc.size
        # Per pattern, round and receiver p: the senders whose message
        # reached p, as a bit mask with p's own bit cleared.
        proc_bits = np.left_shift(1, procs, dtype=np.int64)
        heard_masks = pattern_deliv @ proc_bits
        heard_masks &= ~proc_bits

        for round_number in range(1, horizon + 1):
            # Level 1: intern each run's time-(m-1) row of ids, then key
            # each (run, receiver p) by one int64,
            # ((row * n + p) << n) | mask, which stays below
            # runs * n * 2**n.
            prev_ids = np.ascontiguousarray(temp_views[:, round_number - 1])
            _, row_first, row_of_run = np.unique(
                row_keys(prev_ids), return_index=True, return_inverse=True
            )
            rows = prev_ids[row_first]
            row_of_run = row_of_run.reshape(num_configs, num_patterns, 1)
            keys = (row_of_run * n + procs) << n
            keys |= heard_masks[:, round_number - 1, :]
            distinct_keys, key_first, key_of_point = np.unique(
                keys.ravel(), return_index=True, return_inverse=True
            )
            # Level 2: expand the distinct keys into rows [prev_p, x_0 ..
            # x_{n-1}] (x_s = prev_s + 1 when s delivered to p, else 0) —
            # a bijective encoding of the view table's ("node", previous,
            # entries) keys — and intern those.  Keys that differ only in
            # the previous view of a sender p did not hear meet here.
            key_row, key_proc = np.divmod(distinct_keys >> n, n)
            heard = (distinct_keys[:, None] >> procs) & 1
            expanded = np.empty((distinct_keys.size, n + 1), dtype=np.int32)
            expanded[:, 0] = rows[key_row, key_proc]
            expanded[:, 1:] = (rows[key_row] + 1) * heard
            _, view_key, view_of_key = np.unique(
                row_keys(expanded), return_index=True, return_inverse=True
            )
            temp_views[:, round_number, :] = (
                offset + view_of_key[key_of_point]
            ).reshape(num_runs, n)
            # A view first appears at the least first point of its keys.
            first_point = np.full(view_key.size, num_runs * n)
            np.minimum.at(first_point, view_of_key, key_first)
            first_run, first_proc = np.divmod(first_point, n)
            pos_parts.append(
                first_run * width * n + round_number * n + first_proc
            )
            owner_parts.append(key_proc[view_key])
            vtime_parts.append(
                np.full(view_key.size, round_number, dtype=np.int64)
            )
            prev_parts.append(expanded[view_key, 0])
            offset += view_key.size

        # -- dense renumbering by first appearance ---------------------
        # A view table assigns ids in creation order: run-major,
        # time-major within a run, processor-minor within a time — i.e.
        # first appearance in the raveled (runs, horizon+1, n) scan.
        # Every temp id occurs, so one argsort of first positions ranks
        # them all.
        temp_of_final = np.argsort(np.concatenate(pos_parts), kind="stable")
        num_views = offset
        perm = np.empty(offset, dtype=np.int32)
        perm[temp_of_final] = np.arange(num_views, dtype=np.int32)

        views = perm[temp_views]
        owner = np.concatenate(owner_parts)[temp_of_final].astype(np.int32)
        vtime = np.concatenate(vtime_parts)[temp_of_final].astype(np.int16)
        prev_of_final = np.concatenate(prev_parts)[temp_of_final]
        prev = np.where(
            prev_of_final >= 0,
            perm[np.maximum(prev_of_final, 0)],
            -1,
        ).astype(np.int32)

        deliveries[:, :, procs, procs] = True
        occurs = np.ones(num_views, dtype=bool)

        obs.count("system_fast_builds")
        return SystemArrays(
            mode=mode.value,
            n=n,
            t=t,
            horizon=horizon,
            num_views=num_views,
            views=views,
            owner=owner,
            vtime=vtime,
            prev=prev,
            init=init,
            nonfaulty=nonfaulty,
            deliveries=deliveries,
            occurs=occurs,
        )
