"""Arrays-first system construction: enumerate straight into numpy tables.

:func:`~repro.model.system.build_system` materializes every run as a
``Run`` object and interns views point by point through a Python dict —
fine for restricted and explicit adversaries, but pure overhead for a
cached exhaustive cell, which is stored as its
:class:`~repro.model.partition.SystemArrays`.  This module builds the
*projection directly*:

* failure patterns become index tables — per-processor behaviour
  delivery matrices (tiny: one row per canonical behaviour) combined by
  digit arithmetic over the adversary's ``itertools.product`` order, so
  the full ``(patterns, horizon, n, n)`` delivery tensor is assembled by
  a handful of advanced-indexing ``&=`` passes instead of
  ``patterns × horizon × n²`` Python calls;
* view interning becomes a batched, time-major ``np.unique`` over
  per-round key matrices ``[prev, x_0 .. x_{n-1}]`` (``x_s = prev_s + 1``
  when sender ``s`` delivered, else 0) — injective for the view table's
  node keys, so deduplicating rows *is* interning;
* the table's dense first-appearance id order is recovered afterwards by
  ranking temp ids by first occurrence in the run-major scan — exactly
  the order ``build_system`` assigns ids in — which makes every emitted
  array **byte-identical** to ``SystemArrays.from_system`` on the
  object-graph build (asserted by ``tests/test_fastbuild.py``).

The builder covers what the provider caches: exhaustive crash /
sending-omission / receive-omission adversaries over the full initial
configuration list — every cached cell is built here, and its ``System``
is a view over the arrays (:mod:`repro.io.system_codec`).
Restricted and explicit adversaries go through ``build_system``.
"""

from __future__ import annotations

import itertools
from typing import List

import numpy as np

from .. import obs, trace
from .adversary import exhaustive_adversary
from .failures import FailureMode

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

    num_patterns = 1
    for size in range(1, t + 1):
        combos = len(list(itertools.combinations(range(n), size)))
        num_patterns += combos * behaviors_per_proc**size
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


def build_arrays(mode: FailureMode, n: int, t: int, horizon: int):
    """The cell's :class:`~repro.model.partition.SystemArrays`, built
    without ever materializing runs or a view table.

    Byte-identical to ``SystemArrays.from_system`` on the object-graph
    build of the same cell (same dtypes, same dense view-id order, same
    meta).  Raises :class:`~repro.errors.ConfigurationError` for a cell
    no exhaustive adversary covers.
    """
    from .partition import SystemArrays

    exhaustive_adversary(mode, n, t, horizon)  # validates the cell

    with obs.stage("system_fastbuild"), trace.span(
        "system_fastbuild", mode=mode.value, n=n, t=t, horizon=horizon
    ):
        pattern_deliv, pattern_nf = pattern_tensors(mode, n, t, horizon)
        num_patterns = pattern_deliv.shape[0]
        configs = np.asarray(
            list(itertools.product((0, 1), repeat=n)), dtype=np.int8
        )
        num_configs = configs.shape[0]
        num_runs = num_configs * num_patterns

        # Runs are config-outer × pattern-inner, matching build_system's
        # scenario order.
        deliveries = np.tile(pattern_deliv, (num_configs, 1, 1, 1))
        nonfaulty = np.tile(pattern_nf, (num_configs, 1))
        init = np.repeat(configs, num_patterns, axis=0)

        # -- batched interning: temp ids per round, renumbered below ---
        procs = np.arange(n)
        # Leaf temp ids: (processor, value) -> 2p + v.  With the full
        # configuration list every pair occurs.
        temp_views = np.empty((num_runs, horizon + 1, n), dtype=np.int64)
        temp_views[:, 0, :] = 2 * procs[None, :] + init
        owner_parts = [np.repeat(procs, 2)]
        vtime_parts = [np.zeros(2 * n, dtype=np.int64)]
        prev_parts = [np.full(2 * n, -1, dtype=np.int64)]
        offset = 2 * n
        owner_of_temp = np.concatenate(owner_parts)

        for round_number in range(1, horizon + 1):
            prev_ids = temp_views[:, round_number - 1, :]
            delivered = deliveries[:, round_number - 1, :, :].copy()
            delivered[:, procs, procs] = False
            # Key rows [prev_p, x_0 .. x_{n-1}]: x_s = prev_s + 1 when s
            # delivered to p, else 0 — a bijective encoding of the view
            # table's ("node", previous, entries) keys.
            keys = np.empty((num_runs, n, n + 1), dtype=np.int64)
            keys[:, :, 0] = prev_ids
            keys[:, :, 1:] = (prev_ids + 1)[:, None, :] * delivered
            flat = np.ascontiguousarray(keys.reshape(num_runs * n, n + 1))
            void = flat.view(
                np.dtype((np.void, flat.dtype.itemsize * flat.shape[1]))
            ).ravel()
            _, first_index, inverse = np.unique(
                void, return_index=True, return_inverse=True
            )
            unique_rows = flat[first_index]
            temp_views[:, round_number, :] = (offset + inverse).reshape(
                num_runs, n
            )
            prev_round = unique_rows[:, 0]
            owner_parts.append(owner_of_temp[prev_round])
            vtime_parts.append(
                np.full(unique_rows.shape[0], round_number, dtype=np.int64)
            )
            prev_parts.append(prev_round)
            offset += unique_rows.shape[0]
            owner_of_temp = np.concatenate(owner_parts)

        owner_temp = owner_of_temp
        vtime_temp = np.concatenate(vtime_parts)
        prev_temp = np.concatenate(prev_parts)

        # -- dense renumbering by first appearance ---------------------
        # build_system assigns table ids in creation order: run-major,
        # time-major within a run, processor-minor within a time — i.e.
        # first appearance in the raveled (runs, horizon+1, n) scan.
        flat_views = temp_views.reshape(-1)
        occurring, first_pos = np.unique(flat_views, return_index=True)
        rank = np.argsort(first_pos, kind="stable")
        temp_of_final = occurring[rank]
        num_views = temp_of_final.shape[0]
        perm = np.full(offset, -1, dtype=np.int64)
        perm[temp_of_final] = np.arange(num_views)

        views = perm[temp_views].astype(np.int32)
        owner = owner_temp[temp_of_final].astype(np.int32)
        vtime = vtime_temp[temp_of_final].astype(np.int16)
        prev_of_final = prev_temp[temp_of_final]
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
