"""Shard task implementations and plan factories for the wired experiments.

Each plan is a plain map over independent shards.  A shard's task calls
the same per-cell helper the monolithic experiment calls, returns
JSON-native values as its payload, and ``finalize`` renders the payloads
with the experiment's own ``build_result``:

* **E9** (Proposition 6.3) is one ``e9.cell`` shard: the worker runs
  :func:`~repro.experiments.e09_omission_nontermination.measure` on the
  omission cell, which the worker builds through the provider;
* **E14** shards per sweep cell (``e14.cell``) plus one message-count
  shard (``e14.messages``);
* **E20** shards per ``(n, t)`` cell (``e20.cell``).

Every other experiment runs only through
:func:`~repro.experiments.registry.run_experiment`.
"""

from __future__ import annotations

from typing import Any, Dict

from .plan import BatchPlan, register_plan
from .shard import Shard, register_task


# -- E9: omission non-termination ------------------------------------------


@register_task("e9.cell")
def _task_e9_cell(params: Dict[str, Any]) -> Dict[str, Any]:
    from ..experiments.e09_omission_nontermination import measure

    return measure(params["n"], params["t"], params["horizon"])


@register_plan("E9")
def e9_plan(n: int = 4, t: int = 2, horizon: int = 2) -> BatchPlan:
    from ..experiments.e09_omission_nontermination import build_result

    params = {"n": n, "t": t, "horizon": horizon}
    shard = Shard(shard_id="evaluate/cell", task="e9.cell", params=params)
    return BatchPlan(
        experiment_id="E9",
        params=params,
        shards=[shard],
        finalize=lambda results: build_result(
            n=n, t=t, horizon=horizon, **results[shard.shard_id]
        ),
    )


# -- E14: scaling ablation -------------------------------------------------


@register_task("e14.cell")
def _task_e14_cell(params: Dict[str, Any]) -> Dict[str, Any]:
    from ..experiments.e14_scaling import cell_row
    from ..model.failures import FailureMode

    row = cell_row(
        FailureMode(params["mode"]),
        params["n"],
        params["t"],
        params["horizon"],
    )
    return {"row": row}


@register_task("e14.messages")
def _task_e14_messages(params: Dict[str, Any]) -> Dict[str, Any]:
    from ..experiments.e14_scaling import message_rows

    return {"rows": message_rows()}


@register_plan("E14")
def e14_plan(cells=None) -> BatchPlan:
    from ..experiments.e14_scaling import DEFAULT_CELLS, build_result

    normalized = [
        [getattr(mode, "value", mode), n, t, horizon]
        for mode, n, t, horizon in (cells or DEFAULT_CELLS)
    ]
    shards = [
        Shard(
            shard_id=f"evaluate/cell-{index}",
            task="e14.cell",
            params={"mode": mode, "n": n, "t": t, "horizon": horizon},
        )
        for index, (mode, n, t, horizon) in enumerate(normalized)
    ]
    shards.append(Shard(shard_id="evaluate/messages", task="e14.messages"))

    def finalize(results: Dict[str, Dict[str, Any]]):
        return build_result(
            [results[shard.shard_id]["row"] for shard in shards[:-1]],
            results["evaluate/messages"]["rows"],
        )

    return BatchPlan(
        experiment_id="E14",
        params={"cells": normalized},
        shards=shards,
        finalize=finalize,
    )


# -- E20: scaling sweep ----------------------------------------------------


@register_task("e20.cell")
def _task_e20_cell(params: Dict[str, Any]) -> Dict[str, Any]:
    from ..experiments.e20_scaling_gains import cell_result

    return cell_result(
        params["n"], params["t"], params["samples"], params["seed"]
    )


@register_plan("E20")
def e20_plan(cells=None, samples: int = 300, seed: int = 21) -> BatchPlan:
    from ..experiments.e20_scaling_gains import DEFAULT_CELLS, build_result

    normalized = [[n, t] for n, t in (cells or DEFAULT_CELLS)]
    shards = [
        Shard(
            shard_id=f"evaluate/cell-{index}-n{n}t{t}",
            task="e20.cell",
            params={"n": n, "t": t, "samples": samples, "seed": seed},
        )
        for index, (n, t) in enumerate(normalized)
    ]

    def finalize(results: Dict[str, Dict[str, Any]]):
        return build_result(
            [results[shard.shard_id] for shard in shards], samples, seed
        )

    return BatchPlan(
        experiment_id="E20",
        params={"cells": normalized, "samples": samples, "seed": seed},
        shards=shards,
        finalize=finalize,
    )
