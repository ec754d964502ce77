"""Shard task implementations and plan factories for the wired experiments.

E9 (Proposition 6.3, the ~385k-run omission cell) is decomposed into the
stage chain

``build`` → ``eval-base`` → ``eval-first`` → ``eval-cbox1`` →
``eval-second`` → ``eval-sticky`` → ``eval-cbox2`` → ``eval-probes`` →
``assemble``

which mirrors the monolithic evaluation exactly, but runs on **limb-block
shards** instead of run ranges: the supervisor loads the cell's
:class:`~repro.model.partition.SystemArrays` (the cell's cached
``.npz`` — no ``Run`` objects are ever materialized on this path), cuts
the chunked kernel's group tables into
:class:`~repro.model.partition.LimbBlockPartition` blocks, and ships the
tiny JSON block descriptors to workers while the heavy tables travel
copy-on-write through the worker context:

* **believes shards** compute per-view verdicts of ``B_i^N(φ)`` for a
  *run-level* operand φ (every operand the F^Λ construction uses is one)
  over one ``(processor, block)`` slice of the group tables — one
  vectorized gather/segmented-reduce per shard, with verdicts identical
  to the reference ``eval_believes`` semantics;
* **components shards** emit one limb block's slice of the Corollary 3.3
  reachability components for a nonrigid set ``N∧Z`` as a compressed
  ``(runs, reps)`` partition; the stage barrier welds the block
  partitions with :func:`~repro.model.partition.merge_component_labels`
  (a union-find over the conflicting representatives only) and run-level
  ``C□`` values follow by AND-ing φ over each merged component;
* **trigger shards** stay run-range sharded (the first-firing scan is a
  dense pass over the view matrix) but are vectorized over their range,
  with the same simultaneous-firing tie-break as
  ``FullInformationProtocol.decision_for``;
* **probe shards** read belief verdicts at chosen points of the witness
  run through the partition's group-lookup path.

Run-level truth assignments travel between stages as hex-encoded bit
masks (bit ``i`` = run ``i``), so shard parameters stay JSON-serializable
and checkpoint digests bind each shard to its exact operand *and* its
exact block bounds — a relaid partition can never silently resume
another layout's shards.

E14 and E20 shard per sweep cell; their tasks call the same per-cell
helpers the monolithic experiments use.  Every other experiment runs
only through :func:`~repro.experiments.registry.run_experiment`.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..core.decision_sets import DecisionPair
from ..model.partition import (
    LimbBlockPartition,
    cbox_mask_from_labels,
    merge_component_labels,
    run_mask_to_limbs,
)
from .plan import BatchPlan, Stage, register_plan
from .shard import (
    Shard,
    chunk_ranges,
    register_task,
    set_worker_context,
    worker_context,
)

#: Default chunk size for the run-sharded trigger scan.
DEFAULT_RUN_CHUNK = 131072


# -- E9 tasks --------------------------------------------------------------


def _operand_limbs(partition: LimbBlockPartition, operand_hex: str):
    """A shard's run-level operand, spread to point-level limbs."""
    return run_mask_to_limbs(
        int(operand_hex, 16), partition.num_runs, partition.width
    )


@register_task("system.ensure")
def _task_system_ensure(params: Dict[str, Any]) -> Dict[str, Any]:
    """Build stage: make sure the cell's ``.npz`` is on disk.

    The provider builds the cell arrays-first
    (:mod:`repro.model.fastbuild`) and never materializes a ``Run``
    object; the supervisor then loads the file as arrays.

    If the file already exists at the current cache version the shard is
    a no-op.  With the disk layer off there is nothing a worker could
    hand back cheaply, so the supervisor builds in-process instead.
    """
    from ..model.failures import FailureMode
    from ..model.provider import get_provider

    mode = FailureMode(params["mode"])
    n, t, horizon = params["n"], params["t"], params["horizon"]
    provider = get_provider()
    if provider.has_current_cell(mode, n, t, horizon):
        return {"built": False, "cached": True}
    if not provider.disk_enabled:
        return {"built": False, "cached": False}
    arrays = provider.get_arrays(mode, n, t, horizon)
    return {
        "built": True,
        "cached": False,
        "runs": arrays.num_runs,
        "views": arrays.num_views,
    }


@register_task("e9.believes")
def _task_believes(params: Dict[str, Any]) -> Dict[str, Any]:
    """``B_p^N(operand)`` verdicts over one limb block's state groups."""
    partition: LimbBlockPartition = worker_context("partition")
    nf_limbs = worker_context("nf_limbs")
    processor = params["processor"]
    phi = _operand_limbs(partition, params["operand"])
    views = partition.believes_true_views(
        processor, params["block"]["block"], nf_limbs[processor], phi
    )
    return {"true_views": [int(view) for view in views]}


@register_task("e9.components")
def _task_components(params: Dict[str, Any]) -> Dict[str, Any]:
    """One limb block's slice of the ``N∧Z`` reachability components.

    Emits the block-local partition compressed as ``(runs, reps)`` — the
    touched runs and each one's component representative.  The stage
    barrier merges the blocks
    (:func:`~repro.model.partition.merge_component_labels`); the merged
    labels may differ in value from the monolithic scan's, but the
    partition (all that
    :func:`~repro.model.partition.cbox_mask_from_labels` consumes) is
    identical.
    """
    partition: LimbBlockPartition = worker_context("partition")
    nf_limbs = worker_context("nf_limbs")
    flags = partition.state_flags(params["states"])
    runs, reps = partition.component_labels(
        params["block"]["block"], flags, nf_limbs
    )
    return {
        "runs": [int(run) for run in runs],
        "reps": [int(rep) for rep in reps],
    }


@register_task("e9.triggers")
def _task_triggers(params: Dict[str, Any]) -> Dict[str, Any]:
    """First-firing trigger views of a pair over a contiguous run range."""
    arrays = worker_context("arrays")
    zeros, ones = arrays.first_fire_triggers(
        params["zeros"], params["ones"], tuple(params["runs"])
    )
    return {
        "zero_triggers": [int(view) for view in zeros],
        "one_triggers": [int(view) for view in ones],
    }


@register_task("e9.probe")
def _task_probe(params: Dict[str, Any]) -> Dict[str, Any]:
    """Belief verdicts ``B_p^N(operand)`` at explicit ``(run, time)`` points."""
    arrays = worker_context("arrays")
    partition: LimbBlockPartition = worker_context("partition")
    nf_limbs = worker_context("nf_limbs")
    processor = params["processor"]
    phi = _operand_limbs(partition, params["operand"])
    values = []
    for run_index, time in params["points"]:
        view = arrays.view_at(run_index, time, processor)
        values.append(
            bool(
                partition.probe_believes(
                    processor, view, nf_limbs[processor], phi
                )
            )
        )
    return {"values": values}


# -- E9 plan ---------------------------------------------------------------


def _shard_id_order(results: Dict[str, Dict[str, Any]]) -> List[str]:
    return sorted(results)


@register_plan("E9")
def e9_plan(n: int = 4, t: int = 2, horizon: int = 2) -> BatchPlan:
    from ..experiments import e09_omission_nontermination as e09

    params = {"n": n, "t": t, "horizon": horizon}

    def prepare_eval(context: Dict[str, Any]) -> None:
        """Load the array projection, cut the limb-block partition and
        publish both (plus the per-processor nonfaulty point masks) to
        the worker context — exactly one context epoch, so the pool's
        workers fork once and inherit everything copy-on-write."""
        from ..model.failures import FailureMode
        from ..model.provider import get_provider

        arrays = get_provider().get_arrays(
            FailureMode("omission"), n, t, horizon
        )
        partition = LimbBlockPartition.from_arrays(
            arrays, target_entries=context.get("shard_size") or None
        )
        nf_limbs = [
            partition.nonfaulty_limbs(processor)
            for processor in range(arrays.n)
        ]
        context["arrays"] = arrays
        context["partition"] = partition
        context["exists0"] = arrays.exists_mask(0)
        context["exists1"] = arrays.exists_mask(1)
        context["full_mask"] = (1 << arrays.num_runs) - 1
        context["empty_states"] = []
        set_worker_context(
            arrays=arrays, partition=partition, nf_limbs=nf_limbs
        )

    def make_build(context: Dict[str, Any]) -> List[Shard]:
        # Every E9 stage consumes the array projection or limb blocks,
        # so no Run object is ever materialized on this path.
        return [
            Shard(
                shard_id="build/system",
                task="system.ensure",
                params={"mode": "omission", **params},
                stage="build",
            )
        ]

    def reduce_build(results, context) -> None:
        context["build_info"] = results["build/system"]

    def components_stage(
        name: str, states_key: str, phi_key: str, out_key: str
    ) -> Stage:
        """One reachability-component scan, sharded by limb block."""

        def make(context: Dict[str, Any]) -> List[Shard]:
            partition: LimbBlockPartition = context["partition"]
            states = sorted(context[states_key])
            return [
                Shard(
                    shard_id=f"{name}/b{block['block']}",
                    task="e9.components",
                    params={"states": states, "block": block},
                    stage=name,
                )
                for block in partition.block_descriptors()
            ]

        def reduce(results, context) -> None:
            labels = merge_component_labels(
                context["arrays"].num_runs,
                [
                    (results[shard_id]["runs"], results[shard_id]["reps"])
                    for shard_id in _shard_id_order(results)
                ],
            )
            context[out_key] = cbox_mask_from_labels(
                labels, context[phi_key], context["arrays"].num_runs
            )

        return Stage(name=name, make_shards=make, reduce=reduce)

    def believes_stage(
        name: str, ops_key: str, pair_key: str, pair_name: str
    ) -> Stage:
        """Fan out ``B_i^N`` view verdicts per limb block, close under
        recall, emit a decision pair."""

        def make(context: Dict[str, Any]) -> List[Shard]:
            partition: LimbBlockPartition = context["partition"]
            ops = context[ops_key]
            shards = []
            for processor in range(partition.n):
                for which in ("zero", "one"):
                    operand = format(ops[which], "x")
                    for block in partition.block_descriptors():
                        shards.append(
                            Shard(
                                shard_id=(
                                    f"{name}/p{processor}-{which}"
                                    f"/b{block['block']}"
                                ),
                                task="e9.believes",
                                params={
                                    "processor": processor,
                                    "which": which,
                                    "operand": operand,
                                    "block": block,
                                },
                                stage=name,
                            )
                        )
            return shards

        def reduce(results, context) -> None:
            arrays = context["arrays"]
            zero_states: List[int] = []
            one_states: List[int] = []
            for shard_id in _shard_id_order(results):
                sink = zero_states if "-zero/" in shard_id else one_states
                sink.extend(results[shard_id]["true_views"])
            context[pair_key] = DecisionPair(
                frozenset(arrays.recall_closure(zero_states)),
                frozenset(arrays.recall_closure(one_states)),
                name=pair_name,
            )

        return Stage(name=name, make_shards=make, reduce=reduce)

    def reduce_base(results, context) -> None:
        # C□_{N∧∅}∃0 over the empty decision set: prime-step base case.
        labels = merge_component_labels(
            context["arrays"].num_runs,
            [
                (results[shard_id]["runs"], results[shard_id]["reps"])
                for shard_id in _shard_id_order(results)
            ],
        )
        cbox_base = cbox_mask_from_labels(
            labels, context["exists0"], context["arrays"].num_runs
        )
        full = context["full_mask"]
        context["first_ops"] = {
            "zero": context["exists0"] & cbox_base,
            "one": context["exists1"] & (full & ~cbox_base),
        }

    def prepare_cbox1(context: Dict[str, Any]) -> None:
        context["first_zeros"] = sorted(context["first_pair"].zeros)

    def reduce_cbox1(results, context) -> None:
        labels = merge_component_labels(
            context["arrays"].num_runs,
            [
                (results[shard_id]["runs"], results[shard_id]["reps"])
                for shard_id in _shard_id_order(results)
            ],
        )
        cbox1 = cbox_mask_from_labels(
            labels, context["exists1"], context["arrays"].num_runs
        )
        full = context["full_mask"]
        context["cbox1"] = cbox1
        context["second_ops"] = {
            "zero": context["exists0"] & (full & ~cbox1),
            "one": context["exists1"] & cbox1,
        }

    def make_sticky(context: Dict[str, Any]) -> List[Shard]:
        arrays = context["arrays"]
        first = context["first_pair"]
        size = context.get("shard_size") or DEFAULT_RUN_CHUNK
        if size < 1024:
            size = max(size * 64, 1024)  # run chunks are cheaper than views
        zeros = sorted(first.zeros)
        ones = sorted(first.ones)
        return [
            Shard(
                shard_id=f"eval-sticky/runs/{index}",
                task="e9.triggers",
                params={
                    "zeros": zeros,
                    "ones": ones,
                    "runs": [start, stop],
                },
                stage="eval-sticky",
            )
            for index, (start, stop) in enumerate(
                chunk_ranges(arrays.num_runs, size)
            )
        ]

    def reduce_sticky(results, context) -> None:
        arrays = context["arrays"]
        zero_triggers: List[int] = []
        one_triggers: List[int] = []
        for shard_id in _shard_id_order(results):
            zero_triggers.extend(results[shard_id]["zero_triggers"])
            one_triggers.extend(results[shard_id]["one_triggers"])
        context["sticky_first"] = DecisionPair(
            frozenset(arrays.recall_closure(zero_triggers)),
            frozenset(arrays.recall_closure(one_triggers)),
            name=context["first_pair"].name,
        )

    def prepare_cbox2(context: Dict[str, Any]) -> None:
        context["sticky_zeros"] = sorted(context["sticky_first"].zeros)

    def make_probes(context: Dict[str, Any]) -> List[Shard]:
        arrays = context["arrays"]
        target = e09.witness_target(n, horizon)
        target_index = arrays.run_index_of(*target)
        context["target_index"] = target_index
        nonfaulty = arrays.nonfaulty_of(target_index)
        context["target_nonfaulty"] = nonfaulty
        operand = format(context["cbox2"], "x")
        return [
            Shard(
                shard_id=f"eval-probes/p{processor}",
                task="e9.probe",
                params={
                    "processor": processor,
                    "operand": operand,
                    "points": [
                        [target_index, time] for time in range(horizon + 1)
                    ],
                },
                stage="eval-probes",
            )
            for processor in nonfaulty
        ]

    def reduce_probes(results, context) -> None:
        context["belief_never"] = all(
            not value
            for shard_id in _shard_id_order(results)
            for value in results[shard_id]["values"]
        )

    def reduce_assemble(results, context) -> None:
        arrays = context["arrays"]
        second = context["second_pair"]
        target_index = context["target_index"]
        nobody_decides = all(
            arrays.first_decision(
                target_index, processor, second.zeros, second.ones
            )
            is None
            for processor in context["target_nonfaulty"]
        )
        cbox2 = context["cbox2"]
        perturbed_rows: List[List[Any]] = []
        for label, config, pattern in e09.perturbed_cases(n, horizon):
            run_index = arrays.run_index_of(config, pattern)
            perturbed_rows.append(
                [label, bool((cbox2 >> run_index) & 1)]
            )
        context["nobody_decides"] = nobody_decides
        context["perturbed_rows"] = perturbed_rows

    def finalize(context: Dict[str, Any]):
        return e09.build_result(
            context["arrays"].num_runs,
            n,
            t,
            horizon,
            nobody_decides=context["nobody_decides"],
            belief_never=context["belief_never"],
            perturbed_rows=context["perturbed_rows"],
        )

    stages = [
        Stage("build", make_build, reduce_build),
        components_stage("eval-base", "empty_states", "exists0", "cbox_base"),
        believes_stage("eval-first", "first_ops", "first_pair", "F^{Λ,1}"),
        components_stage("eval-cbox1", "first_zeros", "exists1", "cbox1"),
        believes_stage("eval-second", "second_ops", "second_pair", "F^{Λ,2}"),
        Stage("eval-sticky", make_sticky, reduce_sticky),
        components_stage("eval-cbox2", "sticky_zeros", "exists1", "cbox2"),
        Stage("eval-probes", make_probes, reduce_probes),
        Stage("assemble", lambda context: [], reduce_assemble),
    ]
    # eval-base loads arrays + partition (one worker-context epoch for the
    # whole batch) and its reduce derives the first-pair operands;
    # eval-cbox1/2 compute their Z states in prepare hooks from the
    # preceding stage's pair.
    stages[1].prepare = prepare_eval
    stages[1].reduce = reduce_base
    stages[3].prepare = prepare_cbox1
    stages[3].reduce = reduce_cbox1
    stages[6].prepare = prepare_cbox2

    return BatchPlan(
        experiment_id="E9",
        params=params,
        stages=stages,
        finalize=finalize,
        partition="limb",
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
    params = {"cells": normalized}

    def make_evaluate(context: Dict[str, Any]) -> List[Shard]:
        shards = [
            Shard(
                shard_id=f"evaluate/cell-{index}",
                task="e14.cell",
                params={
                    "mode": mode,
                    "n": n,
                    "t": t,
                    "horizon": horizon,
                },
                stage="evaluate",
            )
            for index, (mode, n, t, horizon) in enumerate(normalized)
        ]
        shards.append(
            Shard(
                shard_id="evaluate/messages",
                task="e14.messages",
                params={},
                stage="evaluate",
            )
        )
        return shards

    def reduce_evaluate(results, context) -> None:
        context["rows"] = [
            results[f"evaluate/cell-{index}"]["row"]
            for index in range(len(normalized))
        ]
        context["message_rows"] = results["evaluate/messages"]["rows"]

    def finalize(context: Dict[str, Any]):
        return build_result(context["rows"], context["message_rows"])

    return BatchPlan(
        experiment_id="E14",
        params=params,
        stages=[Stage("evaluate", make_evaluate, reduce_evaluate)],
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
    params = {"cells": normalized, "samples": samples, "seed": seed}

    def make_evaluate(context: Dict[str, Any]) -> List[Shard]:
        return [
            Shard(
                shard_id=f"evaluate/cell-{index}-n{n}t{t}",
                task="e20.cell",
                params={"n": n, "t": t, "samples": samples, "seed": seed},
                stage="evaluate",
            )
            for index, (n, t) in enumerate(normalized)
        ]

    def reduce_evaluate(results, context) -> None:
        context["cell_results"] = [
            results[f"evaluate/cell-{index}-n{n}t{t}"]
            for index, (n, t) in enumerate(normalized)
        ]

    def finalize(context: Dict[str, Any]):
        return build_result(context["cell_results"], samples, seed)

    return BatchPlan(
        experiment_id="E20",
        params=params,
        stages=[Stage("evaluate", make_evaluate, reduce_evaluate)],
        finalize=finalize,
    )
