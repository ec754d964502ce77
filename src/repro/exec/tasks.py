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
helpers the monolithic experiments use.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

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


# -- run-level bit masks ---------------------------------------------------


def pack_run_levels(values: Iterable[bool]) -> int:
    """Pack per-run booleans into an int (bit ``i`` = run ``i``).

    Accumulates little-endian bytes and converts once — bit-by-bit
    ``mask |= 1 << i`` would be quadratic in the run count (385k-bit masks
    on the E9 cell).
    """
    data = bytearray()
    byte = 0
    shift = 0
    for value in values:
        if value:
            byte |= 1 << shift
        shift += 1
        if shift == 8:
            data.append(byte)
            byte = 0
            shift = 0
    if shift:
        data.append(byte)
    return int.from_bytes(bytes(data), "little")


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
    object; the supervisor then loads the file — as arrays for E9-style
    plans, or materialized into a ``System`` for plans whose finalize
    replays the experiment's monolithic ``run()`` (E4/E5/E21).

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
    labels may differ in value from the monolithic union-find scan's, but
    the partition (all that
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


# -- portfolio tasks: E4/E5/E21 formula portfolios over limb blocks --------
#
# E4, E5 and E21 evaluate formula *portfolios* — a dozen ``C□`` axioms,
# two Proposition 4.3 conditions per processor per protocol, belief
# sweeps over ``C◇`` operands — against the same crash and omission
# cells.  Their plans shard the two heavy, blockable sweep families the
# same way E9 does:
#
# * **components** — the Corollary 3.3 reachability labelling of a
#   nonrigid set (``N`` or ``N∧Z``), one shard per limb block, welded by
#   :func:`~repro.model.partition.merge_component_labels`;
# * **believes** — per-view ``B_p^N φ`` verdicts for a *point-level*
#   operand φ (shipped as a hex limb buffer), one shard per
#   ``(processor, block)`` slice.
#
# The reduce hooks plant the merged results into the cells' evaluation
# caches (``System.cached_components`` / ``System.cached_evaluation``)
# under exactly the keys the experiments' unchanged ``run()`` bodies
# compute — decision pairs are memoized per system
# (:mod:`repro.protocols.memo`), so the tokens inside those keys are
# stable from a plan's prepare hooks through its finalize.  ``run()``
# then cache-hits every seeded sweep and its verdict logic is untouched:
# sharded and monolithic verdicts are digest-identical by construction,
# which the parity suite asserts.


def _cell_id(mode: str, n: int, t: int, horizon: int) -> str:
    return f"{mode}-n{n}t{t}h{horizon}"


def _cell_system(mode: str, n: int, t: int, horizon: int):
    from ..model.builder import crash_system, omission_system

    make = crash_system if mode == "crash" else omission_system
    return make(n, t, horizon)


def _point_limbs_hex(truth, nlimbs: int) -> str:
    """A truth assignment as a hex point-level limb buffer.

    Point order is ``run * width + time`` on every kernel (the bitset
    mask, the chunked limbs and the partition tables all share it), so
    the conversion is a reinterpretation, not a per-point loop — except
    on the reference kernel, whose row lists are packed bit by bit.
    """
    from ..model.chunked import ChunkedAssignment
    from ..model.partition import limbs_to_hex
    from ..model.system import BitsetAssignment

    nbytes = nlimbs * 8
    if isinstance(truth, ChunkedAssignment):
        return limbs_to_hex(truth.limbs)
    if isinstance(truth, BitsetAssignment):
        return truth.mask.to_bytes(nbytes, "little").hex()
    rows = truth.to_rows()
    mask = pack_run_levels(value for row in rows for value in row)
    return mask.to_bytes(nbytes, "little").hex()


@register_task("portfolio.components")
def _task_portfolio_components(params: Dict[str, Any]) -> Dict[str, Any]:
    """One limb block's slice of a nonrigid set's reachability components.

    Like ``e9.components`` but cell-addressed: the worker context holds a
    ``cells`` map (several systems per batch), and ``states`` may be the
    sentinel ``"all"`` for the plain nonfaulty set ``N``.
    """
    cell = worker_context("cells")[params["cell"]]
    partition: LimbBlockPartition = cell["partition"]
    states = params["states"]
    if states == "all":
        states = range(partition.num_views)
    flags = partition.state_flags(states)
    runs, reps = partition.component_labels(
        params["block"]["block"], flags, cell["nf_limbs"]
    )
    return {
        "runs": [int(run) for run in runs],
        "reps": [int(rep) for rep in reps],
    }


@register_task("portfolio.believes")
def _task_portfolio_believes(params: Dict[str, Any]) -> Dict[str, Any]:
    """``B_p^N(φ)`` true views over one limb block, for point-level φ.

    Unlike ``e9.believes`` (whose operands are run-level masks), the
    operand here is a full point-level limb buffer — E5's Proposition
    4.3 consequents and E21's ``C◇`` operands are time-dependent.
    """
    from ..model.partition import hex_to_limbs

    cell = worker_context("cells")[params["cell"]]
    partition: LimbBlockPartition = cell["partition"]
    processor = params["processor"]
    phi = hex_to_limbs(params["operand"])
    views = partition.believes_true_views(
        processor,
        params["block"]["block"],
        cell["nf_limbs"][processor],
        phi,
    )
    return {"true_views": [int(view) for view in views]}


def _portfolio_build_stage(cells: List[Tuple[str, int, int, int]]) -> Stage:
    """Ensure every cell's ``.npz`` is on disk (one shard per cell)."""

    def make(context: Dict[str, Any]) -> List[Shard]:
        return [
            Shard(
                shard_id=f"build/{_cell_id(*cell)}",
                task="system.ensure",
                params={
                    "mode": cell[0],
                    "n": cell[1],
                    "t": cell[2],
                    "horizon": cell[3],
                },
                stage="build",
            )
            for cell in cells
        ]

    def reduce(results, context) -> None:
        context["build_info"] = {
            shard_id: results[shard_id]
            for shard_id in _shard_id_order(results)
        }

    return Stage(name="build", make_shards=make, reduce=reduce)


def _prepare_portfolio_cells(
    context: Dict[str, Any], cells: List[Tuple[str, int, int, int]]
) -> None:
    """Cut each cell's limb-block partition and publish the worker context
    (one epoch for the whole batch — the pool forks once)."""
    from ..model.failures import FailureMode
    from ..model.provider import get_provider

    provider = get_provider()
    cell_map: Dict[str, Dict[str, Any]] = {}
    for mode, n, t, horizon in cells:
        arrays = provider.get_arrays(FailureMode(mode), n, t, horizon)
        partition = LimbBlockPartition.from_arrays(
            arrays, target_entries=context.get("shard_size") or None
        )
        cell_map[_cell_id(mode, n, t, horizon)] = {
            "arrays": arrays,
            "partition": partition,
            "nf_limbs": [
                partition.nonfaulty_limbs(processor)
                for processor in range(arrays.n)
            ],
        }
    context["cells"] = cell_map
    set_worker_context(
        cells={
            key: {
                "partition": value["partition"],
                "nf_limbs": value["nf_limbs"],
            }
            for key, value in cell_map.items()
        }
    )


def _component_shards(
    cell: str,
    partition: LimbBlockPartition,
    prefix: str,
    states,
    stage: str,
) -> List[Shard]:
    return [
        Shard(
            shard_id=f"{prefix}/b{block['block']}",
            task="portfolio.components",
            params={"cell": cell, "states": states, "block": block},
            stage=stage,
        )
        for block in partition.block_descriptors()
    ]


def _believes_shards(
    cell: str,
    partition: LimbBlockPartition,
    prefix: str,
    processor: int,
    operand_hex: str,
    stage: str,
) -> List[Shard]:
    return [
        Shard(
            shard_id=f"{prefix}/b{block['block']}",
            task="portfolio.believes",
            params={
                "cell": cell,
                "processor": processor,
                "operand": operand_hex,
                "block": block,
            },
            stage=stage,
        )
        for block in partition.block_descriptors()
    ]


def _merged_labels(results, prefix: str, num_runs: int) -> List[int]:
    """Weld one prefix's block shards into a global component labelling."""
    block_results = [
        (results[shard_id]["runs"], results[shard_id]["reps"])
        for shard_id in _shard_id_order(results)
        if shard_id.startswith(prefix)
    ]
    return [
        int(label)
        for label in merge_component_labels(num_runs, block_results)
    ]


def _collected_views(results, prefix: str) -> List[int]:
    """Concatenate one prefix's block shards' true views (views never
    span blocks, so this is a disjoint union)."""
    views: List[int] = []
    for shard_id in _shard_id_order(results):
        if shard_id.startswith(prefix):
            views.extend(results[shard_id]["true_views"])
    return views


def _seed_believes(system, node, processor: int, views: List[int]) -> None:
    """Plant a ``Believes`` verdict assembled from sharded true views.

    Belief verdicts are constant per view, so the truth assignment is
    exactly ``from_states`` over the collected view set (no recall
    closure — that is a decision-*set* operation, not a verdict one),
    built under the ambient kernel so the cache key matches what the
    experiment's ``run()`` will look up.
    """
    from ..model.system import TruthAssignment

    truth = TruthAssignment.from_states(system, processor, frozenset(views))
    system.cached_evaluation(node.cache_key(), lambda: truth)


# -- E4 plan ---------------------------------------------------------------


@register_plan("E4")
def e4_plan(n: int = 3, t: int = 1, horizon: Optional[int] = None) -> BatchPlan:
    """E4 sharded: the ``C□`` portfolio's shared ``N`` component labelling
    is computed block-by-block; finalize seeds it and replays ``run()``."""
    from ..model.builder import default_horizon

    resolved = default_horizon(t) if horizon is None else horizon
    cells = [("crash", n, t, resolved), ("omission", n, t, resolved)]
    params = {"n": n, "t": t, "horizon": resolved}

    def make_components(context: Dict[str, Any]) -> List[Shard]:
        shards: List[Shard] = []
        for cell in cells:
            key = _cell_id(*cell)
            shards += _component_shards(
                key,
                context["cells"][key]["partition"],
                f"components/{key}",
                "all",
                "components",
            )
        return shards

    def reduce_components(results, context) -> None:
        from ..knowledge.nonrigid import NONFAULTY

        for cell in cells:
            key = _cell_id(*cell)
            labels = _merged_labels(
                results,
                f"components/{key}/",
                context["cells"][key]["arrays"].num_runs,
            )
            system = _cell_system(*cell)
            system.cached_components(
                NONFAULTY.cache_key(), lambda labels=labels: labels
            )

    def finalize(context: Dict[str, Any]):
        from ..experiments.e04_continual_ck import run as e4_run

        return e4_run(n, t, resolved)

    return BatchPlan(
        experiment_id="E4",
        params=params,
        stages=[
            _portfolio_build_stage(cells),
            Stage(
                "components",
                make_components,
                reduce_components,
                prepare=lambda context: _prepare_portfolio_cells(
                    context, cells
                ),
            ),
        ],
        finalize=finalize,
        partition="limb",
    )


# -- E5 plan ---------------------------------------------------------------


@register_plan("E5")
def e5_plan(n: int = 3, t: int = 1, horizon: Optional[int] = None) -> BatchPlan:
    """E5 sharded: per protocol, the sticky pair's ``N∧Z`` / ``N∧O``
    component labellings and the Proposition 4.3 belief consequents run
    as limb-block shards; finalize seeds both and replays ``run()``."""
    from ..model.builder import default_horizon

    resolved = default_horizon(t) if horizon is None else horizon
    cells = [("crash", n, t, resolved), ("omission", n, t, resolved)]
    params = {"n": n, "t": t, "horizon": resolved}

    def prepare_components(context: Dict[str, Any]) -> None:
        """Build the cells' partitions, then the protocol portfolio —
        the same factories ``run()`` calls, memoized per system, so the
        sticky pairs (and their cache-key tokens) here are the objects
        ``run()`` sees again at finalize."""
        from ..protocols.chain_fip import chain_pair
        from ..protocols.f_lambda import f_lambda_sequence
        from ..protocols.f_star import f_star_pair
        from ..protocols.fip import fip

        _prepare_portfolio_cells(context, cells)
        entries: List[Dict[str, Any]] = []
        for cell in cells:
            system = _cell_system(*cell)
            pairs = list(f_lambda_sequence(system))
            if cell[0] == "omission":
                pairs += [chain_pair(system), f_star_pair(system)]
            for pair in pairs:
                entries.append(
                    {
                        "cell": _cell_id(*cell),
                        "system": system,
                        "sticky": fip(pair).sticky_pair(system),
                    }
                )
        context["entries"] = entries

    def make_components(context: Dict[str, Any]) -> List[Shard]:
        shards: List[Shard] = []
        for index, entry in enumerate(context["entries"]):
            partition = context["cells"][entry["cell"]]["partition"]
            for which in ("zeros", "ones"):
                shards += _component_shards(
                    entry["cell"],
                    partition,
                    f"components/e{index}-{which}",
                    sorted(getattr(entry["sticky"], which)),
                    "components",
                )
        return shards

    def reduce_components(results, context) -> None:
        from ..knowledge.nonrigid import NonfaultyAndDeciding

        for index, entry in enumerate(context["entries"]):
            num_runs = context["cells"][entry["cell"]]["arrays"].num_runs
            for which in ("zeros", "ones"):
                labels = _merged_labels(
                    results, f"components/e{index}-{which}/", num_runs
                )
                nonrigid = NonfaultyAndDeciding(entry["sticky"], which)
                entry["system"].cached_components(
                    nonrigid.cache_key(), lambda labels=labels: labels
                )

    def prepare_believes(context: Dict[str, Any]) -> None:
        """Evaluate each condition's belief *operand* under the ambient
        kernel (its run-level ``C□`` core hits the labellings just
        seeded) and ship it to the shards as point-level limbs."""
        from ..core.optimality import proposition_4_3_conditions

        seeds: List[Dict[str, Any]] = []
        for index, entry in enumerate(context["entries"]):
            system = entry["system"]
            partition = context["cells"][entry["cell"]]["partition"]
            cond_a, cond_b = proposition_4_3_conditions(entry["sticky"])
            for tag, cond in (("a", cond_a), ("b", cond_b)):
                for processor in range(system.n):
                    node = cond(processor).consequent
                    operand = node.operand.evaluate(system)
                    seeds.append(
                        {
                            "prefix": f"believes/e{index}-{tag}-p{processor}",
                            "cell": entry["cell"],
                            "system": system,
                            "node": node,
                            "processor": processor,
                            "operand": _point_limbs_hex(
                                operand, partition.nlimbs
                            ),
                        }
                    )
        context["seeds"] = seeds

    def make_believes(context: Dict[str, Any]) -> List[Shard]:
        shards: List[Shard] = []
        for seed in context["seeds"]:
            shards += _believes_shards(
                seed["cell"],
                context["cells"][seed["cell"]]["partition"],
                seed["prefix"],
                seed["processor"],
                seed["operand"],
                "believes",
            )
        return shards

    def reduce_believes(results, context) -> None:
        for seed in context["seeds"]:
            _seed_believes(
                seed["system"],
                seed["node"],
                seed["processor"],
                _collected_views(results, seed["prefix"] + "/"),
            )

    def finalize(context: Dict[str, Any]):
        from ..experiments.e05_knowledge_conditions import run as e5_run

        return e5_run(n, t, resolved)

    return BatchPlan(
        experiment_id="E5",
        params=params,
        stages=[
            _portfolio_build_stage(cells),
            Stage(
                "components",
                make_components,
                reduce_components,
                prepare=prepare_components,
            ),
            Stage(
                "believes",
                make_believes,
                reduce_believes,
                prepare=prepare_believes,
            ),
        ],
        finalize=finalize,
        partition="limb",
    )


# -- E21 plan --------------------------------------------------------------


@register_plan("E21")
def e21_plan(
    n: int = 3, t: int = 1, horizon: Optional[int] = None
) -> BatchPlan:
    """E21 sharded: the ``N`` component labelling (for the ``C□ ⇒ C◇``
    implication's fast path) and the per-processor ``B_i^N C◇∃v`` belief
    sweeps run as limb-block shards; finalize seeds and replays
    ``run()``.  The ``C◇`` fixpoints themselves are inherently global
    and stay in the supervisor — evaluated once in the believes
    ``prepare``, where ``run()`` later cache-hits them."""
    from ..model.builder import default_horizon

    resolved = default_horizon(t) if horizon is None else horizon
    cells = [("crash", n, t, resolved), ("omission", n, t, resolved)]
    params = {"n": n, "t": t, "horizon": resolved}

    def make_components(context: Dict[str, Any]) -> List[Shard]:
        shards: List[Shard] = []
        for cell in cells:
            key = _cell_id(*cell)
            shards += _component_shards(
                key,
                context["cells"][key]["partition"],
                f"components/{key}",
                "all",
                "components",
            )
        return shards

    def reduce_components(results, context) -> None:
        from ..knowledge.nonrigid import NONFAULTY

        for cell in cells:
            key = _cell_id(*cell)
            labels = _merged_labels(
                results,
                f"components/{key}/",
                context["cells"][key]["arrays"].num_runs,
            )
            system = _cell_system(*cell)
            system.cached_components(
                NONFAULTY.cache_key(), lambda labels=labels: labels
            )

    def prepare_believes(context: Dict[str, Any]) -> None:
        from ..knowledge.formulas import Believes, EventualCommon, Exists
        from ..knowledge.nonrigid import NONFAULTY

        seeds: List[Dict[str, Any]] = []
        for cell in cells:
            key = _cell_id(*cell)
            system = _cell_system(*cell)
            partition = context["cells"][key]["partition"]
            for value in (0, 1):
                eventual = EventualCommon(NONFAULTY, Exists(value))
                operand = _point_limbs_hex(
                    eventual.evaluate(system), partition.nlimbs
                )
                for processor in range(system.n):
                    seeds.append(
                        {
                            "prefix": f"believes/{key}-v{value}-p{processor}",
                            "cell": key,
                            "system": system,
                            "node": Believes(processor, eventual),
                            "processor": processor,
                            "operand": operand,
                        }
                    )
        context["seeds"] = seeds

    def make_believes(context: Dict[str, Any]) -> List[Shard]:
        shards: List[Shard] = []
        for seed in context["seeds"]:
            shards += _believes_shards(
                seed["cell"],
                context["cells"][seed["cell"]]["partition"],
                seed["prefix"],
                seed["processor"],
                seed["operand"],
                "believes",
            )
        return shards

    def reduce_believes(results, context) -> None:
        for seed in context["seeds"]:
            _seed_believes(
                seed["system"],
                seed["node"],
                seed["processor"],
                _collected_views(results, seed["prefix"] + "/"),
            )

    def finalize(context: Dict[str, Any]):
        from ..experiments.e21_eventual_ck import run as e21_run

        return e21_run(n, t, resolved)

    return BatchPlan(
        experiment_id="E21",
        params=params,
        stages=[
            _portfolio_build_stage(cells),
            Stage(
                "components",
                make_components,
                reduce_components,
                prepare=lambda context: _prepare_portfolio_cells(
                    context, cells
                ),
            ),
            Stage(
                "believes",
                make_believes,
                reduce_believes,
                prepare=prepare_believes,
            ),
        ],
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
