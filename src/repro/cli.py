"""Command-line interface: experiments, protocol comparisons and diagrams.

Usage::

    repro-eba list                 # show the experiment index
    repro-eba run E2 E8            # run selected experiments
    repro-eba run --all --skip E9  # everything except the heavy cell
    repro-eba protocols            # show the protocol registry
    repro-eba compare P0opt P0 --mode crash -n 4 -t 1
    repro-eba diagram P0opt --config 011 --crash 0:1:1
    repro-eba stats                # system-cache state and disk inventory
    repro-eba stats --json         # the same, machine-readable
    repro-eba run E2 --stats       # append instrumentation totals
    repro-eba trace run E04 --out trace.json   # Chrome/Perfetto trace
    repro-eba explain E4           # list explainable formulas for E4
    repro-eba explain E4 common-exists1 --point 5:2
    repro-eba bench-compare --history BENCH_HISTORY.jsonl
    repro-eba batch run E9 --workers 4 --resume   # sharded execution
    repro-eba batch status         # checkpointed batches on disk
    repro-eba batch top            # live dashboard of the latest batch
    repro-eba batch top E9 --once  # one frame, for scripts and CI
    repro-eba metrics              # Prometheus text of this process
    repro-eba metrics --journal PATH   # fold a telemetry.jsonl instead
    repro-eba monitor --config 011 --crash 0:1 --rounds 3
                                   # stream a scenario; online K/E/C□
    repro-eba serve                # long-lived knowledge-query daemon
    repro-eba query eval --catalog E4/common-exists1
                                   # query the daemon (in-process fallback)
    repro-eba metrics --socket .repro_serve.sock  # scrape a live daemon

Experiment ids are normalized (``E04``, ``e4`` and ``4`` all mean
``E4``).  ``batch run`` executes an experiment through the sharded,
checkpointed :mod:`repro.exec` engine (resume an interrupted batch with
``--resume``; tune with ``--workers/--timeout/--retries`` or
the matching ``REPRO_EXEC_*`` env vars); ``batch status`` lists the
checkpoint directories under ``.repro_cache/exec/``.  A SIGINT anywhere in
the CLI flushes partial instrumentation to stderr and exits with status
130 (and ``REPRO_INTERRUPT_TRACE=PATH`` additionally dumps buffered spans
as JSONL).  ``trace run`` executes experiments with the span tracer on and
writes the finished spans as a Chrome trace-event file (loadable in
``chrome://tracing`` or Perfetto) or as JSONL.  ``explain`` re-derives a
knowledge verdict together with machine-checkable evidence — an
indistinguishability chain to a counterexample point, or the Corollary 3.3
reachability component.  ``bench-compare`` diffs micro-bench snapshots
recorded by ``benchmarks/regression.py``.

``--stats`` (available on ``run``, ``compare`` and ``diagram``) prints the
process-wide :mod:`repro.obs` instrumentation — stage wall times, runs
built, cache hits/misses, fixpoint iterations, histogram digests — after
the command's normal output.  ``stats`` inspects the persistent caches
themselves (plus the span tracer's ring-buffer health: capacity, fill,
watermark and dropped-span total); ``stats --clear`` empties the caches.
``metrics`` renders the same instrumentation as Prometheus text
exposition — of this process, or of a batch run's ``telemetry.jsonl``
via ``--journal``.  ``batch top`` tails a batch's ``health.json`` and
telemetry journal into a live per-worker dashboard (inflight shard,
attempt, heartbeat age, RSS, shard-latency p50/p95, retries by cause);
``--once`` prints a single frame and exits.

Failure patterns on the command line use a mini-language:

* ``--crash P:K`` — processor P crashes in round K delivering nothing;
  ``--crash P:K:R1,R2`` delivers the round-K message to R1 and R2 only.
* ``--omit P:K:D1,D2`` — processor P omits its round-K messages to D1, D2
  (repeat the flag for more rounds/processors; sending omissions).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, List, Optional

from .errors import ReproError
from .experiments.registry import EXPERIMENTS, run_experiment

_DESCRIPTIONS = {
    "E1": "No optimum EBA protocol (Proposition 2.1)",
    "E2": "P0opt strictly dominates P0 (Section 2.2)",
    "E3": "S5 axioms for K_i (Proposition 3.1)",
    "E4": "Continual common knowledge axioms (Lemma 3.4)",
    "E5": "Knowledge conditions for agreement (Propositions 4.3/4.4)",
    "E6": "Two-step optimal construction (Theorem 5.2)",
    "E7": "Optimality characterization (Theorem 5.3)",
    "E8": "Crash-mode collapse of F^{Λ,2} (Theorems 6.1/6.2)",
    "E9": "Omission non-termination of F^{Λ,2} (Proposition 6.3) [heavy]",
    "E10": "Chain protocol decides by f+1 (Proposition 6.4)",
    "E11": "F* optimal for omission EBA (Proposition 6.6)",
    "E12": "EBA vs SBA decision times ([DRS90] motivation)",
    "E13": "Full-information universality (Prop 2.2 / Cor 2.3)",
    "E14": "Scaling ablation (reproduction cost model)",
    "E15": "Beyond the analyzed failure modes ([PT86] ablation)",
    "E16": "Optimum SBA baseline reproduced concretely ([DM90])",
    "E17": "Multivalued agreement (the 'general case' extension)",
    "E18": "Uniform agreement ablation ([Nei90]/[NB92], Section 7)",
    "E19": "Byzantine EIG and the n > 3t threshold (Section 7)",
    "E20": "Scaling sweep: optimal-EBA gains at larger n and t",
    "E21": "Eventual common knowledge is the wrong tool (Section 3.2)",
}


def _cmd_list() -> int:
    for experiment_id in EXPERIMENTS:
        print(f"{experiment_id:4} {_DESCRIPTIONS.get(experiment_id, '')}")
    return 0


def normalize_experiment_id(experiment_id: str) -> str:
    """Canonicalize user-supplied experiment ids: E04 / e4 / 4 -> E4."""
    text = experiment_id.strip().upper()
    if text.startswith("E"):
        text = text[1:]
    if text.isdigit():
        return f"E{int(text)}"
    return experiment_id


def _unknown_experiments(ids: List[str]) -> str:
    """The one-line report for ids that name no experiment."""
    names = ", ".join(repr(eid) for eid in ids)
    return f"repro-eba: unknown experiment {names}; try `repro-eba list`"


def _cmd_run(
    ids: List[str],
    run_all: bool,
    skip: List[str],
    json_path: str = None,
) -> int:
    skip = [normalize_experiment_id(eid) for eid in skip]
    selected = (
        list(EXPERIMENTS)
        if run_all
        else [normalize_experiment_id(eid) for eid in ids]
    )
    selected = [eid for eid in selected if eid not in skip]
    if not selected:
        print("nothing to run; try `repro-eba list`", file=sys.stderr)
        return 2
    unknown = [eid for eid in selected if eid not in EXPERIMENTS]
    if unknown:
        print(_unknown_experiments(unknown), file=sys.stderr)
        return 2
    failures = 0
    exported = []
    for experiment_id in selected:
        start = time.perf_counter()
        result = run_experiment(experiment_id)
        elapsed = time.perf_counter() - start
        print(result.render())
        print(f"(took {elapsed:.1f}s)")
        print()
        if not result.ok:
            failures += 1
        if json_path is not None:
            from .io.export import experiment_result_to_json

            entry = experiment_result_to_json(result)
            entry["seconds"] = round(elapsed, 3)
            exported.append(entry)
    if json_path is not None:
        import json as json_module

        with open(json_path, "w") as handle:
            json_module.dump(exported, handle, indent=2)
        print(f"wrote {len(exported)} result(s) to {json_path}")
    if failures:
        print(f"{failures} experiment(s) did NOT reproduce", file=sys.stderr)
        return 1
    print(f"all {len(selected)} experiment(s) reproduced")
    return 0


def _spec_fields(spec: str, flag: str, shape: str, lengths) -> list:
    """The ``:``-separated fields of a *flag* spec of the given *shape*:
    the first two as integers, any further one as a list of its
    comma-separated integers.  A spec of another length, or with a
    field that is not an integer, is a :class:`ReproError`."""
    parts = spec.split(":")
    try:
        if len(parts) in lengths:
            return [int(part) for part in parts[:2]] + [
                [int(item) for item in part.split(",") if item]
                for part in parts[2:]
            ]
    except ValueError:
        pass
    raise ReproError(f"bad {flag} spec {spec!r}; expected {shape}")


def parse_crash_spec(spec: str):
    """Parse ``P:K`` or ``P:K:R1,R2`` into (processor, CrashBehavior)."""
    from .model.failures import CrashBehavior

    fields = _spec_fields(spec, "--crash", "P:K or P:K:R1,R2", (2, 3))
    processor, crash_round = fields[:2]
    receivers = frozenset(fields[2]) if len(fields) == 3 else frozenset()
    return processor, CrashBehavior(crash_round, receivers)


def _round_tables(specs: List[str], flag: str, shape: str):
    """Repeated ``P:K:X1,X2`` specs as {processor: {round: [X...]}}."""
    tables: Dict[int, Dict[int, List[int]]] = {}
    for spec in specs:
        processor, round_number, others = _spec_fields(
            spec, flag, shape, (3,)
        )
        table = tables.setdefault(processor, {})
        table.setdefault(round_number, []).extend(others)
    return tables


def parse_omit_specs(specs: List[str]):
    """Parse repeated ``P:K:D1,D2`` into {processor: OmissionBehavior}."""
    from .model.failures import OmissionBehavior

    return {
        processor: OmissionBehavior(table)
        for processor, table in _round_tables(
            specs, "--omit", "P:K:D1,D2"
        ).items()
    }


def _parse_recv_omit_specs(specs: List[str]):
    """Parse repeated ``P:K:S1,S2`` into {processor: ReceiveOmissionBehavior}."""
    from .model.failures import ReceiveOmissionBehavior

    return {
        processor: ReceiveOmissionBehavior(table)
        for processor, table in _round_tables(
            specs, "--recv-omit", "P:K:S1,S2"
        ).items()
    }


def _build_pattern(
    crash_specs: List[str],
    omit_specs: List[str],
    recv_omit_specs: List[str] = (),
):
    from .model.failures import FailurePattern

    behaviors = {}
    for spec in crash_specs:
        processor, behavior = parse_crash_spec(spec)
        behaviors[processor] = behavior
    behaviors.update(parse_omit_specs(omit_specs))
    behaviors.update(_parse_recv_omit_specs(recv_omit_specs))
    return FailurePattern(behaviors)


def _print_stats() -> None:
    """Print the process-wide instrumentation and system-cache counters."""
    from . import obs, trace
    from .model.builder import system_cache_info

    print("instrumentation (this process):")
    print(obs.format_summary())
    status = trace.tracer_status()
    print("span tracer:")
    print(
        f"  {'enabled' if status['enabled'] else 'disabled'}, "
        f"{status['buffered']}/{status['capacity']} buffered, "
        f"watermark {status['watermark']}, "
        f"{status['dropped']} dropped"
    )
    info = system_cache_info()
    print("system cache:")
    print(
        f"  memory: {info['size']}/{info['max_size']} entries, "
        f"{info['hits']} hits, {info['misses']} misses, "
        f"{info['evictions']} evictions"
    )
    print(
        f"  disk:   {'enabled' if info['disk_enabled'] else 'disabled'} "
        f"({info['cache_dir']}), "
        f"{info['disk_hits']} hits, {info['disk_misses']} misses, "
        f"{info['disk_prunes']} stale file(s) pruned, "
        f"{info['disk_stale']} stale on disk"
    )
    counters = obs.snapshot()["counters"]
    print(
        f"  degraded: {counters.get('arrays_cache_repairs', 0)} "
        f"arrays_cache_repairs"
    )


def _cmd_stats(clear: bool, as_json: bool = False) -> int:
    from .model.builder import clear_system_cache
    from .model.provider import get_provider

    if clear:
        stats = clear_system_cache(disk=True)
        print(
            f"cleared: {stats['evicted']} in-memory system(s), "
            f"{stats['arrays_evicted']} in-memory array projection(s), "
            f"{stats['disk_files_removed']} disk file(s)"
        )
        return 0
    if as_json:
        import json as json_module

        from . import obs, trace
        from .model.builder import system_cache_info

        payload = {
            "instrumentation": obs.snapshot(),
            "tracer": trace.tracer_status(),
            "system_cache": system_cache_info(),
            "disk_entries": get_provider().disk_entries(),
        }
        print(json_module.dumps(payload, indent=2, sort_keys=True))
        return 0
    _print_stats()
    entries = get_provider().disk_entries()
    if entries:
        print("disk cache inventory:")
        for entry in entries:
            marker = "  (stale)" if entry.get("stale") else ""
            print(
                f"  {entry['file']:<48} {entry['bytes']:>12} bytes{marker}"
            )
    else:
        print("disk cache inventory: (empty)")
    return 0


def _cmd_metrics(journal_path: str = None, socket_path: str = None) -> int:
    """Prometheus text exposition of an instrumentation snapshot.

    With no argument, exposes this process's totals; with ``--journal``,
    folds a batch run's ``telemetry.jsonl`` back into a snapshot first;
    with ``--socket``, scrapes a live serve daemon's ``healthz``.
    """
    from . import obs
    from .obs.metrics import prometheus_text

    if socket_path is not None:
        from .serve.client import ServeClient

        try:
            with ServeClient(socket_path, timeout=10.0) as client:
                sys.stdout.write(client.healthz()["prometheus"])
        except ReproError as error:
            print(f"cannot scrape {socket_path}: {error}", file=sys.stderr)
            return 2
        return 0
    if journal_path is not None:
        from .obs.journal import fold_journal, read_journal

        try:
            folded = fold_journal(read_journal(journal_path))
        except OSError as error:
            print(f"cannot read {journal_path}: {error}", file=sys.stderr)
            return 2
        summary = folded["metrics"]
    else:
        summary = obs.snapshot()
    sys.stdout.write(prometheus_text(summary))
    return 0


def _resolve_top_batch(batch: str = None):
    """The batch entry ``batch top`` should watch.

    *batch* may be a full batch key, a prefix, or a bare experiment id;
    with no argument the batch whose journal changed most recently wins.
    """
    import os

    from .exec.checkpoint import list_batches

    entries = [e for e in list_batches() if e.get("journal")]
    if batch is not None:
        key = batch.strip()
        experiment = normalize_experiment_id(key)
        entries = [
            entry
            for entry in entries
            if entry["batch"] == key
            or entry["batch"].startswith(key)
            or entry["experiment"] == experiment
        ]
    def mtime(entry):
        try:
            return os.path.getmtime(entry["journal"])
        except OSError:
            return 0.0
    return max(entries, key=mtime) if entries else None


def _render_top_frame(entry) -> str:
    """One ``batch top`` frame from a batch's journal + health snapshot."""
    from .exec.checkpoint import CheckpointStore
    from .obs.journal import (
        fold_journal,
        read_journal,
        worker_latency_quantiles,
    )

    folded = fold_journal(read_journal(entry["journal"]))
    store = CheckpointStore(entry["batch"])
    health = store.load_health() or entry.get("health") or {}
    now = time.time()
    meta = folded["meta"]
    shards = folded["shards"]
    done = folded["done"]
    lines = [
        f"batch {entry['batch']}  experiment {meta.get('experiment', '?')}"
    ]
    state = (
        f"finished ({'ok' if done.get('ok') else 'FAILED'}, "
        f"{done.get('seconds', 0):.1f}s)"
        if done
        else "running"
    )
    lines.append(
        f"shards {shards['done']} done / {shards['started']} started"
        f" / {shards['resumed']} resumed   retries {shards['retries']}"
        f"   state {state}"
    )
    causes = shards["retries_by_cause"]
    if causes:
        lines.append(
            "retries by cause: "
            + ", ".join(
                f"{cause}={count}" for cause, count in sorted(causes.items())
            )
        )
    # Freshest heartbeat ages come from health.json when it is newer
    # than the last journal event for that worker.
    beat_age = {}
    for row in health.get("worker_detail") or []:
        if row.get("heartbeat_age") is not None:
            beat_age[row["pid"]] = (
                row["heartbeat_age"] + max(0.0, now - health.get("updated", now))
            )
    header = (
        f"  {'worker':>8} {'state':<22} {'beat age':>9} {'rss':>9} "
        f"{'cpu s':>7} {'done':>5} {'retry':>5} {'p50':>8} {'p95':>8}"
    )
    lines.append("")
    lines.append(header)
    for pid in sorted(folded["workers"]):
        worker = folded["workers"][pid]
        inflight = worker.get("inflight")
        if inflight:
            state_text = (
                f"{inflight['shard']}#{inflight['attempt']}"
            )[:22]
        else:
            state_text = "idle"
        age = beat_age.get(pid)
        if age is None and worker.get("last_event_ts") is not None:
            age = now - worker["last_event_ts"]
        sample = worker.get("last_sample") or {}
        rss = sample.get("rss_bytes")
        cpu = sample.get("cpu_seconds")
        quantiles = worker_latency_quantiles(worker)
        lines.append(
            f"  {pid:>8} {state_text:<22} "
            f"{(f'{age:.1f}s' if age is not None else '-'):>9} "
            f"{(f'{rss / (1 << 20):.0f}M' if rss else '-'):>9} "
            f"{(f'{cpu:.1f}' if cpu is not None else '-'):>7} "
            f"{worker['shards_done']:>5} {worker['retries']:>5} "
            f"{quantiles['p50'] * 1000:>6.1f}ms {quantiles['p95'] * 1000:>6.1f}ms"
        )
    if not folded["workers"]:
        lines.append("  (no worker events in the journal yet)")
    if folded["stages"]:
        lines.append("")
        lines.append("stages:")
        for stage in folded["stages"]:
            lines.append(
                f"  {stage['stage']:<28} {stage['seconds']:>9.3f}s"
            )
    return "\n".join(lines)


def _cmd_batch_top(batch: str, once: bool, interval: float) -> int:
    """Live terminal dashboard over ``health.json`` + the journal."""
    entry = _resolve_top_batch(batch)
    if entry is None:
        target = batch or "any batch"
        print(
            f"no checkpointed batch with a telemetry journal ({target}); "
            "run `repro-eba batch run ...` first",
            file=sys.stderr,
        )
        return 2
    if once:
        print(_render_top_frame(entry))
        return 0
    from .obs.journal import fold_journal, read_journal

    try:
        while True:
            frame = _render_top_frame(entry)
            # ANSI clear + home keeps the dashboard in place per refresh.
            sys.stdout.write("\x1b[2J\x1b[H" + frame + "\n")
            sys.stdout.flush()
            folded = fold_journal(read_journal(entry["journal"]))
            if folded["done"]:
                return 0
            time.sleep(interval)
    except KeyboardInterrupt:
        print()
        return 0


def _cmd_trace(ids: List[str], out_path: str, fmt: str) -> int:
    """Run experiments under the span tracer; export the finished spans."""
    from . import trace as spantrace
    from .trace import write_chrome_trace, write_jsonl

    ids = [normalize_experiment_id(eid) for eid in ids]
    mark = spantrace.watermark()
    failures = 0
    for experiment_id in ids:
        result = run_experiment(experiment_id)
        print(result.render())
        print()
        if not result.ok:
            failures += 1
    spans = spantrace.collect(mark)
    if fmt == "jsonl":
        count = write_jsonl(spans, out_path)
    else:
        count = write_chrome_trace(spans, out_path)
    print(f"wrote {count} span(s) to {out_path} ({fmt})")
    return 1 if failures else 0


def _parse_point(spec: str):
    return tuple(_spec_fields(spec, "--point", "RUN:TIME", (2,)))


def _cmd_explain(
    experiment_id: str, formula_key: str, point_spec: str, n: int, t: int
) -> int:
    """Explain a catalog formula's verdict, with a machine re-check."""
    from .knowledge.explain import (
        EXPLAIN_CATALOG,
        catalog_system,
        default_point,
        explain,
        render_explanation,
    )

    experiment_id = normalize_experiment_id(experiment_id)
    entries = EXPLAIN_CATALOG.get(experiment_id)
    if not entries:
        print(
            f"no explainable formulas registered for {experiment_id}; "
            f"available: {', '.join(EXPLAIN_CATALOG)}",
            file=sys.stderr,
        )
        return 2
    if formula_key is None:
        for key, entry in entries.items():
            print(f"{key:<28} {entry.description}")
        return 0
    entry = entries.get(formula_key)
    if entry is None:
        print(
            f"unknown formula {formula_key!r} for {experiment_id}; "
            f"available: {', '.join(entries)}",
            file=sys.stderr,
        )
        return 2
    try:
        point = None if point_spec is None else _parse_point(point_spec)
    except ReproError as error:
        print(f"repro-eba: {error}", file=sys.stderr)
        return 2
    system = catalog_system(entry, n, t)
    if point is not None and not (
        0 <= point[0] < len(system.runs) and 0 <= point[1] <= system.horizon
    ):
        print(
            f"repro-eba: point {point_spec} outside system "
            f"({len(system.runs)} runs, horizon {system.horizon})",
            file=sys.stderr,
        )
        return 2
    formula = entry.build(system)
    if point is None:
        point = default_point(system, formula)
    explanation = explain(system, formula, point)
    print(render_explanation(explanation))
    problems = explanation.check(system)
    if problems:
        print("machine check FAILED:", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    print("machine check: OK")
    return 0


def _cmd_bench_compare(
    paths: List[str], history: str, threshold: float
) -> int:
    """Diff two bench snapshots (files, or the history's last two)."""
    from .bench.regression import (
        compare_snapshots,
        load_history,
        load_snapshot,
    )

    if history is not None:
        snapshots = load_history(history)
        if len(snapshots) < 2:
            print(
                f"history {history} holds {len(snapshots)} snapshot(s); "
                "need 2 to compare — nothing to do"
            )
            return 0
        baseline, candidate = snapshots[-2], snapshots[-1]
    elif len(paths) == 2:
        baseline = load_snapshot(paths[0])
        candidate = load_snapshot(paths[1])
    else:
        print(
            "give two snapshot files, or --history FILE for its last "
            "two entries",
            file=sys.stderr,
        )
        return 2
    report = compare_snapshots(baseline, candidate, threshold=threshold)
    print(report.render())
    return 0 if report.ok else 1


def _cmd_protocols() -> int:
    from .protocols.registry import (
        CONCRETE_PROTOCOLS,
        KNOWLEDGE_PROTOCOLS,
    )

    print("concrete (simulator) protocols:")
    for name in CONCRETE_PROTOCOLS:
        print(f"  {name}")
    print("knowledge-level protocols (need an enumerated system):")
    for name in KNOWLEDGE_PROTOCOLS:
        print(f"  {name}")
    return 0


def _cmd_compare(names: List[str], mode: str, n: int, t: int) -> int:
    from .core.domination import compare
    from .core.specs import check_eba
    from .metrics.stats import decision_time_stats
    from .metrics.tables import format_float, render_table
    from .model.builder import system_for
    from .model.failures import FailureMode
    from .protocols.registry import outcome_for

    try:
        system = system_for(FailureMode(mode), n, t)
        outcomes = [outcome_for(name, system) for name in names]
    except ReproError as error:
        print(f"repro-eba: {error}", file=sys.stderr)
        return 2
    rows = []
    for outcome in outcomes:
        stats = decision_time_stats(outcome)
        rows.append(
            [outcome.name, check_eba(outcome).ok,
             format_float(stats.mean), stats.maximum, stats.undecided]
        )
    print(
        render_table(
            ["protocol", "EBA", "mean t", "max t", "undecided"], rows
        )
    )
    print()
    for first in outcomes:
        for second in outcomes:
            if first is not second:
                print(compare(first, second))
    return 0


def _parse_config(config_bits: str, n: int):
    """``--config`` as the initial configuration of *n* binary values."""
    from .model.config import InitialConfiguration

    if not set(config_bits) <= {"0", "1"}:
        raise ReproError(f"--config {config_bits!r} must be 0/1 bits")
    if len(config_bits) != n:
        raise ReproError(
            f"--config {config_bits!r} has {len(config_bits)} bits but n={n}"
        )
    return InitialConfiguration([int(bit) for bit in config_bits])


def _cmd_diagram(
    name: str,
    mode: str,
    n: int,
    t: int,
    config_bits: str,
    crash_specs: List[str],
    omit_specs: List[str],
) -> int:
    from .analysis.diagram import render_outcome_diagram
    from .model.builder import system_for
    from .model.failures import FailureMode
    from .protocols.registry import (
        concrete_protocol,
        is_knowledge_level,
        outcome_for,
    )
    from .sim.engine import execute

    try:
        config = _parse_config(config_bits, n)
        pattern = _build_pattern(crash_specs, omit_specs).validate(n, t)
        if is_knowledge_level(name):
            system = system_for(FailureMode(mode), n, t)
            run = outcome_for(name, system).get((config, pattern))
        else:
            protocol = concrete_protocol(name, [(config, pattern)])
            run = execute(protocol, config, pattern, t + 2, t).to_outcome()
    except ReproError as error:
        print(f"repro-eba: {error}", file=sys.stderr)
        return 2
    print(f"protocol: {name}")
    print(render_outcome_diagram(run))
    return 0


def _cmd_monitor(
    mode: str,
    n: int,
    t: int,
    config_bits: str,
    crash_specs: List[str],
    omit_specs: List[str],
    recv_omit_specs: List[str],
    rounds: int,
    value: int,
    journal_path: Optional[str],
) -> int:
    """Stream one scenario round by round with online K/E/C□ verdicts."""
    from .model.failures import FailureMode
    from .sim.monitor import StreamingMonitor

    try:
        config = _parse_config(config_bits, n)
        pattern = _build_pattern(
            crash_specs, omit_specs, recv_omit_specs
        ).validate(n, t)
        monitor = StreamingMonitor(
            FailureMode(mode), n, t, config, pattern, value=value
        )
    except ReproError as error:
        print(f"repro-eba: {error}", file=sys.stderr)
        return 2
    # Opened only once the command line is accepted; the monitor first
    # reads it in advance().
    journal = None
    if journal_path is not None:
        from .obs.journal import TelemetryJournal

        journal = TelemetryJournal(
            journal_path, batch="monitor", experiment="monitor"
        )
        monitor.journal = journal
    print(
        f"monitoring {mode} n={n} t={t} config={config_bits} "
        f"value={value} — {pattern}"
    )
    for _ in range(rounds):
        record = monitor.advance()
        verdicts = record["verdicts"]
        knows = " ".join(
            f"{p}:{'yes' if known else 'no'}"
            for p, known in enumerate(verdicts["knows"])
        )
        print(
            f"round {record['round']:>2}  "
            f"K∃{value}: {knows}   "
            f"E∃{value}: {'yes' if verdicts['everyone'] else 'no'}   "
            f"C□∃{value}: {'yes' if verdicts['continual_common'] else 'no'}"
            f"   ({record['seconds']:.3f}s)"
        )
    if journal is not None:
        journal.close()
        print(f"journal: {journal_path}")
    return 0


def _parse_batch_params(specs: List[str]) -> Dict[str, int]:
    """Parse repeated ``--param key=value`` overrides (integer values)."""
    params: Dict[str, int] = {}
    for spec in specs:
        key, sep, value = spec.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ReproError(
                f"--param {spec!r} must look like key=value"
            )
        try:
            params[key] = int(value)
        except ValueError:
            raise ReproError(
                f"--param {spec!r} has a non-integer value {value!r}"
            ) from None
    return params


def _cmd_batch(args) -> int:
    from .exec.checkpoint import list_batches
    from .exec.plan import plan_for, run_batch, wired_plans

    if args.batch_action == "top":
        return _cmd_batch_top(
            args.batch_ids[0] if args.batch_ids else None,
            args.once,
            args.interval,
        )

    if args.batch_action == "status":
        entries = list_batches()
        if not entries:
            print("no checkpointed batches")
            return 0
        from .metrics.tables import render_table

        def _health_cells(entry):
            causes = entry.get("retry_causes") or {}
            cause_text = (
                ",".join(
                    f"{cause}:{count}"
                    for cause, count in sorted(causes.items())
                )
                or "-"
            )
            age = entry.get("max_heartbeat_age")
            return [
                entry.get("retries", 0),
                cause_text,
                entry.get("inflight", 0),
                f"{age:.1f}s" if age is not None else "-",
            ]

        print(
            render_table(
                ["batch", "experiment", "shards", "bytes",
                 "retries", "retry causes", "inflight", "beat age"],
                [
                    [entry["batch"] + (" (stale)" if entry["stale"] else ""),
                     entry["experiment"],
                     entry["shards"], entry["bytes"]] + _health_cells(entry)
                    for entry in entries
                ],
            )
        )
        if any(entry["stale"] for entry in entries):
            print(
                "(stale): another checkpoint version's batch; it is never "
                "resumed and can be deleted"
            )
        return 0

    if not args.batch_ids:
        print("nothing to run; try `repro-eba batch run E9`", file=sys.stderr)
        return 2
    try:
        params = _parse_batch_params(args.param)
    except ReproError as error:
        print(f"repro-eba: {error}", file=sys.stderr)
        return 2
    selected = [normalize_experiment_id(eid) for eid in args.batch_ids]
    unknown = [eid for eid in selected if eid not in EXPERIMENTS]
    if unknown:
        print(_unknown_experiments(unknown), file=sys.stderr)
        return 2
    wired = wired_plans()
    unplanned = [eid for eid in selected if eid not in wired]
    if unplanned:
        print(
            f"repro-eba: no batch plan for {', '.join(unplanned)} "
            f"(batch plans: {', '.join(wired)}); run "
            f"`repro-eba run {' '.join(unplanned)}` instead",
            file=sys.stderr,
        )
        return 2
    failures = 0
    for experiment_id in selected:
        plan = plan_for(experiment_id, **params)
        start = time.perf_counter()
        try:
            result = run_batch(
                plan,
                workers=args.workers,
                resume=args.resume,
                timeout=args.timeout,
                retries=args.retries,
            )
        except KeyboardInterrupt:
            print(
                f"\nbatch interrupted; completed shards are checkpointed — "
                f"resume with: repro-eba batch run {experiment_id} --resume",
                file=sys.stderr,
            )
            raise
        elapsed = time.perf_counter() - start
        print(result.render())
        batch = result.data.get("batch", {})
        print(
            f"(batch {batch.get('key', '?')}: {batch.get('shards', '?')} "
            f"shards, {batch.get('resumed', 0)} resumed, "
            f"{batch.get('workers', '?')} workers, took {elapsed:.1f}s)"
        )
        print()
        if not result.ok:
            failures += 1
    return 1 if failures else 0


def _cmd_serve(args) -> int:
    """Run the long-lived knowledge-query daemon (repro.serve)."""
    from .serve.queue import QueryBudget
    from .serve.server import ServeConfig, run_server

    budget = QueryBudget.resolve(args.max_points, args.timeout)
    config = ServeConfig(
        socket_path=None if args.port is not None else args.socket,
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_queue=args.max_queue,
        budget=budget,
        journal_path=args.journal,
        debug=args.debug,
    )
    return run_server(config)


def _parse_catalog_ref(spec: str) -> Dict[str, str]:
    """``E4/common-exists1`` -> the wire catalog reference."""
    if "/" not in spec:
        raise ReproError(
            f"bad --catalog spec {spec!r}; expected EXPERIMENT/FORMULA "
            f"(e.g. E4/common-exists1)"
        )
    experiment, _, formula = spec.partition("/")
    return {
        "experiment": normalize_experiment_id(experiment),
        "formula": formula,
    }


def _query_params(args) -> Dict[str, object]:
    """The wire ``params`` object for one ``repro-eba query`` invocation."""
    import json as json_module

    op = args.query_op
    params: Dict[str, object] = {}
    if op in ("stats", "healthz"):
        return params
    if op == "monitor":
        if not args.config:
            raise ReproError("query monitor needs --config")
        params = {
            "mode": args.mode or "crash",
            "n": args.n if args.n is not None else 3,
            "t": args.t if args.t is not None else 1,
            "config": args.config,
            "rounds": args.rounds,
        }
        if args.crash:
            params["crash"] = args.crash
        if args.omit:
            params["omit"] = args.omit
        if args.recv_omit:
            params["recv_omit"] = args.recv_omit
        if args.value is not None:
            params["value"] = args.value
        return params
    if op == "extend":
        if args.horizon is None:
            raise ReproError("query extend needs --horizon")
        return {
            "mode": args.mode or "crash",
            "n": args.n if args.n is not None else 3,
            "t": args.t if args.t is not None else 1,
            "horizon": args.horizon,
        }
    # eval / explain
    if args.catalog:
        params["catalog"] = _parse_catalog_ref(args.catalog)
    if op == "eval" and args.formula:
        try:
            params["formula"] = json_module.loads(args.formula)
        except ValueError as error:
            raise ReproError(
                f"--formula is not valid JSON: {error}"
            ) from None
    if op == "eval" and not params:
        raise ReproError("query eval needs --catalog or --formula")
    if op == "explain" and "catalog" not in params:
        raise ReproError("query explain needs --catalog")
    for name in ("mode", "n", "t", "horizon"):
        value = getattr(args, name)
        if value is not None and not (op == "explain" and name in
                                      ("mode", "horizon")):
            params[name] = value
    if args.point:
        params["point"] = list(_parse_point(args.point))
    return params


def _cmd_query(args) -> int:
    """One knowledge query — against a live daemon, or in-process.

    With a reachable daemon on ``--socket`` (or ``--port``) the query
    goes over the wire; otherwise it falls back to the same
    :class:`~repro.serve.session.QueryEngine` in-process (identical code
    path, so verdicts match byte for byte).  ``--local`` forces the
    fallback, ``--remote`` forbids it.
    """
    import json as json_module

    from .serve.client import ServeClient, ServeError, daemon_available

    op = args.query_op
    try:
        params = _query_params(args)
    except ReproError as error:
        print(f"repro-eba: {error}", file=sys.stderr)
        return 2

    def show(obj) -> None:
        print(json_module.dumps(obj, indent=2, sort_keys=True))

    use_daemon = not args.local and daemon_available(
        None if args.port is not None else args.socket,
        host=args.host,
        port=args.port,
    )
    if args.remote and not use_daemon:
        print(
            f"no daemon reachable at "
            f"{args.socket if args.port is None else args.port} "
            f"(--remote forbids the in-process fallback)",
            file=sys.stderr,
        )
        return 2
    if use_daemon:
        try:
            with ServeClient(
                None if args.port is not None else args.socket,
                host=args.host,
                port=args.port,
            ) as client:
                if op == "monitor":
                    for frame in client.stream(op, **params):
                        show(frame)
                else:
                    show(client.request(op, **params))
        except ServeError as error:
            print(f"query failed: {error}", file=sys.stderr)
            return 1
        return 0
    # In-process fallback: a cold path by definition — build what the
    # query needs directly, no fork-pool.
    from .serve.queue import BudgetExceeded, QueryBudget
    from .serve.session import QueryEngine

    if op in ("stats", "healthz"):
        print(
            "stats/healthz need a live daemon (start one with "
            "`repro-eba serve`)",
            file=sys.stderr,
        )
        return 2
    engine = QueryEngine(
        budget=QueryBudget.resolve(args.max_points, args.timeout),
        fork_policy="never",
    )
    try:
        result = engine.execute(op, params, emit=show)
        show(result)
    except (BudgetExceeded, ReproError, KeyError) as error:
        message = error.args[0] if error.args else str(error)
        print(f"query failed: {message}", file=sys.stderr)
        return 1
    finally:
        engine.close()
    return 0


def main(argv: List[str] = None) -> int:
    """Top-level entry point with interrupt hardening.

    A ``KeyboardInterrupt`` anywhere below is caught here: partial
    instrumentation is flushed to stderr (and buffered spans to
    ``REPRO_INTERRUPT_TRACE`` if set) before exiting with the
    conventional SIGINT status 130.
    """
    try:
        return _dispatch(argv)
    except KeyboardInterrupt:
        return _handle_interrupt()


def _handle_interrupt() -> int:
    import os

    from . import obs, trace

    print("\ninterrupted (SIGINT)", file=sys.stderr)
    summary = obs.format_summary()
    if summary:
        print("partial instrumentation:", file=sys.stderr)
        print(summary, file=sys.stderr)
    spans = trace.collect()
    out = os.environ.get("REPRO_INTERRUPT_TRACE")
    if out and spans:
        try:
            trace.write_jsonl(spans, out)
            print(f"flushed {len(spans)} span(s) to {out}", file=sys.stderr)
        except OSError as error:
            print(f"could not flush spans to {out}: {error}", file=sys.stderr)
    elif spans:
        print(
            f"{len(spans)} span(s) buffered; set REPRO_INTERRUPT_TRACE=PATH "
            "to dump them on interrupt",
            file=sys.stderr,
        )
    return 130


def _batch_ids_help(argv: List[str]) -> str:
    """Help for ``batch``'s ids, naming the experiments with a batch plan.

    Only a ``batch`` command line can print it, so only that one pays for
    importing the plan registry's tasks.
    """
    text = "experiment ids with batch plans"
    if not argv or argv[0] != "batch":
        return text
    from .exec.plan import wired_plans

    return f"{text} ({', '.join(wired_plans())})"


def _dispatch(argv: List[str] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = argparse.ArgumentParser(
        prog="repro-eba",
        description=(
            "Reproduction harness for 'A Characterization of Eventual "
            "Byzantine Agreement' (Halpern, Moses & Waarts, PODC 1990)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="show the experiment index")
    run_parser = subparsers.add_parser("run", help="run experiments")
    run_parser.add_argument("ids", nargs="*", help="experiment ids (E1..E21)")
    run_parser.add_argument(
        "--all", action="store_true", help="run every experiment"
    )
    run_parser.add_argument(
        "--skip", nargs="*", default=[], help="experiment ids to skip"
    )
    run_parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the results as JSON to PATH",
    )
    run_parser.add_argument(
        "--stats", action="store_true",
        help="print instrumentation totals after the run",
    )
    subparsers.add_parser("protocols", help="show the protocol registry")
    stats_parser = subparsers.add_parser(
        "stats", help="show instrumentation and system-cache state"
    )
    stats_parser.add_argument(
        "--clear", action="store_true",
        help="clear the in-memory and on-disk system caches",
    )
    stats_parser.add_argument(
        "--json", action="store_true",
        help="emit the stats as JSON (obs.snapshot() shape)",
    )
    trace_parser = subparsers.add_parser(
        "trace", help="run experiments and export a span trace"
    )
    trace_parser.add_argument(
        "action", choices=["run"], help="only 'run' is defined"
    )
    trace_parser.add_argument(
        "trace_ids", nargs="+", metavar="ID", help="experiment ids"
    )
    trace_parser.add_argument(
        "--out", default="trace.json", metavar="PATH",
        help="output file (default trace.json)",
    )
    trace_parser.add_argument(
        "--format", default="chrome", choices=["chrome", "jsonl"],
        help="chrome trace-event JSON (Perfetto-loadable) or raw JSONL",
    )
    explain_parser = subparsers.add_parser(
        "explain", help="explain a knowledge verdict with checkable evidence"
    )
    explain_parser.add_argument("experiment", help="experiment id, e.g. E4")
    explain_parser.add_argument(
        "formula", nargs="?", default=None,
        help="catalog formula key (omit to list them)",
    )
    explain_parser.add_argument(
        "--point", default=None, metavar="RUN:TIME",
        help="point to explain (default: first failing point)",
    )
    explain_parser.add_argument("-n", type=int, default=3)
    explain_parser.add_argument("-t", type=int, default=1)
    bench_parser = subparsers.add_parser(
        "bench-compare", help="diff micro-bench snapshots for regressions"
    )
    bench_parser.add_argument(
        "snapshots", nargs="*", metavar="SNAPSHOT",
        help="two snapshot JSON files (or use --history)",
    )
    bench_parser.add_argument(
        "--history", default=None, metavar="PATH",
        help="JSONL history; compares its last two entries",
    )
    bench_parser.add_argument(
        "--threshold", type=float, default=0.25,
        help="slowdown fraction that counts as a regression (default 0.25)",
    )
    compare_parser = subparsers.add_parser(
        "compare", help="compare protocols over an exhaustive system"
    )
    compare_parser.add_argument("names", nargs="+", help="protocol names")
    compare_parser.add_argument("--mode", default="crash",
                                choices=["crash", "omission"])
    compare_parser.add_argument("-n", type=int, default=3)
    compare_parser.add_argument("-t", type=int, default=1)
    compare_parser.add_argument(
        "--stats", action="store_true",
        help="print instrumentation totals after the comparison",
    )
    diagram_parser = subparsers.add_parser(
        "diagram", help="draw one scenario's space-time diagram"
    )
    diagram_parser.add_argument("name", help="protocol name")
    diagram_parser.add_argument("--mode", default="crash",
                                choices=["crash", "omission"])
    diagram_parser.add_argument("-n", type=int, default=3)
    diagram_parser.add_argument("-t", type=int, default=1)
    diagram_parser.add_argument("--config", required=True,
                                help="initial values, e.g. 011")
    diagram_parser.add_argument("--crash", action="append", default=[],
                                metavar="P:K[:R1,R2]")
    diagram_parser.add_argument("--omit", action="append", default=[],
                                metavar="P:K:D1,D2")
    diagram_parser.add_argument(
        "--stats", action="store_true",
        help="print instrumentation totals after the diagram",
    )
    monitor_parser = subparsers.add_parser(
        "monitor",
        help="stream one scenario round by round with online K/E/C□ "
        "verdicts (one cached cell per round)",
    )
    monitor_parser.add_argument(
        "--mode", default="crash",
        choices=["crash", "omission", "receive-omission"],
    )
    monitor_parser.add_argument("-n", type=int, default=3)
    monitor_parser.add_argument("-t", type=int, default=1)
    monitor_parser.add_argument("--config", required=True,
                                help="initial values, e.g. 011")
    monitor_parser.add_argument("--crash", action="append", default=[],
                                metavar="P:K[:R1,R2]")
    monitor_parser.add_argument("--omit", action="append", default=[],
                                metavar="P:K:D1,D2")
    monitor_parser.add_argument(
        "--recv-omit", action="append", default=[], metavar="P:K:S1,S2",
        help="receive-omission: P misses round-K messages from S1,S2",
    )
    monitor_parser.add_argument(
        "--rounds", type=int, default=3,
        help="how many rounds to feed (default 3)",
    )
    monitor_parser.add_argument(
        "--value", type=int, default=1,
        help="monitor ∃value (default 1)",
    )
    monitor_parser.add_argument(
        "--journal", default=None, metavar="PATH",
        help="write one monitor_round telemetry event per round to PATH",
    )
    monitor_parser.add_argument(
        "--stats", action="store_true",
        help="print instrumentation totals after the session",
    )
    batch_parser = subparsers.add_parser(
        "batch",
        help="sharded, checkpointed experiment execution (repro.exec)",
    )
    batch_parser.add_argument(
        "batch_action", choices=["run", "status", "top"],
        help="run a batch, list checkpointed batches, or watch one live",
    )
    batch_parser.add_argument(
        "batch_ids", nargs="*", metavar="ID", help=_batch_ids_help(argv),
    )
    batch_parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes (default: REPRO_EXEC_WORKERS or min(4, cores))",
    )
    batch_parser.add_argument(
        "--resume", action="store_true",
        help="reuse checkpointed shards from a previous interrupted batch",
    )
    batch_parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-shard timeout (default: REPRO_EXEC_TIMEOUT or 600)",
    )
    batch_parser.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="retry budget per shard (default: REPRO_EXEC_RETRIES or 2)",
    )
    batch_parser.add_argument(
        "--param", action="append", default=[], metavar="KEY=VALUE",
        help="integer plan parameter override (repeatable), e.g. -t 2",
    )
    batch_parser.add_argument(
        "--stats", action="store_true",
        help="print instrumentation totals after the batch",
    )
    batch_parser.add_argument(
        "--once", action="store_true",
        help="batch top: print one frame and exit (scripting/CI)",
    )
    batch_parser.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="batch top: refresh interval (default 2.0)",
    )
    metrics_parser = subparsers.add_parser(
        "metrics",
        help="Prometheus text exposition of instrumentation metrics",
    )
    metrics_parser.add_argument(
        "--journal", default=None, metavar="PATH",
        help="fold a batch run's telemetry.jsonl instead of this "
        "process's (empty) totals",
    )
    metrics_parser.add_argument(
        "--socket", default=None, metavar="PATH",
        help="scrape a live serve daemon's healthz instead",
    )
    serve_parser = subparsers.add_parser(
        "serve",
        help="long-lived knowledge-query daemon (NDJSON over a unix "
        "socket; bounded queue, per-query budgets, streaming monitor)",
    )
    serve_parser.add_argument(
        "--socket", default=".repro_serve.sock", metavar="PATH",
        help="unix socket to listen on (default .repro_serve.sock)",
    )
    serve_parser.add_argument(
        "--port", type=int, default=None, metavar="N",
        help="listen on TCP instead of the unix socket",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="queries run at once (default 2)",
    )
    serve_parser.add_argument(
        "--max-queue", type=int, default=None, metavar="N",
        help="queries that may wait for a slot "
        "(default: REPRO_SERVE_MAX_QUEUE or 64)",
    )
    serve_parser.add_argument(
        "--max-points", type=int, default=None, metavar="N",
        help="per-query point budget "
        "(default: REPRO_SERVE_MAX_POINTS or 4000000)",
    )
    serve_parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-query wall budget (default: REPRO_SERVE_TIMEOUT or 120)",
    )
    serve_parser.add_argument(
        "--journal", default=None, metavar="PATH",
        help="write one serve_request telemetry event per request to PATH",
    )
    serve_parser.add_argument(
        "--debug", action="store_true",
        help="admit the debug_sleep op (tests and benchmarks)",
    )
    query_parser = subparsers.add_parser(
        "query",
        help="one knowledge query, against a live daemon when reachable "
        "(in-process fallback otherwise)",
    )
    query_parser.add_argument(
        "query_op",
        choices=["eval", "explain", "extend", "monitor", "stats", "healthz"],
        help="request type",
    )
    query_parser.add_argument(
        "--socket", default=".repro_serve.sock", metavar="PATH",
        help="daemon unix socket (default .repro_serve.sock)",
    )
    query_parser.add_argument("--port", type=int, default=None, metavar="N")
    query_parser.add_argument("--host", default="127.0.0.1")
    query_parser.add_argument(
        "--local", action="store_true",
        help="skip the daemon; evaluate in-process",
    )
    query_parser.add_argument(
        "--remote", action="store_true",
        help="require the daemon; fail instead of falling back",
    )
    query_parser.add_argument(
        "--catalog", default=None, metavar="EXP/FORMULA",
        help="explain-catalog reference, e.g. E4/common-exists1",
    )
    query_parser.add_argument(
        "--formula", default=None, metavar="JSON",
        help='formula AST, e.g. \'{"kind": "exists", "value": 1}\'',
    )
    query_parser.add_argument(
        "--mode", default=None,
        choices=["crash", "omission", "receive-omission",
                 "general-omission"],
    )
    query_parser.add_argument("-n", type=int, default=None)
    query_parser.add_argument("-t", type=int, default=None)
    query_parser.add_argument("--horizon", type=int, default=None)
    query_parser.add_argument(
        "--point", default=None, metavar="RUN:TIME",
        help="also report whether the formula holds at this point",
    )
    query_parser.add_argument(
        "--config", default=None, help="monitor: initial values, e.g. 011"
    )
    query_parser.add_argument("--crash", action="append", default=[],
                              metavar="P:K[:R1,R2]")
    query_parser.add_argument("--omit", action="append", default=[],
                              metavar="P:K:D1,D2")
    query_parser.add_argument("--recv-omit", action="append", default=[],
                              metavar="P:K:S1,S2")
    query_parser.add_argument("--rounds", type=int, default=3)
    query_parser.add_argument("--value", type=int, default=None)
    query_parser.add_argument(
        "--max-points", type=int, default=None, metavar="N",
        help="in-process fallback: point budget override",
    )
    query_parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="in-process fallback: wall budget override",
    )
    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "protocols":
        return _cmd_protocols()
    if args.command == "stats":
        return _cmd_stats(args.clear, args.json)
    if args.command == "trace":
        return _cmd_trace(args.trace_ids, args.out, args.format)
    if args.command == "explain":
        return _cmd_explain(
            args.experiment, args.formula, args.point, args.n, args.t
        )
    if args.command == "bench-compare":
        return _cmd_bench_compare(
            args.snapshots, args.history, args.threshold
        )
    if args.command == "metrics":
        return _cmd_metrics(args.journal, args.socket)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "query":
        return _cmd_query(args)
    if args.command == "batch":
        status = _cmd_batch(args)
    elif args.command == "compare":
        status = _cmd_compare(args.names, args.mode, args.n, args.t)
    elif args.command == "diagram":
        status = _cmd_diagram(
            args.name, args.mode, args.n, args.t, args.config,
            args.crash, args.omit,
        )
    elif args.command == "monitor":
        status = _cmd_monitor(
            args.mode, args.n, args.t, args.config, args.crash,
            args.omit, args.recv_omit, args.rounds, args.value,
            args.journal,
        )
    else:
        status = _cmd_run(args.ids, args.all, args.skip, args.json)
    if getattr(args, "stats", False):
        print()
        _print_stats()
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
