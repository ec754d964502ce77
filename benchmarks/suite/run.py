#!/usr/bin/env python3
"""Outside-in benchmark of the EBA model checker.

Measures the program the way its users run it — experiments through
``repro.experiments.registry.run_experiment``, sharded batches through
``repro.exec.plan_for`` + ``run_batch``, and knowledge queries against a
``repro-eba serve`` daemon through ``repro.serve.client.ServeClient`` —
and checks every answer against golden verdict digests::

    PYTHONPATH=src python benchmarks/suite/run.py --seed 1 --out result.json
    python3 benchmarks/suite/run.py --workload serve --seed 3 --seconds 10 --trace 0

Workloads (see README.md for why each exists):

* ``portfolio`` — every experiment except E9, one interpreter per pass;
* ``e9-mono`` / ``e9-batch`` — E9's omission cell through the monolithic
  and the sharded path (2 workers);
* ``serve`` — one closed-loop client sending a fixed, seeded stream of
  1,300 requests to a 2-worker daemon holding five resident cells.

Every timed pass runs in a fresh interpreter with its own
``REPRO_CACHE_DIR``; a warm pass reuses the directory its cold pass
wrote.  Inherited ``REPRO_*`` variables are dropped, so only the default
production paths are measured.  A workload repeats a fixed unit of work
until ``--seconds`` have passed, at least once however long: a cold/warm
pair of passes for the experiment workloads, a daemon restart plus the
whole request stream for ``serve``.  Time metrics are divided by the
machine's slowdown while the run was measured (:class:`SpeedSampler`).
``--trace 1`` replaces the end-to-end metrics by the per-layer metrics
of traced passes (see layers.py).

The last line printed is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is non-zero when any
operation failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

SUITE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(SUITE))
SRC = os.path.join(ROOT, "src")
PASSES = os.path.join(SUITE, "passes.py")
BENCHMARK_PATH = os.path.join(ROOT, "BENCHMARK.json")
WORK_ROOT = os.path.join(SUITE, ".bench_work")
if SUITE not in sys.path:
    sys.path.insert(0, SUITE)

from golden import E9_CELL, load_golden  # noqa: E402
from layers import LAYERS, Recorder, empty_summary  # noqa: E402

WORKLOADS = ("portfolio", "e9-mono", "e9-batch", "serve")
#: Pool workers and daemon worker threads, so no pass needs more than
#: two cores.
WORKERS = 2
#: Seconds between two samples of the machine's speed.
SPEED_PERIOD = 0.25
#: Median CPU seconds of ``passes.reference_loop`` on the machine the
#: baseline in README.md was measured on, in a quiet period.
REFERENCE_S = 0.002
#: Interpreter start-ups timed per run for setup_s, in groups of
#: PROBE_GROUP between passes.
SETUP_PROBES = 6
PROBE_GROUP = 3
#: Warm daemon bring-ups timed per run for the serve workload's setup_s.
DAEMON_RESTARTS = 3
PASS_TIMEOUT = 170.0

#: The daemon's resident cells: (mode, n, t, horizon), 896–28,928 points.
SERVE_CELLS = (
    ("crash", 3, 1, 3),
    ("crash", 4, 1, 3),
    ("crash", 5, 1, 3),
    ("omission", 3, 1, 3),
    ("omission", 4, 1, 2),
)
#: Requests in the serve workload's seeded stream: the fewest whose
#: fresh share (80 %) keeps ten samples beyond the p99.
REQUESTS = 1300
#: Catalog entries repeated on the catalog's default cell (crash n=3).
REPEAT_REFS = (
    ("E4", "common-exists1"),
    ("E4", "continual-exists1"),
    ("E4", "continual-exists1-fixpoint"),
    ("E4", "everyone-exists1"),
    ("E21", "eventual-exists1"),
    ("E21", "knows0-exists1"),
)
#: Every REPEAT_EVERY-th request repeats a catalog entry (20 %).
REPEAT_EVERY = 5
#: Every VERIFY_EVERY-th fresh answer is recomputed in-process.
VERIFY_EVERY = 10
FORMULA_DEPTH = 3
LEAF_KINDS = ("true", "false", "exists", "all_started", "is_nonfaulty", "initial_value_is")
INNER_KINDS = (
    "not", "and", "or", "implies", "knows", "everyone", "common",
    "continual_common", "eventual_common", "always", "eventually",
)
FORMULA_KINDS = LEAF_KINDS + INNER_KINDS


# -- shared plumbing ----------------------------------------------------------


def clean_env(cache_dir: str) -> Dict[str, str]:
    """The environment of every pass: no inherited REPRO_* knobs, and a
    fixed hash seed so set and dict layouts repeat from run to run."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + inherited if inherited else "")
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_CACHE_DIR"] = cache_dir
    return env


def tail_percentile(values: List[float], minimum_beyond: int = 10) -> Optional[Tuple[int, float]]:
    """The highest of p99/p95/p90/p75/p50 with at least *minimum_beyond*
    samples above it (nearest rank), as ``(percentile, value)``."""
    ordered = sorted(values)
    for percentile in (99, 95, 90, 75, 50):
        rank = max(1, math.ceil(percentile / 100 * len(ordered)))
        if len(ordered) - rank >= minimum_beyond:
            return percentile, ordered[rank - 1]
    return None


def peak_rss_mb() -> float:
    """Largest single child process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def compile_sources() -> None:
    """Write the bytecode of the program and the passes before timing, so
    no timed interpreter pays for compiling a module the first time."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", SRC, SUITE],
        cwd=ROOT, stdout=subprocess.DEVNULL, timeout=PASS_TIMEOUT, check=False,
    )


class SpeedSampler:
    """How fast the machine runs while a workload is measured.

    A ``speed`` pass samples the CPU time of a fixed pure-Python loop
    every :data:`SPEED_PERIOD` seconds (about 1 % of one core).  A
    shared machine's speed drifts — by up to 1.7× over tens of minutes
    where the baseline was measured — alike for interpreter start-up,
    object-graph builds, numpy shards and socket round trips.
    :meth:`stop` returns the
    run's median loop time over :data:`REFERENCE_S`, by which every time
    metric is divided, so drift of the machine cancels and a change to
    the program does not (the loop never touches it).
    """

    def __init__(self, ctx: "Context") -> None:
        stem = ctx.path("speed")
        self.out = stem + ".out.json"
        with open(stem + ".spec.json", "w", encoding="utf-8") as handle:
            json.dump({"kind": "speed", "period": SPEED_PERIOD, "out": self.out}, handle)
        self.log = open(stem + ".log", "wb")
        self.process = subprocess.Popen(
            [sys.executable, PASSES, stem + ".spec.json"],
            cwd=ROOT, env=clean_env(ctx.workdir), stdin=subprocess.PIPE,
            stdout=self.log, stderr=subprocess.STDOUT,
        )

    def stop(self) -> Optional[float]:
        """Stop sampling; the run's slowdown against the reference, or None."""
        try:
            self.process.stdin.close()
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            return None
        finally:
            self.log.close()
        if self.process.returncode != 0:
            return None
        with open(self.out, encoding="utf-8") as handle:
            samples = json.load(handle)["samples"]
        return statistics.median(samples) / REFERENCE_S


class Context:
    """One workload run: its work directory, counts and pass launcher."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        os.makedirs(WORK_ROOT, exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT)
        self.golden = load_golden()
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.missing_hooks: List[str] = []
        self._serial = 0

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        self.errors.append(why)

    def path(self, stem: str) -> str:
        self._serial += 1
        return os.path.join(self.workdir, f"{self._serial:03d}-{stem}")

    def new_cache(self) -> str:
        path = self.path("cache")
        os.makedirs(path)
        return path

    def spawn_pass(self, spec: Dict[str, Any], cache_dir: str) -> Optional[Dict[str, Any]]:
        """Run one pass in a fresh interpreter; its result, or None."""
        stem = self.path(spec["kind"])
        spec = dict(spec, out=stem + ".out.json")
        with open(stem + ".spec.json", "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        with open(stem + ".log", "wb") as log:
            spawned = time.monotonic()
            try:
                process = subprocess.run(
                    [sys.executable, PASSES, stem + ".spec.json"],
                    cwd=ROOT,
                    env=clean_env(cache_dir),
                    stdout=log,
                    stderr=subprocess.STDOUT,
                    timeout=PASS_TIMEOUT,
                )
            except subprocess.TimeoutExpired:
                self.errors.append(f"{spec['kind']} pass timed out")
                return None
        if process.returncode != 0:
            with open(stem + ".log", encoding="utf-8", errors="replace") as log:
                tail = log.read()[-2000:]
            self.errors.append(f"{spec['kind']} pass exited {process.returncode}: {tail}")
            return None
        with open(spec["out"], encoding="utf-8") as handle:
            result = json.load(handle)
        result["spawned_at"] = spawned
        return result

    def setup_probe(self) -> Optional[float]:
        """Seconds from spawning an interpreter to its imports being done."""
        self.attempted += 1
        result = self.spawn_pass({"kind": "imports"}, self.workdir)
        if result is None:
            self.fail(1, "import probe failed")
            return None
        return result["imported_at"] - result["spawned_at"]


# -- experiment workloads -----------------------------------------------------


#: Experiments the portfolio leaves out.  E9 has workloads of its own.
#: E14 is itself a timing ablation: five object-graph builds that
#: bypass the cache, the cost e9-mono's cold pass measures on a larger
#: cell, and over half of a portfolio pass.
NOT_IN_PORTFOLIO = ("E9", "E14")


def portfolio_calls() -> List[Dict[str, Any]]:
    """The portfolio's experiments, in index order.

    The experiments have no random inputs, so the seed plays no part
    here; a seeded order would only move cells in and out of the
    provider's memory cache and widen the run-to-run spread.
    """
    return [
        {"id": eid, "params": {}} for eid in load_golden() if eid not in NOT_IN_PORTFOLIO
    ]


def e9_calls(batch: bool) -> List[Dict[str, Any]]:
    return [{"id": "E9", "params": dict(E9_CELL), "batch": batch}]


def run_calls(
    ctx: Context, calls: List[Dict[str, Any]], cache: str, traced: bool = False
) -> Optional[Dict[str, Any]]:
    """One timed pass over *calls*; every call is checked against golden."""
    spec = {"kind": "experiments", "calls": calls, "traced": traced, "workers": WORKERS}
    result = ctx.spawn_pass(spec, cache)
    ctx.attempted += len(calls)
    if result is None:
        ctx.fail(len(calls), "pass did not complete")
        return None
    for call in result["calls"]:
        if not call["ok"]:
            ctx.fail(1, f"{call['id']}: ok false {call.get('error', '')}")
        elif call["digest"] != ctx.golden[call["id"]]:
            ctx.fail(1, f"{call['id']}: table digest differs from golden")
    if len(result["calls"]) != len(calls) or ctx.failed:
        return None
    return result


def experiment_workload(ctx: Context, calls: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Cold/warm pairs of passes for --seconds (at least one pair).

    Import probes run in groups of :data:`PROBE_GROUP` before passes,
    topped up after the last one, so set-up samples are spread over the
    run.
    """
    if ctx.trace:
        return traced_experiments(ctx, calls)
    setups: List[Optional[float]] = []

    def probe_group() -> None:
        for _ in range(min(PROBE_GROUP, SETUP_PROBES - len(setups))):
            setups.append(ctx.setup_probe())

    cold_walls: List[float] = []
    warm_walls: List[float] = []
    began = time.monotonic()
    while time.monotonic() - began < ctx.seconds or not warm_walls:
        cache = ctx.new_cache()
        walls = []
        for _ in ("cold", "warm"):
            probe_group()
            result = run_calls(ctx, calls, cache)
            if result is None:
                return {}
            walls.append(result["wall_s"])
        cold_walls.append(walls[0])
        warm_walls.append(walls[1])
    while len(setups) < SETUP_PROBES:
        probe_group()
    if None in setups:
        return {}
    return {
        "metrics": {
            "setup_s": (statistics.median(setups), len(setups)),
            "cold_s": (statistics.median(cold_walls), len(cold_walls)),
            "warm_s": (statistics.median(warm_walls), len(warm_walls)),
            "peak_rss_mb": (peak_rss_mb(), 1),
        },
        "details": {"cold_walls_s": cold_walls, "warm_walls_s": warm_walls},
    }


def traced_experiments(ctx: Context, calls: List[Dict[str, Any]]) -> Dict[str, Any]:
    """A traced cold pass, then untraced/traced warm pairs for --seconds
    (at least one) to price the hooks."""
    began = time.monotonic()
    cache = ctx.new_cache()
    traced = [run_calls(ctx, calls, cache, traced=True)]
    untraced_warm: List[float] = []
    while traced[-1] and (time.monotonic() - began < ctx.seconds or not untraced_warm):
        warm = run_calls(ctx, calls, cache)
        traced.append(warm and run_calls(ctx, calls, cache, traced=True))
        if warm:
            untraced_warm.append(warm["wall_s"])
    if not all(traced):
        return {}
    traces = [result["trace"] for result in traced]
    for trace in traces:
        ctx.missing_hooks.extend(trace["missing"])
    iterations = [trace["fixpoint_iterations"] for trace in traces]
    if None in iterations:
        ctx.missing_hooks.append("repro.obs:snapshot[counters][fixpoint_iterations]")
    pool = {key: sum(trace["pool"][key] for trace in traces) for key in traces[0]["pool"]}
    traced_warm = [result["wall_s"] for result in traced[1:]]
    return {
        "per_layer": layer_metrics(
            merge_summaries([trace["summary"] for trace in traces]),
            traced_wall=sum(result["wall_s"] for result in traced),
            overhead=statistics.median(traced_warm) / statistics.median(untraced_warm) - 1.0,
            iterations=sum(i for i in iterations if i is not None),
            pool=pool,
        )
    }


def merge_summaries(summaries: List[Dict[str, Any]]) -> Dict[str, Any]:
    merged = empty_summary()
    for summary in summaries:
        for layer, entry in summary["layers"].items():
            for key, value in entry.items():
                merged["layers"][layer][key] += value
        for key in ("outer_s", "cache_hits", "cache_lookups"):
            merged[key] += summary[key]
    return merged


def layer_metrics(
    summary: Dict[str, Any],
    *,
    traced_wall: float,
    overhead: float,
    iterations: int,
    pool: Optional[Dict[str, float]] = None,
    requests: Optional[List[Tuple[float, float]]] = None,
) -> Dict[str, float]:
    """Per-layer metrics from one workload's traced spans.

    Self times are seconds of the traced wall.  For ``serve``,
    *requests* holds each traced request's ``(round trip, execute)``
    seconds: the wire layer is the round trip not covered by the
    daemon's spans.
    """
    layers = summary["layers"]
    metrics: Dict[str, float] = {"trace.wall_s": traced_wall}
    attributed = 0.0
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layers[layer]["self_s"]
        attributed += layers[layer]["self_s"]
    wire_s = traced_wall - summary["outer_s"] if requests else 0.0
    metrics["serve.wire.self_s"] = wire_s
    attributed += wire_s
    metrics["unattributed_share"] = 100.0 * (traced_wall - attributed) / traced_wall
    metrics["trace.overhead_share"] = 100.0 * overhead
    metrics["model.system.calls"] = layers["model.system"]["calls"]
    metrics["io.system_codec.calls"] = layers["io.system_codec"]["calls"]
    metrics["io.system_codec.bytes"] = layers["io.system_codec"]["bytes"]
    metrics["knowledge.fixpoint.iterations"] = iterations
    lookups = summary["cache_lookups"]
    metrics["knowledge.formula_cache.hit_ratio"] = (
        summary["cache_hits"] / lookups if lookups else 0.0
    )
    provider = layers["model.provider"]
    metrics["model.provider.hit_ratio"] = (
        provider["leaf_calls"] / provider["calls"] if provider["calls"] else 0.0
    )
    pool = pool or {"shards": 0, "busy_s": 0.0, "retries": 0, "batch_s": 0.0}
    metrics["exec.pool.shards"] = pool["shards"]
    metrics["exec.pool.busy_s"] = pool["busy_s"]
    metrics["exec.pool.busy_share"] = (
        100.0 * pool["busy_s"] / (pool["batch_s"] * WORKERS) if pool["batch_s"] else 0.0
    )
    metrics["exec.pool.retries"] = pool["retries"]
    requests = requests or []
    metrics["serve.session.execute_p50_ms"] = (
        1e3 * statistics.median(execute for _, execute in requests) if requests else 0.0
    )
    metrics["serve.wire.p50_ms"] = (
        1e3 * statistics.median(rtt - execute for rtt, execute in requests) if requests else 0.0
    )
    return metrics


# -- serve workload -----------------------------------------------------------


class Traffic:
    """The seeded request stream of the serve workload.

    Every fifth request repeats a random catalog entry, which the
    formula cache answers.  The others are fresh formulas, never sent
    before, cycling through the five cells and every formula kind at the
    root so each seed sends the same mix; subtrees are random, depth at
    most 3.
    """

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.sent: set = set()
        self.count = 0
        self.fresh = 0

    def next(self) -> Tuple[str, str, Dict[str, Any]]:
        """``(kind, key, eval params)`` of the next request."""
        self.count += 1
        if self.count % REPEAT_EVERY == 0:
            experiment, formula = self.rng.choice(REPEAT_REFS)
            return "repeat", f"{experiment}/{formula}", {
                "catalog": {"experiment": experiment, "formula": formula}
            }
        mode, n, t, horizon = SERVE_CELLS[self.fresh % len(SERVE_CELLS)]
        root = FORMULA_KINDS[(self.fresh // len(SERVE_CELLS)) % len(FORMULA_KINDS)]
        self.fresh += 1
        while True:
            spec = self.formula(1, n, root)
            key = json.dumps([mode, n, t, horizon, spec], sort_keys=True)
            if key not in self.sent:
                break
            root = self.rng.choice(FORMULA_KINDS)
        self.sent.add(key)
        return "fresh", key, {
            "mode": mode, "n": n, "t": t, "horizon": horizon, "formula": spec,
        }

    def formula(self, depth: int, n: int, kind: Optional[str] = None) -> Dict[str, Any]:
        rng = self.rng
        if kind is None:
            kind = rng.choice(LEAF_KINDS if depth >= FORMULA_DEPTH else FORMULA_KINDS)
        spec: Dict[str, Any] = {"kind": kind}
        if kind in LEAF_KINDS:
            if kind in ("exists", "all_started", "initial_value_is"):
                spec["value"] = rng.randint(0, 1)
            if kind in ("is_nonfaulty", "initial_value_is"):
                spec["processor"] = rng.randrange(n)
            return spec
        if kind in ("and", "or"):
            count = rng.randint(2, 3)
            return {"kind": kind, "operands": [self.formula(depth + 1, n) for _ in range(count)]}
        if kind == "implies":
            return {
                "kind": kind,
                "antecedent": self.formula(depth + 1, n),
                "consequent": self.formula(depth + 1, n),
            }
        spec["of"] = self.formula(depth + 1, n)
        if kind == "knows":
            spec["processor"] = rng.randrange(n)
        return spec


def request_stream(seed: int) -> List[Tuple[str, str, Dict[str, Any]]]:
    """The :data:`REQUESTS` requests every round of a run sends."""
    traffic = Traffic(seed)
    return [traffic.next() for _ in range(REQUESTS)]


class Daemon:
    """A ``repro-eba serve`` process on a unix socket in the work dir."""

    def __init__(self, ctx: Context, cache: str, traced: bool = False) -> None:
        stem = ctx.path("daemon")
        # Relative to the checkout root (this process's cwd): unix socket
        # paths are limited to 107 bytes.
        self.socket = os.path.relpath(stem + ".sock", ROOT)
        argv = ["serve", "--socket", self.socket, "--workers", str(WORKERS)]
        self.trace_out: Optional[str] = None
        if traced:
            self.trace_out = stem + ".trace.json"
            with open(stem + ".spec.json", "w", encoding="utf-8") as handle:
                json.dump({"kind": "daemon", "argv": argv, "out": self.trace_out}, handle)
            command = [sys.executable, PASSES, stem + ".spec.json"]
        else:
            command = [sys.executable, "-m", "repro.cli", *argv]
        self.log = open(stem + ".log", "wb")
        self.spawned = time.monotonic()
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=clean_env(cache), stdout=self.log, stderr=subprocess.STDOUT
        )

    def bring_up(self) -> float:
        """Seconds from spawn until every cell is resident in memory.

        A cell is resident once an eval on it runs inline; the first eval
        on a cell that is not in memory or on disk forks a build.
        """
        from repro.serve.client import ServeClient, daemon_available

        deadline = self.spawned + PASS_TIMEOUT
        while not daemon_available(self.socket, timeout=1.0):
            if self.process.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("daemon did not come up")
            time.sleep(0.01)
        with ServeClient(self.socket) as client:
            for mode, n, t, horizon in SERVE_CELLS:
                while client.request(
                    "eval", mode=mode, n=n, t=t, horizon=horizon, formula={"kind": "true"}
                )["placement"] != "inline":
                    pass
        return time.monotonic() - self.spawned

    def stop(self) -> int:
        """SIGTERM (graceful drain) and wait; the exit status."""
        try:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGTERM)
            try:
                return self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
                return -9
        finally:
            self.log.close()


def warm_up(client) -> Dict[str, str]:
    """First answers of the repeated entries, and each cell's indexes built."""
    firsts = {}
    for experiment, formula in REPEAT_REFS:
        result = client.request("eval", catalog={"experiment": experiment, "formula": formula})
        firsts[f"{experiment}/{formula}"] = result["digest"]
    for mode, n, t, horizon in SERVE_CELLS:
        client.request(
            "eval", mode=mode, n=n, t=t, horizon=horizon,
            formula={"kind": "knows", "processor": 0, "of": {"kind": "exists", "value": 1}},
        )
    return firsts


def send(ctx: Context, client, params: Dict[str, Any]) -> Tuple[float, Optional[Dict[str, Any]]]:
    """One timed eval round trip: ``(seconds, result or None)``."""
    from repro.serve.client import ServeError

    ctx.attempted += 1
    began = time.perf_counter()
    try:
        result = client.request("eval", **params)
    except ServeError as error:
        ctx.fail(1, f"eval failed: {error}")
        return time.perf_counter() - began, None
    return time.perf_counter() - began, result


def closed_loop(
    ctx: Context, daemon: Daemon, stream: List[Tuple[str, str, Dict[str, Any]]]
) -> Tuple[List[Dict[str, Any]], float]:
    """One client sends *stream*, each request after the previous answer;
    the samples and the phase's wall seconds."""
    from repro.serve.client import ServeClient

    samples = []
    with ServeClient(daemon.socket) as client:
        firsts = warm_up(client)
        began = time.monotonic()
        for kind, key, params in stream:
            seconds, result = send(ctx, client, params)
            if result is None:
                samples.append(None)
                continue
            if kind == "repeat" and result["digest"] != firsts[key]:
                ctx.fail(1, f"repeat {key} answered differently")
            samples.append(
                {
                    "kind": kind,
                    "params": params,
                    "rtt_s": seconds,
                    "execute_s": result["seconds"],
                    "digest": result["digest"],
                }
            )
        return samples, time.monotonic() - began


def serve_workload(ctx: Context) -> Dict[str, Any]:
    """A cold bring-up that builds the cells, then warm restarts: the
    first ones only time the bring-up, each later one also answers the
    whole request stream, until --seconds have passed (at least once)."""
    from repro.errors import ReproError

    cache = ctx.new_cache()
    stream = request_stream(ctx.seed)
    daemons: List[Daemon] = []

    def start(traced: bool = False) -> Tuple[Daemon, float]:
        daemon = Daemon(ctx, cache, traced)
        daemons.append(daemon)
        return daemon, daemon.bring_up()

    def stop(daemon: Daemon) -> None:
        status = daemon.stop()
        ctx.attempted += 1
        if status != 0:
            ctx.fail(1, f"daemon exited with status {status}")

    bringups: List[float] = []
    rounds: List[List[Optional[Dict[str, Any]]]] = []
    phases: List[float] = []
    try:
        daemon, cold_bringup = start()
        stop(daemon)
        for _ in range(0 if ctx.trace else DAEMON_RESTARTS - 1):
            daemon, seconds = start()
            bringups.append(seconds)
            stop(daemon)
        began = time.monotonic()
        while not rounds or (not ctx.trace and time.monotonic() - began < ctx.seconds):
            daemon, seconds = start()
            bringups.append(seconds)
            samples, phase_s = closed_loop(ctx, daemon, stream)
            stop(daemon)
            rounds.append(samples)
            phases.append(phase_s)
        per_layer = None
        if ctx.trace:
            traced, _ = start(traced=True)
            per_layer = traced_replay(ctx, traced, stream, rounds[0])
        verify(ctx, cache, rounds)
    except (ReproError, OSError, RuntimeError) as error:
        ctx.fail(1, f"serve workload aborted: {error!r}")
        return {}
    finally:
        for daemon in daemons:
            if daemon.process.poll() is None:
                daemon.stop()
    if ctx.trace:
        return {"per_layer": per_layer} if per_layer else {}
    answered = [s for samples in rounds for s in samples if s is not None]
    fresh = [s["rtt_s"] for s in answered if s["kind"] == "fresh"]
    repeat = [s["rtt_s"] for s in answered if s["kind"] == "repeat"]
    if not fresh or not repeat:
        ctx.fail(1, "no fresh or no repeat samples")
        return {}
    tail = tail_percentile(fresh)
    return {
        "metrics": {
            "setup_s": (statistics.median(bringups), len(bringups)),
            "cold_s": (statistics.median(fresh), len(fresh)),
            "warm_s": (statistics.median(repeat), len(repeat)),
            "peak_rss_mb": (peak_rss_mb(), 1),
        },
        "details": {
            "rounds": len(rounds),
            "fresh_p50_ms": 1e3 * statistics.median(fresh),
            "fresh_tail": {"percentile": tail[0], "ms": 1e3 * tail[1]} if tail else None,
            "repeat_p50_ms": 1e3 * statistics.median(repeat),
            "qps": len(answered) / sum(phases),
            "cold_bringup_s": cold_bringup,
            "execute_p50_ms": 1e3 * statistics.median(s["execute_s"] for s in answered),
            "wire_p50_ms": 1e3 * statistics.median(s["rtt_s"] - s["execute_s"] for s in answered),
        },
    }


def verify(ctx: Context, cache: str, rounds: List[List[Optional[Dict[str, Any]]]]) -> None:
    """Every later round must answer as the first did, and every
    VERIFY_EVERY-th fresh answer is recomputed in a separate process."""
    first = rounds[0]
    for samples in rounds[1:]:
        ctx.attempted += 1
        if [s and s["digest"] for s in samples] != [s and s["digest"] for s in first]:
            ctx.fail(1, "a later round answered differently from the first")
    fresh = [s for s in first if s and s["kind"] == "fresh"][VERIFY_EVERY - 1 :: VERIFY_EVERY]
    if not fresh:
        return
    ctx.attempted += len(fresh)
    result = ctx.spawn_pass({"kind": "verify", "requests": [s["params"] for s in fresh]}, cache)
    if result is None:
        ctx.fail(len(fresh), "verify pass did not complete")
        return
    for sample, digest in zip(fresh, result["digests"]):
        if digest != sample["digest"]:
            ctx.fail(1, f"served verdict differs from in-process: {sample['params']}")


def traced_replay(
    ctx: Context,
    daemon: Daemon,
    stream: List[Tuple[str, str, Dict[str, Any]]],
    untraced: List[Optional[Dict[str, Any]]],
) -> Optional[Dict[str, float]]:
    """Replay the request stream against a traced daemon."""
    from repro.serve.client import ServeClient

    with ServeClient(daemon.socket) as client:
        warm_up(client)
        before = client.stats()
        began = time.monotonic()
        requests = []
        for _, _, params in stream:
            seconds, result = send(ctx, client, params)
            if result is not None:
                requests.append((seconds, result["seconds"]))
        ended = time.monotonic()
        after = client.stats()
    status = daemon.stop()
    ctx.attempted += 1
    if status != 0 or len(requests) != len(stream):
        ctx.fail(1, f"traced daemon exited {status}")
        return None
    with open(daemon.trace_out, encoding="utf-8") as handle:
        dump = json.load(handle)
    ctx.missing_hooks.extend(dump["missing"])
    recorder = Recorder()
    recorder.spans = [tuple(span) for span in dump["spans"]]
    recorder.lookups = [tuple(lookup) for lookup in dump["lookups"]]
    summary = recorder.summary(began, ended)
    try:
        iterations = int(
            after["obs"]["counters"].get("fixpoint_iterations", 0)
            - before["obs"]["counters"].get("fixpoint_iterations", 0)
        )
    except (KeyError, TypeError):
        ctx.missing_hooks.append("stats:obs.counters.fixpoint_iterations")
        iterations = 0
    traced_wall = sum(rtt for rtt, _ in requests)
    return layer_metrics(
        summary,
        traced_wall=traced_wall,
        overhead=traced_wall / sum(s["rtt_s"] for s in untraced if s) - 1.0,
        iterations=iterations,
        requests=requests,
    )


# -- reporting ----------------------------------------------------------------


def load_benchmark() -> Dict[str, Any]:
    with open(BENCHMARK_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Run one workload; its report (metrics in BENCHMARK.json order)."""
    bench = load_benchmark()
    compile_sources()
    ctx = Context(name, seed, seconds, trace)
    # Per-layer metrics attribute one traced run's time; only the gated
    # end-to-end times are corrected for the machine's speed.
    sampler = None if trace else SpeedSampler(ctx)
    slowdown = None
    try:
        if name == "serve":
            outcome = serve_workload(ctx)
        else:
            calls = portfolio_calls() if name == "portfolio" else e9_calls(name == "e9-batch")
            outcome = experiment_workload(ctx, calls)
    finally:
        if sampler is not None:
            slowdown = sampler.stop()
            ctx.attempted += 1
            if slowdown is None:
                ctx.fail(1, "speed sampler failed")
        ctx.close()
    definitions = bench["per_layer"] if trace else bench["end_to_end"]
    values = outcome.get("per_layer" if trace else "metrics") or {}
    details = outcome.get("details", {})
    metrics = {}
    for definition in definitions:
        value = values.get(definition["name"])
        if value is None:
            continue
        value, samples = value if isinstance(value, tuple) else (value, 1)
        if slowdown and definition["unit"] == "s":
            details.setdefault("raw_s", {})[definition["name"]] = value
            value /= slowdown
        metrics[definition["name"]] = {
            "value": value,
            "unit": definition["unit"],
            "samples": samples,
        }
    if slowdown:
        details["slowdown"] = slowdown
    if len(metrics) != len(definitions) and not ctx.failed:
        ctx.fail(1, "workload did not produce every metric")
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": ctx.failed == 0,
        "attempted": max(ctx.attempted, 1),
        "failed": ctx.failed,
        "error_rate": ctx.failed / max(ctx.attempted, 1),
        "metrics": metrics,
        "details": details,
        "missing_hooks": sorted(set(ctx.missing_hooks)),
        "errors": ctx.errors[:20],
    }


def print_report(report: Dict[str, Any]) -> None:
    print(
        f"== {report['workload']} (seed {report['seed']}, {report['seconds']:g}s, "
        f"trace {int(report['trace'])}): {report['attempted']} ops, "
        f"{report['failed']} failed, error_rate {report['error_rate']:.4f}"
    )
    for name, metric in report["metrics"].items():
        print(f"  {name:36s} {metric['value']:>14.6f} {metric['unit']:8s} n={metric['samples']}")
    for key, value in report["details"].items():
        print(f"  [{key}] {json.dumps(value)}")
    if report["missing_hooks"]:
        print(f"  missing_hooks: {', '.join(report['missing_hooks'])}")
    for error in report["errors"]:
        print(f"  error: {error}")
    sys.stdout.flush()


def result_line(report: Dict[str, Any]) -> str:
    return json.dumps(
        {
            "correct": report["correct"],
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {
                name: {"value": metric["value"], "unit": metric["unit"]}
                for name, metric in report["metrics"].items()
            },
        }
    )


def git_sha() -> Optional[str]:
    try:
        process = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return process.stdout.strip() if process.returncode == 0 else None


def collect_meta() -> Dict[str, Any]:
    ctx = Context("meta", 0, 0, False)
    try:
        result = ctx.spawn_pass({"kind": "imports", "meta": True}, ctx.workdir)
    finally:
        ctx.close()
    meta = (result or {}).get("meta") or {}
    meta["git_sha"] = git_sha()
    return meta


def run_children(args, names: List[str]) -> List[Dict[str, Any]]:
    """One ``run.py`` process per workload, so RUSAGE_CHILDREN is per workload."""
    reports = []
    os.makedirs(WORK_ROOT, exist_ok=True)
    for name in names:
        fd, out = tempfile.mkstemp(prefix="report-", suffix=".json", dir=WORK_ROOT)
        os.close(fd)
        try:
            subprocess.run(
                [
                    sys.executable, os.path.abspath(__file__), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(int(args.trace)), "--out", out,
                ],
                cwd=ROOT,
                stdout=subprocess.DEVNULL,
                timeout=PASS_TIMEOUT * 8,
            )
            with open(out, encoding="utf-8") as handle:
                reports.extend(json.load(handle)["workloads"])
        except (OSError, ValueError, subprocess.SubprocessError) as error:
            reports.append(
                {"workload": name, "correct": False, "attempted": 1, "failed": 1,
                 "error_rate": 1.0, "metrics": {}, "details": {}, "missing_hooks": [],
                 "errors": [repr(error)], "seed": args.seed, "seconds": args.seconds,
                 "trace": bool(args.trace)}
            )
        finally:
            os.unlink(out)
    return reports


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", "--workloads", dest="workloads", nargs="+", action="extend",
        choices=WORKLOADS, default=[], help="workloads to run (default: all)",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", default=None, help="write the full report as JSON")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"run.py: no program source under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    if args.seconds is None:
        args.seconds = float(load_benchmark()["run_seconds"])
    names = list(dict.fromkeys(args.workloads)) or list(WORKLOADS)
    if len(names) == 1:
        reports = [run_workload(names[0], args.seed, args.seconds, bool(args.trace))]
    else:
        reports = run_children(args, names)
    for report in reports:
        print_report(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"meta": collect_meta(), "workloads": reports}, handle, indent=1)
    if len(reports) == 1:
        print(result_line(reports[0]))
    else:
        print(
            json.dumps(
                {
                    "correct": all(r["correct"] for r in reports),
                    "attempted": sum(r["attempted"] for r in reports),
                    "failed": sum(r["failed"] for r in reports),
                    "metrics": {
                        f"{r['workload']}/{name}": {"value": m["value"], "unit": m["unit"]}
                        for r in reports
                        for name, m in r["metrics"].items()
                    },
                }
            )
        )
    return 0 if all(r["failed"] == 0 for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
