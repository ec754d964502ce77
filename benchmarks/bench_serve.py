"""Cold-CLI vs warm-daemon latency for the knowledge-query service.

Standalone runner (not a pytest file — it spawns a ``repro-eba serve``
subprocess and times real wire round-trips):

1. **cold**: ``repro-eba query eval --local`` subprocesses — interpreter
   start-up, imports, cell build, evaluation — the price every
   one-shot CLI invocation pays;
2. **warm sequential**: the same eval against a resident daemon, p50/p99
   over many round-trips;
3. **warm concurrent**: 32 client threads issuing the query in parallel
   (the ISSUE acceptance load), per-request p50/p99 plus total wall.

The daemon must beat the cold path by at least ``--gate`` (default 10x,
the acceptance bar, p50 vs best-of cold); the script exits non-zero
otherwise.  ``--extra-out`` writes ``name=seconds`` lines for
``regression.py --extra`` so the serve numbers ride the bench history::

    PYTHONPATH=src python benchmarks/bench_serve.py --extra-out serve_extras.txt
    PYTHONPATH=src python benchmarks/regression.py --label serve \
        $(sed 's/^/--extra /' serve_extras.txt | tr '\n' ' ')
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")
if SRC_DIR not in sys.path:
    sys.path.insert(0, SRC_DIR)

QUERY_PARAMS = {
    "catalog": {"experiment": "E4", "formula": "everyone-exists1"}
}
CLI_QUERY = ["query", "eval", "--local", "--catalog", "E4/everyone-exists1"]


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _percentile(values: List[float], fraction: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def bench_cold(rounds: int) -> List[float]:
    walls = []
    for _ in range(rounds):
        started = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", *CLI_QUERY],
            cwd=REPO_ROOT,
            env=_env(),
            capture_output=True,
            timeout=300,
        )
        walls.append(time.perf_counter() - started)
        if result.returncode != 0:
            raise RuntimeError(
                f"cold query failed: {result.stderr.decode()}"
            )
    return walls


def spawn_daemon(socket_path: str) -> subprocess.Popen:
    from repro.serve.client import daemon_available

    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--socket", socket_path, "--workers", "2",
        ],
        cwd=REPO_ROOT,
        env=_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise RuntimeError(
                f"daemon died at startup:\n{process.stdout.read()}"
            )
        if daemon_available(socket_path, timeout=0.5):
            return process
        time.sleep(0.2)
    process.kill()
    raise RuntimeError("daemon did not come up within 60s")


def bench_warm_sequential(socket_path: str, rounds: int) -> List[float]:
    from repro.serve.client import ServeClient

    latencies = []
    with ServeClient(socket_path) as client:
        for _ in range(3):  # warmup: cell becomes resident, paths hot
            client.request("eval", **QUERY_PARAMS)
        for _ in range(rounds):
            started = time.perf_counter()
            client.request("eval", **QUERY_PARAMS)
            latencies.append(time.perf_counter() - started)
    return latencies


def bench_warm_concurrent(
    socket_path: str, clients: int, per_client: int
) -> Dict[str, object]:
    from repro.serve.client import ServeClient

    latencies: List[float] = []
    errors: List[BaseException] = []
    lock = threading.Lock()

    def worker():
        try:
            with ServeClient(socket_path) as client:
                mine = []
                for _ in range(per_client):
                    started = time.perf_counter()
                    client.request("eval", **QUERY_PARAMS)
                    mine.append(time.perf_counter() - started)
            with lock:
                latencies.extend(mine)
        except BaseException as error:  # noqa: BLE001 — reported below
            with lock:
                errors.append(error)

    threads = [threading.Thread(target=worker) for _ in range(clients)]
    wall_started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    wall = time.perf_counter() - wall_started
    if errors:
        raise RuntimeError(f"{len(errors)} concurrent client(s) failed: "
                           f"{errors[0]}")
    return {"latencies": latencies, "wall": wall}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="cold-CLI vs warm-daemon latency for repro.serve"
    )
    parser.add_argument(
        "--cold-rounds", type=int, default=3,
        help="cold CLI invocations to time (default 3)",
    )
    parser.add_argument(
        "--warm-rounds", type=int, default=50,
        help="sequential warm round-trips (default 50)",
    )
    parser.add_argument(
        "--clients", type=int, default=32,
        help="concurrent client threads (default 32, the acceptance load)",
    )
    parser.add_argument(
        "--per-client", type=int, default=4,
        help="queries per concurrent client (default 4)",
    )
    parser.add_argument(
        "--gate", type=float, default=10.0,
        help="required cold/warm speedup; 0 disables (default 10)",
    )
    parser.add_argument(
        "--extra-out", default=None, metavar="PATH",
        help="write name=seconds lines for regression.py --extra",
    )
    args = parser.parse_args(argv)

    print("cold CLI (`repro-eba query eval --local`):", flush=True)
    cold = bench_cold(args.cold_rounds)
    cold_best = min(cold)
    print(
        f"  best of {args.cold_rounds}: {cold_best:.3f}s "
        f"(all: {', '.join(f'{w:.3f}' for w in cold)})"
    )

    with tempfile.TemporaryDirectory(prefix="repro_serve_bench_") as tmp:
        socket_path = os.path.join(tmp, "bench.sock")
        process = spawn_daemon(socket_path)
        try:
            warm = bench_warm_sequential(socket_path, args.warm_rounds)
            warm_p50 = _percentile(warm, 0.50)
            warm_p99 = _percentile(warm, 0.99)
            print(f"warm daemon, sequential ({args.warm_rounds} round-trips):")
            print(
                f"  p50 {warm_p50 * 1000:.2f}ms   p99 {warm_p99 * 1000:.2f}ms"
            )
            concurrent = bench_warm_concurrent(
                socket_path, args.clients, args.per_client
            )
            conc = concurrent["latencies"]
            conc_p50 = _percentile(conc, 0.50)
            conc_p99 = _percentile(conc, 0.99)
            print(
                f"warm daemon, {args.clients} concurrent clients x "
                f"{args.per_client} queries:"
            )
            print(
                f"  p50 {conc_p50 * 1000:.2f}ms   p99 {conc_p99 * 1000:.2f}ms"
                f"   total wall {concurrent['wall']:.3f}s"
            )
        finally:
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
            returncode = process.wait(timeout=30)
        if returncode != 0:
            print(f"daemon exited with status {returncode}", file=sys.stderr)
            return 1
        if os.path.exists(socket_path):
            print("daemon left its socket file behind", file=sys.stderr)
            return 1

    speedup = cold_best / warm_p50 if warm_p50 > 0 else float("inf")
    print(f"speedup (cold best / warm p50): {speedup:.1f}x")

    extras = {
        "serve_cold_cli_eval": cold_best,
        "serve_warm_eval_p50": warm_p50,
        "serve_warm_eval_p99": warm_p99,
        "serve_concurrent32_p50": conc_p50,
        "serve_concurrent32_p99": conc_p99,
        "serve_concurrent32_wall": concurrent["wall"],
    }
    if args.extra_out:
        with open(args.extra_out, "w", encoding="utf-8") as handle:
            for name, seconds in extras.items():
                handle.write(f"{name}={seconds:.6f}\n")
        print(f"wrote {len(extras)} extra(s) to {args.extra_out}")

    if args.gate and speedup < args.gate:
        print(
            f"FAIL: warm daemon is only {speedup:.1f}x faster than the "
            f"cold CLI (gate: {args.gate:g}x)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
