"""One pass of the benchmark, run by ``run.py`` in a fresh interpreter.

    python benchmarks/suite/passes.py SPEC.json

``SPEC.json`` names the pass ``kind`` and the file to write the result
to (``out``).  Kinds:

* ``imports`` — import the entry points and report when that finished;
* ``experiments`` — run experiment calls through
  ``repro.experiments.registry.run_experiment`` or ``repro.exec.plan_for``
  + ``run_batch`` and time each call; with ``traced`` the per-layer hooks
  of :mod:`layers` are installed first;
* ``verify`` — re-evaluate served ``eval`` requests in this process and
  return their verdict digests;
* ``speed`` — time a fixed pure-Python loop a few times a second while
  a workload runs, to measure how fast the machine is running;
* ``daemon`` — run ``repro-eba serve`` with the per-layer hooks
  installed, and write its spans when it has drained.

The interpreter never imports ``run.py``, so what a pass costs
is what the program costs.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Any, Dict, List, Optional


def run_imports(spec: Dict[str, Any]) -> Dict[str, Any]:
    import repro.exec  # noqa: F401
    import repro.experiments.registry  # noqa: F401

    imported_at = time.monotonic()
    return {"imported_at": imported_at, "meta": _meta() if spec.get("meta") else None}


def _meta() -> Dict[str, Any]:
    meta: Dict[str, Any] = {"cpu_count": os.cpu_count(), "python": sys.version.split()[0]}
    try:
        import numpy

        meta["numpy"] = numpy.__version__
    except ImportError:
        meta["numpy"] = None
    try:
        from repro.model.chunked import backend_name
        from repro.model.kernels import active_kernel

        meta["chunked_backend"] = backend_name()
        meta["default_kernel"] = active_kernel()
    except (ImportError, AttributeError):
        meta["chunked_backend"] = meta["default_kernel"] = None
    return meta


def run_experiments(spec: Dict[str, Any]) -> Dict[str, Any]:
    from golden import table_digest
    from repro.exec import plan as exec_plan
    from repro.experiments import registry

    imported_at = time.monotonic()
    recorder = hooks = None
    if spec.get("traced"):
        # Entry points are looked up on their modules at call time below,
        # so the calls go through the hooks installed here.
        from layers import Recorder, install

        spill_dir = spec["out"] + ".spill"
        os.makedirs(spill_dir)
        recorder = Recorder(spill_dir)
        hooks = install(recorder)
    iterations_before = _fixpoint_iterations()
    calls: List[Dict[str, Any]] = []
    started = time.monotonic()
    for call in spec["calls"]:
        began = time.monotonic()
        try:
            if call.get("batch"):
                plan = exec_plan.plan_for(call["id"], **call["params"])
                result = exec_plan.run_batch(plan, workers=spec["workers"])
            else:
                result = registry.run_experiment(call["id"], **call["params"])
        except Exception as error:  # noqa: BLE001 — reported as a failed op
            calls.append({"id": call["id"], "ok": False, "error": repr(error)})
            continue
        wall = time.monotonic() - began
        batch_info = result.data.get("batch") or {}
        calls.append(
            {
                "id": call["id"],
                "ok": bool(result.ok),
                "digest": table_digest(call["id"], result.table),
                "wall_s": wall,
                "journal": batch_info.get("journal"),
            }
        )
    out: Dict[str, Any] = {
        "imported_at": imported_at,
        "started_at": started,
        "wall_s": sum(call.get("wall_s", 0.0) for call in calls),
        "calls": calls,
    }
    if hooks is not None:
        hooks.remove()
        iterations_after = _fixpoint_iterations()
        out["trace"] = {
            "summary": recorder.summary(),
            "missing": hooks.missing,
            "fixpoint_iterations": (
                None
                if iterations_before is None or iterations_after is None
                else iterations_after - iterations_before
            ),
            "pool": _pool_totals(
                [call["journal"] for call in calls if call.get("journal")]
            ),
        }
    return out


def _fixpoint_iterations() -> Optional[int]:
    """The program's own fixpoint-iteration counter, if it still has one."""
    try:
        from repro import obs

        return int(obs.snapshot()["counters"].get("fixpoint_iterations", 0))
    except (ImportError, AttributeError, KeyError, TypeError):
        return None


def _pool_totals(journals: List[str]) -> Dict[str, float]:
    """Shard count, worker busy time, retries and batch wall from journals."""
    totals = {"shards": 0, "busy_s": 0.0, "retries": 0, "batch_s": 0.0}
    for path in journals:
        try:
            with open(path, encoding="utf-8") as handle:
                records = [json.loads(line) for line in handle if line.strip()]
        except (OSError, ValueError):
            continue
        for record in records:
            event = record.get("event")
            if event == "shard_done":
                totals["shards"] += 1
                totals["busy_s"] += float(record.get("seconds", 0.0))
            elif event == "shard_retry":
                totals["retries"] += 1
            elif event == "batch_done":
                totals["batch_s"] += float(record.get("seconds", 0.0))
    return totals


def run_verify(spec: Dict[str, Any]) -> Dict[str, Any]:
    from repro.model.failures import FailureMode
    from repro.model.provider import get_provider
    from repro.serve.protocol import build_formula
    from repro.serve.session import verdict_digest

    provider = get_provider()
    digests = []
    for params in spec["requests"]:
        system = provider.get(
            FailureMode(params["mode"]), params["n"], params["t"], params["horizon"]
        )
        truth = build_formula(params["formula"]).evaluate(system)
        digests.append(verdict_digest(truth))
    return {"digests": digests}


#: Iterations of :func:`reference_loop`: about 2 ms of CPU.
REFERENCE_ITERATIONS = 5000


def reference_loop() -> int:
    """A fixed amount of pure-Python work — integer arithmetic, tuples
    and a dict that outgrows the first-level caches — that never touches
    the program, so its speed is the machine's."""
    table: Dict[tuple, int] = {}
    value = 0
    for i in range(REFERENCE_ITERATIONS):
        value = (value * 1103515245 + 12345) & 0x7FFFFFFF
        key = (value & 0xFFFF, i & 3)
        table[key] = table.get(key, 0) + 1
    return len(table)


def run_speed(spec: Dict[str, Any]) -> Dict[str, Any]:
    """CPU seconds of :func:`reference_loop`, once every ``period``
    seconds, until ``run.py`` closes this process's stdin."""
    import select

    samples = []
    while True:
        began = time.thread_time()
        reference_loop()
        samples.append(time.thread_time() - began)
        readable, _, _ = select.select([sys.stdin], [], [], spec["period"])
        if readable:
            return {"samples": samples}


def run_daemon(spec: Dict[str, Any]) -> Dict[str, Any]:
    from layers import Recorder, install

    recorder = Recorder()
    hooks = install(recorder)
    from repro.cli import main as cli_main

    try:
        status = cli_main(spec["argv"])
    finally:
        hooks.remove()
    return {
        "status": status,
        "spans": recorder.spans,
        "lookups": recorder.lookups,
        "missing": hooks.missing,
    }


KINDS = {
    "imports": run_imports,
    "experiments": run_experiments,
    "verify": run_verify,
    "speed": run_speed,
    "daemon": run_daemon,
}


def main(argv: List[str]) -> int:
    with open(argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    result = KINDS[spec["kind"]](spec)
    temp = spec["out"] + ".tmp"
    with open(temp, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    os.replace(temp, spec["out"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
