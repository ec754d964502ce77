"""Benchmark harness configuration.

Each benchmark regenerates one experiment from DESIGN.md's index (the
paper's propositions/theorems as measured tables), asserts that the paper's
claim reproduces, and reports the wall time through ``pytest-benchmark``.

Experiments run once per benchmark (``rounds=1``): they are deterministic
end-to-end reproductions, not microbenchmarks, and several enumerate large
run spaces.  The reproduced tables are attached to the benchmark's
``extra_info`` so ``--benchmark-json`` output carries them.
"""

from __future__ import annotations

import gc
import time

from repro import obs
from repro.experiments.framework import attach_instrumentation


def run_experiment_benchmark(benchmark, runner, **params):
    """Run one experiment under the benchmark fixture and assert
    reproduction."""
    before = obs.snapshot()
    result = benchmark.pedantic(
        lambda: runner(**params), rounds=1, iterations=1
    )
    attach_instrumentation(result, before)
    benchmark.extra_info["experiment"] = result.experiment_id
    benchmark.extra_info["ok"] = result.ok
    benchmark.extra_info["table"] = result.table
    benchmark.extra_info["instrumentation"] = result.data["instrumentation"]
    assert result.ok, result.render()
    return result


#: Timed runs per side of an instrumentation-overhead gate.
OVERHEAD_ROUNDS = 9

#: Builds per timed run of the overhead gates' workloads: one build of
#: their cells from the digit tables takes 4-5 ms, too short to time
#: against a 5 % bound, so each run repeats it (0.1-0.2 s per run on a
#: shared 2-vCPU box).
OVERHEAD_BUILDS = 30


def best_enabled_disabled(workload, switch):
    """Best wall time of *workload* over :data:`OVERHEAD_ROUNDS` runs
    with some instrumentation on, and as many with it off:
    ``(enabled_seconds, disabled_seconds)``.

    ``switch(on)`` turns the instrumentation on or off.  Enabled and
    disabled runs alternate, each round swapping which side goes first,
    so drift in the machine's speed reaches both sides alike instead of
    reading as overhead, and every run starts from a collected heap, so
    the cyclic collector's full passes land on neither side.  The
    instrumentation is left on.
    """
    best = {True: float("inf"), False: float("inf")}
    try:
        for round_index in range(OVERHEAD_ROUNDS):
            order = (True, False) if round_index % 2 == 0 else (False, True)
            for enabled in order:
                switch(enabled)
                gc.collect()
                start = time.perf_counter()
                workload()
                best[enabled] = min(best[enabled], time.perf_counter() - start)
    finally:
        switch(True)
    return best[True], best[False]
