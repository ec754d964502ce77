"""Micro-benchmarks for the reproduction's hot paths.

Unlike the experiment benches (one deterministic round each), these run
multi-round timings of the core operations so regressions in the model
checker or the simulator show up directly:

* full-information system enumeration;
* continual-common-knowledge evaluation — component fast path vs. the
  greatest-fixed-point reference;
* the two-step optimal construction;
* simulator throughput for the concrete protocols.
"""

import pytest

from repro import trace
from repro.core.construction import two_step_optimization
from repro.core.decision_sets import empty_pair
from repro.knowledge.formulas import ContinualCommon, Exists
from repro.knowledge.nonrigid import NONFAULTY
from repro.knowledge.semantics import (
    eval_continual_common,
    eval_continual_common_components,
)
from repro.model.adversary import ExhaustiveCrashAdversary
from repro.model.builder import crash_system, omission_system
from repro.model.system import build_system
from repro.protocols.p0opt import p0opt
from repro.sim.engine import run_over_scenarios

from conftest import OVERHEAD_BUILDS, best_enabled_disabled


def test_enumerate_crash_system_n4(benchmark):
    """Enumerate the n=4, t=1, horizon=3 crash system (1360 runs)."""
    benchmark(lambda: build_system(ExhaustiveCrashAdversary(4, 1, 3)))


def test_continual_ck_component_fast_path(benchmark):
    system = crash_system(4, 1, 3)
    phi = Exists(1).evaluate(system)
    run_level = phi.run_levels()

    def component_scan():
        # Drop the component memo so the union-find scan itself is timed.
        system._components_cache.clear()
        return eval_continual_common_components(system, NONFAULTY, run_level)

    benchmark(component_scan)


def test_continual_ck_fixpoint_reference(benchmark):
    system = crash_system(3, 1, 3)
    phi = Exists(1).evaluate(system)
    benchmark(lambda: eval_continual_common(system, NONFAULTY, phi))


def test_two_step_construction_crash_n3(benchmark):
    system = crash_system(3, 1, 3)

    def construct():
        system.clear_caches()
        return two_step_optimization(system, empty_pair())

    benchmark(construct)


def test_simulator_throughput_p0opt(benchmark):
    system = crash_system(4, 1, 3)
    scenarios = system.scenarios()
    benchmark(lambda: run_over_scenarios(p0opt(), scenarios, 3, 1))


def test_system_cache_warm_hit(benchmark):
    """A warm provider hit must be near-free compared to enumeration."""
    crash_system(4, 1, 3)  # populate the provider's LRU
    benchmark(lambda: crash_system(4, 1, 3))


def test_formula_cache_hit_path(benchmark):
    """Re-evaluating a cached formula must be near-free."""
    system = omission_system(3, 1, 3)
    formula = ContinualCommon(NONFAULTY, Exists(0))
    formula.evaluate(system)  # warm
    benchmark(lambda: formula.evaluate(system))


def test_tracing_overhead_within_5_percent():
    """Acceptance: keeping the span tracer enabled costs <=5% on
    enumeration."""

    def workload():
        for _ in range(OVERHEAD_BUILDS):
            build_system(ExhaustiveCrashAdversary(4, 1, 3))

    def switch(on):
        trace.TRACER.enabled = on

    workload()  # warm imports and allocator
    assert trace.TRACER.enabled
    try:
        enabled_seconds, disabled_seconds = best_enabled_disabled(
            workload, switch
        )
    finally:
        trace.TRACER.clear()

    assert enabled_seconds <= disabled_seconds * 1.05, (
        f"span-tracing overhead "
        f"{enabled_seconds / disabled_seconds - 1:.1%} exceeds 5% "
        f"({enabled_seconds:.3f}s vs {disabled_seconds:.3f}s)"
    )


def test_instrumentation_overhead_within_5_percent():
    """Acceptance: keeping counters, timers AND histograms enabled costs
    <=5% on enumeration."""
    from repro import obs

    def workload():
        for _ in range(OVERHEAD_BUILDS):
            build_system(ExhaustiveCrashAdversary(4, 1, 3))

    def switch(on):
        obs.OBS.enabled = on

    workload()  # warm imports and allocator
    assert obs.OBS.enabled
    enabled_seconds, disabled_seconds = best_enabled_disabled(
        workload, switch
    )

    assert enabled_seconds <= disabled_seconds * 1.05, (
        f"instrumentation overhead "
        f"{enabled_seconds / disabled_seconds - 1:.1%} exceeds 5% "
        f"({enabled_seconds:.3f}s vs {disabled_seconds:.3f}s)"
    )
