"""Benchmarks for the SystemProvider pipeline.

These measure the acceptance criteria of the provider refactor directly:

* warm-path speedup — the second request for crash ``n=5, t=2`` through the
  provider must be at least 5x faster than the cold enumeration (it is an
  in-memory LRU hit; the cross-process disk path is exercised separately);
* instrumentation overhead — keeping :mod:`repro.obs` enabled must cost at
  most 5% on an enumeration-heavy workload.

The crash ``n=5, t=2`` point uses horizon 1: the provider layers are
horizon-independent, and horizon 1 keeps the cold build around 6s instead
of the minute-scale horizon-2 space.
"""

import time

from repro import obs
from repro.model.adversary import ExhaustiveOmissionAdversary
from repro.model.failures import FailureMode
from repro.model.provider import SystemProvider
from repro.model.system import build_system

from conftest import OVERHEAD_BUILDS, best_enabled_disabled


def test_provider_warm_path_speedup(tmp_path):
    """Acceptance: repeated build of crash n=5, t=2 must be >=5x faster."""
    provider = SystemProvider(cache_dir=str(tmp_path))

    start = time.perf_counter()
    cold = provider.get(FailureMode.CRASH, 5, 2, 1)
    cold_seconds = time.perf_counter() - start

    start = time.perf_counter()
    warm = provider.get(FailureMode.CRASH, 5, 2, 1)
    warm_seconds = time.perf_counter() - start

    assert warm is cold
    assert provider.cache_info()["hits"] == 1
    assert warm_seconds * 5 <= cold_seconds, (
        f"warm path {warm_seconds:.6f}s not 5x faster than "
        f"cold {cold_seconds:.3f}s"
    )


def test_provider_disk_warm_path(tmp_path, benchmark):
    """Loading crash n=5, t=2 from the disk cache beats re-enumeration."""
    seeder = SystemProvider(cache_dir=str(tmp_path))
    start = time.perf_counter()
    built = seeder.get(FailureMode.CRASH, 5, 2, 1)
    cold_seconds = time.perf_counter() - start

    def load_cold_process():
        reader = SystemProvider(cache_dir=str(tmp_path))
        system = reader.get(FailureMode.CRASH, 5, 2, 1)
        assert reader.cache_info()["disk_hits"] == 1
        return system

    loaded = benchmark(load_cold_process)
    assert len(loaded.runs) == len(built.runs)
    benchmark.extra_info["cold_build_seconds"] = round(cold_seconds, 3)


def test_instrumentation_overhead_within_5_percent():
    """Acceptance: enabling repro.obs costs <=5% on enumeration."""

    def workload():
        for _ in range(OVERHEAD_BUILDS):
            build_system(ExhaustiveOmissionAdversary(3, 1, 3))

    def switch(on):
        obs.OBS.enabled = on

    workload()  # warm imports and allocator
    enabled_seconds, disabled_seconds = best_enabled_disabled(
        workload, switch
    )

    assert enabled_seconds <= disabled_seconds * 1.05, (
        f"instrumentation overhead "
        f"{enabled_seconds / disabled_seconds - 1:.1%} exceeds 5% "
        f"({enabled_seconds:.3f}s vs {disabled_seconds:.3f}s)"
    )
