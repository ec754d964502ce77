"""E9 — Proposition 6.3: omission-mode non-termination of ``F^{Λ,2}``.

The heavy cell of the suite: enumerates the FULL omission system at
``n = 4, t = 2, horizon = 2`` (≈385k runs; about 10 s cold and 7 s warm
at 0.8 GB peak on a 2-vCPU box) so the knowledge tests are exact, and
verifies that in the witness run (all values 1, processor 0 silent
forever) no nonfaulty processor ever decides.

Deselect with ``-k "not e09"`` for a quick pass.
"""

from repro.experiments.e09_omission_nontermination import run

from conftest import run_experiment_benchmark


def test_e09_omission_nontermination(benchmark):
    run_experiment_benchmark(benchmark, run)
