"""Cold-path construction gate: arrays-first build vs the object graph.

Standalone runner (not a pytest file — every measurement needs a fresh
provider, which pytest-benchmark's repeated calibration rounds would
defeat):

1. **arrays-first**: a cold ``SystemProvider.get`` on the
   E9-class omission cell — the fastbuild path that enumerates straight
   into ``SystemArrays`` index tables, never materializing ``Run`` or
   ``ViewTable`` objects — followed by the NONFAULTY Corollary 3.3
   reachability pass (``reachability_labels`` over the nonfaulty
   points' ``(run, view)`` incidence, as
   ``knowledge/semantics.py::_components`` computes it);
2. **object graph** (the baseline): the same cell and the same
   evaluation, but built through the object-graph oracle of
   ``tests/oracles.py`` — per-point scenario enumeration, view
   interning, run construction (``build_graph``) — with the arrays
   projected from the finished graph (``project``).  (Every builder in
   ``src/`` is arrays-first, so none can serve as the baseline.)

Both legs start from a fresh provider, so the ratio is the cold-path win
the arrays-first builder exists for.  The script exits non-zero unless
arrays-first beats the baseline by at least ``--gate`` (default 2x, the
acceptance bar).  ``--extra-out`` writes ``name=seconds``
lines for ``regression.py --extra`` so the cold numbers ride the bench
history and its regression gate::

    PYTHONPATH=src python benchmarks/bench_cold_build.py --extra-out cold_extras.txt
    PYTHONPATH=src python benchmarks/regression.py --label cold \
        $(sed 's/^/--extra /' cold_extras.txt | tr '\n' ' ')
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Dict

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")
for path in (REPO_ROOT, SRC_DIR):
    if path not in sys.path:
        sys.path.insert(0, path)


def _evaluate(arrays) -> int:
    """The evaluation core both legs run identically.

    Labels the NONFAULTY Corollary 3.3 reachability components of the
    cell: every point of a nonfaulty processor joins its run to its
    view.  Returns the number of labelled runs so the work cannot be
    dead-code-eliminated.
    """
    import numpy as np

    from repro.model.partition import reachability_labels

    member = np.broadcast_to(
        arrays.nonfaulty[:, None, :], arrays.views.shape
    )
    points = np.flatnonzero(member)
    labels = reachability_labels(
        arrays.num_runs,
        points // (arrays.width * arrays.n),
        arrays.views.reshape(-1)[points],
        arrays.num_views,
    )
    return int((labels >= 0).sum())


def _cold_leg(n: int, t: int, horizon: int, *, legacy: bool) -> float:
    """One cold build+eval in a fresh provider; returns the wall time."""
    from repro.model.adversary import exhaustive_adversary
    from repro.model.failures import FailureMode
    from repro.model.provider import SystemProvider
    from tests.oracles import build_graph, project

    provider = SystemProvider()
    start = time.perf_counter()
    if legacy:
        arrays = project(
            build_graph(
                exhaustive_adversary(FailureMode.OMISSION, n, t, horizon)
            )
        )
    else:
        arrays = provider.get(FailureMode.OMISSION, n, t, horizon).arrays()
    _evaluate(arrays)
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="cold arrays-first vs object-graph build+eval gate"
    )
    parser.add_argument("--n", type=int, default=4)
    parser.add_argument("--t", type=int, default=2)
    parser.add_argument("--horizon", type=int, default=2)
    parser.add_argument(
        "--rounds", type=int, default=2,
        help="best-of rounds for the arrays-first leg (each in a "
        "fresh provider); the slow baseline leg always runs once",
    )
    parser.add_argument(
        "--gate", type=float, default=2.0,
        help="minimum baseline/arrays-first speedup (default 2.0)",
    )
    parser.add_argument(
        "--skip-gate", action="store_true",
        help="measure only; do not enforce the speedup gate",
    )
    parser.add_argument(
        "--extra-out", metavar="PATH",
        help="write name=seconds lines for regression.py --extra",
    )
    args = parser.parse_args(argv)
    cell = f"omission-n{args.n}t{args.t}h{args.horizon}"

    fast = min(
        _cold_leg(args.n, args.t, args.horizon, legacy=False)
        for _ in range(max(1, args.rounds))
    )
    print(f"cold-build ({cell}, arrays-first) {fast:.3f}s", flush=True)
    legacy = _cold_leg(args.n, args.t, args.horizon, legacy=True)
    print(f"cold-build-legacy ({cell}, object graph) {legacy:.3f}s")
    speedup = legacy / fast if fast > 0 else float("inf")
    print(f"speedup {speedup:.2f}x (gate {args.gate:.2f}x)")

    extras: Dict[str, str] = {
        "cold-build": f"{fast:.6f}",
        "cold-build-legacy": f"{legacy:.6f}",
    }
    if args.extra_out:
        with open(args.extra_out, "w") as handle:
            for name, value in extras.items():
                handle.write(f"{name}={value}\n")
        print(f"wrote {args.extra_out}")

    if not args.skip_gate and speedup < args.gate:
        print(
            f"FAIL: arrays-first cold build+eval is only {speedup:.2f}x "
            f"the object-graph baseline (need >= {args.gate:.2f}x)"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
