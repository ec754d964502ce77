#!/usr/bin/env python3
"""Compare benchmark result files against the bounds in BENCHMARK.json.

Result files are the ``--out`` reports of ``run.py``.  Two sides::

    python benchmarks/suite/compare.py --base parent-*.json --head change-*.json

For each (workload, end-to-end metric), runs of the two sides that share
a seed are paired, and the change is the median of the per-pair ratios
head/base.  Run the pairs back to back, alternating which side goes
first, so that drift of the machine cancels within each pair.  When the
seeds do not pair up one to one, the change is the ratio of the medians.
The tool prints each side's median and quartiles, the change, how many
pairs the head won, and a verdict; it exits 1 when any verdict is not
``ok``:

* ``REGRESSION`` — the change is worse than the metric's bound;
* ``unresolved`` — the spread (of the ratios when paired, of the base
  runs otherwise) is wider than the bound, and not every head run is
  better than every base run.

``--spread`` takes one side and prints each metric's run-to-run spread:
the quartile distance over the median, as ``statistics.quantiles(values,
n=4)`` gives it.  It exits 1 when any spread is wider than its bound,
and marks spreads wider than a tenth.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

BENCHMARK_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "BENCHMARK.json",
)

#: ``(workload, metric) -> [(seed, value)]``, one entry per result file.
Samples = Dict[Tuple[str, str], List[Tuple[int, float]]]


def load_samples(paths: List[str]) -> Samples:
    samples: Samples = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
        for workload in report["workloads"]:
            for name, metric in workload["metrics"].items():
                samples.setdefault((workload["workload"], name), []).append(
                    (workload["seed"], float(metric["value"]))
                )
    return samples


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: List[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def pair_ratios(
    base: List[Tuple[int, float]], head: List[Tuple[int, float]]
) -> List[float]:
    """head/base per seed, or ``[]`` unless the seeds pair one to one."""
    base_by_seed = dict(base)
    head_by_seed = dict(head)
    if (
        len(base_by_seed) != len(base)
        or len(head_by_seed) != len(head)
        or base_by_seed.keys() != head_by_seed.keys()
        or any(value == 0 for value in base_by_seed.values())
    ):
        return []
    return [head_by_seed[seed] / base_by_seed[seed] for seed in sorted(base_by_seed)]


def compare(base: Samples, head: Samples, definitions: Dict[str, dict]) -> int:
    failures = 0
    print(f"{'workload':10s} {'metric':12s} {'base median [q1, q3]':>33s} "
          f"{'head median [q1, q3]':>33s} {'change':>8s} {'wins':>6s} {'bound':>6s}  verdict")
    for key in sorted(set(base) | set(head)):
        workload, name = key
        definition = definitions.get(name)
        if definition is None:
            continue
        if key not in base or key not in head:
            print(f"{workload:10s} {name:12s} missing on one side")
            failures += 1
            continue
        lower_is_better = definition["better"] == "lower"
        base_values = [value for _, value in base[key]]
        head_values = [value for _, value in head[key]]
        b1, b2, b3 = quartiles(base_values)
        h1, h2, h3 = quartiles(head_values)
        ratios = pair_ratios(base[key], head[key])
        if ratios:
            change = statistics.median(ratios) - 1.0
            noise = spread(ratios)
            won = sum(r < 1.0 if lower_is_better else r > 1.0 for r in ratios)
            wins = f"{won}/{len(ratios)}"
        else:
            change = h2 / b2 - 1.0 if b2 else 0.0
            noise = spread(base_values)
            wins = "-"
        worse = change if lower_is_better else -change
        bound = definition["bound"]
        separated = (
            max(head_values) < min(base_values)
            if lower_is_better
            else min(head_values) > max(base_values)
        )
        if worse > bound:
            verdict = "REGRESSION"
        elif noise > bound and not separated:
            verdict = "unresolved"
        else:
            verdict = "ok"
        failures += verdict != "ok"
        print(
            f"{workload:10s} {name:12s} "
            f"{b2:11.5g} [{b1:9.4g}, {b3:9.4g}] n={len(base_values):<2d}"
            f"{h2:11.5g} [{h1:9.4g}, {h3:9.4g}] n={len(head_values):<2d}"
            f"{100 * change:+7.1f}% {wins:>6s} {bound:6.2f}  {verdict}"
        )
    return 1 if failures else 0


def report_spread(samples: Samples, definitions: Dict[str, dict]) -> int:
    failures = 0
    print(f"{'workload':10s} {'metric':12s} {'median':>12s} {'spread':>8s} "
          f"{'bound':>6s}  verdict")
    for (workload, name), pairs in sorted(samples.items()):
        definition = definitions.get(name)
        if definition is None:
            continue
        values = [value for _, value in pairs]
        share = spread(values)
        bound = definition["bound"]
        if share > bound:
            verdict = "TOO WIDE"
            failures += 1
        elif share > 0.10:
            verdict = "ok (wider than a tenth)"
        else:
            verdict = "ok"
        print(
            f"{workload:10s} {name:12s} {quartiles(values)[1]:12.6g} "
            f"{100 * share:7.2f}% {bound:6.2f}  {verdict}  n={len(values)}"
        )
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", default=[], help="result files of the parent")
    parser.add_argument("--head", nargs="+", default=[], help="result files of the change")
    parser.add_argument("--spread", nargs="+", default=[], help="result files of one commit")
    args = parser.parse_args(argv)
    with open(BENCHMARK_PATH, encoding="utf-8") as handle:
        definitions = {d["name"]: d for d in json.load(handle)["end_to_end"]}
    if args.spread:
        return report_spread(load_samples(args.spread), definitions)
    if not args.base or not args.head:
        parser.error("give --base and --head, or --spread")
    return compare(load_samples(args.base), load_samples(args.head), definitions)


if __name__ == "__main__":
    sys.exit(main())
