"""Golden verdict digests: the benchmark's correctness gate.

``golden.json`` holds the SHA-256 of every experiment's rendered verdict
table (E1..E21).  Timing columns (E14's) are masked before hashing, so
the digest pins verdicts, counts and sizes but not speed.  Regenerate it
after a change that is *meant* to alter a table::

    PYTHONPATH=src python benchmarks/suite/golden.py

E9 runs on :data:`E9_CELL`, the omission cell the benchmark measures.
Its table holds the three claims of Proposition 6.3, so the digest is
the same on the paper's default cell (n=4, t=2, horizon 2); the sharded
path must reproduce it too.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict, List

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

#: The omission cell E9 runs on in the benchmark: t > 1 and n >= t + 2,
#: as Proposition 6.3 requires, and 148,864 points.
E9_CELL = {"n": 5, "t": 2, "horizon": 1}

#: Columns that hold wall-clock timings, by experiment.
MASKED_COLUMNS: Dict[str, tuple] = {"E14": ("enumerate s", "C□ eval s")}


def table_digest(experiment_id: str, table: str) -> str:
    """SHA-256 of *table* with the experiment's timing columns masked."""
    masked = MASKED_COLUMNS.get(experiment_id)
    text = _mask(table, masked) if masked else table
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _mask(table: str, names: tuple) -> str:
    """Replace the cells of the named columns by ``*``.

    Tables are blocks of a header line, a dash rule and rows, separated
    by blank lines; the rule's dash runs give the column offsets.
    """
    blocks: List[str] = []
    for block in table.split("\n\n"):
        lines = block.split("\n")
        if len(lines) < 2 or set(lines[1]) - {"-", " "}:
            blocks.append(block)
            continue
        rule = lines[1]
        starts = [
            i for i, char in enumerate(rule)
            if char == "-" and (i == 0 or rule[i - 1] == " ")
        ]
        bounds = list(zip(starts, starts[1:] + [None]))
        header = [lines[0][a:b].strip() for a, b in bounds]
        out = []
        for row, line in enumerate(lines):
            cells = [line[a:b].strip() for a, b in bounds]
            if row >= 2:
                cells = [
                    "*" if name in names else cell
                    for name, cell in zip(header, cells)
                ]
            out.append("|".join(cells))
        blocks.append("\n".join(out))
    return "\n\n".join(blocks)


def load_golden() -> Dict[str, str]:
    """``experiment id -> digest`` from ``golden.json``."""
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)["tables"]


def main() -> int:
    from repro.experiments.registry import experiment_ids, run_experiment

    tables: Dict[str, str] = {}
    for experiment_id in experiment_ids():
        params = E9_CELL if experiment_id == "E9" else {}
        result = run_experiment(experiment_id, **params)
        if not result.ok:
            print(f"{experiment_id} did not reproduce; not writing", file=sys.stderr)
            return 1
        tables[experiment_id] = table_digest(experiment_id, result.table)
        print(experiment_id, tables[experiment_id], flush=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump({"e9_cell": E9_CELL, "tables": tables}, handle, indent=2)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
