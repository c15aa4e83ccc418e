#!/usr/bin/env python3
"""Compare two sets of benchmark runs.

    python3 bench/compare.py A.jsonl B.jsonl

Each file is what ``run.py --out`` appended: one JSON line per run,
any number of runs.  One row is printed per workload x metric with
each side's median and quartiles over its runs (a side with a single
run shows that run's value and its own slice quartiles), the change
from A to B and the metric's bound from ``BENCHMARK.json``.  Rows are
marked

* ``better`` / ``same`` / ``worse`` — end-to-end metrics; ``worse``
  means B's median is worse than A's by more than the bound (and by
  more than the spread);
* ``unresolved`` — the run-to-run spread (quartile distance over
  median) is wider than the bound, so the row says nothing;
* ``equal`` / ``differs`` — simulated-time and count metrics, which
  must be exactly equal on every (seed, size) both sides ran;
* ``-`` — a per-layer metric: no bound, shown for attribution.

Exits non-zero on any ``worse`` or ``differs`` row.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from timing import quartiles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Units of metrics that repeat exactly for a given seed and size.
EXACT_UNITS = ("count", "sim_us", "sim_ms")

# (workload, metric) -> [(run key, metric row)]
Runs = Dict[Tuple[str, str], List[Tuple[tuple, dict]]]


def load(path: str) -> Runs:
    runs: Runs = defaultdict(list)
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            run = json.loads(line)
            key = (run["seed"], run["seconds"], run["smoke"])
            for name, row in run["metrics"].items():
                runs[(run["workload"], name)].append((key, row))
    return runs


def summarize(rows: List[Tuple[tuple, dict]]) -> Dict[str, float]:
    stats = quartiles([row["value"] for _, row in rows])
    if len(rows) == 1 and "q1" in rows[0][1]:
        stats.update({key: rows[0][1][key] for key in ("q1", "q3", "n")})
    return stats


def spread(stats: Dict[str, float]) -> float:
    if not stats["median"]:
        return 0.0
    return (stats["q3"] - stats["q1"]) / abs(stats["median"])


def exact_status(a_rows, b_rows) -> Optional[str]:
    a_by_key = dict(a_rows)
    shared = [(a_by_key[key]["value"], row["value"])
              for key, row in b_rows if key in a_by_key]
    if not shared:
        return None
    return "equal" if all(a == b for a, b in shared) else "differs"


def status_of(spec: dict, a: Dict[str, float], b: Dict[str, float],
              a_rows, b_rows) -> Tuple[str, float]:
    """(mark, change from A to B as a share of A; positive is
    worse)."""
    change = 0.0
    if a["median"]:
        change = (b["median"] - a["median"]) / abs(a["median"])
        if spec["better"] == "higher":
            change = -change
    if spec["unit"] in EXACT_UNITS:
        return exact_status(a_rows, b_rows) or "-", change
    bound = spec.get("bound")
    if bound is None:
        return "-", change
    noise = max(spread(a), spread(b))
    if change > max(bound, noise):
        return "worse", change
    if noise > bound:
        return "unresolved", change
    if change < -noise:
        return "better", change
    return "same", change


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    specs = {spec["name"]: spec for spec in
             contract["end_to_end"] + contract["per_layer"]}
    a_runs, b_runs = load(argv[0]), load(argv[1])
    failed = 0
    print(f"{'workload':<14} {'metric':<32} {'A median [q1, q3] n':>38} "
          f"{'B median [q1, q3] n':>38} {'change':>8} {'bound':>6}  "
          f"mark")
    for workload, name in sorted(set(a_runs) & set(b_runs)):
        spec = specs.get(name)
        if spec is None:
            continue
        a_rows, b_rows = a_runs[workload, name], b_runs[workload, name]
        a, b = summarize(a_rows), summarize(b_rows)
        if not a["median"] and not b["median"]:
            continue  # a layer this workload does not exercise
        mark, change = status_of(spec, a, b, a_rows, b_rows)
        failed += mark in ("worse", "differs")
        cells = [f"{s['median']:.6g} [{s['q1']:.4g}, {s['q3']:.4g}] "
                 f"{s['n']}" for s in (a, b)]
        bound = spec.get("bound")
        print(f"{workload:<14} {name:<32} {cells[0]:>38} "
              f"{cells[1]:>38} {change:>+8.1%} "
              f"{'' if bound is None else bound:>6}  {mark}")
    if failed:
        print(f"{failed} row(s) worse or differing", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
