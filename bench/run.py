#!/usr/bin/env python3
"""One benchmark for the Eden pipeline.

    python3 bench/run.py [--workload W] [--seed S] [--seconds N]
                         [--trace 0|1] [--smoke] [--out F]

With ``--workload`` and ``--trace`` both given this process runs that
one workload, untraced (end-to-end metrics) or traced (per-layer
metrics), checks its outputs, prints every metric by name with its
unit and ends with one JSON line (exit code 0 even when that line
says ``"correct": false``).  With either left out it fans out:
one fresh child process per (workload, trace) pair, so
``peak_rss_mb`` is that child's own high-water mark and no workload
warms another's caches.  Everything is single-process, single-thread
and opens no OS connection.

``BENCHMARK.json`` at the repository root declares the workloads and
the metrics with their units, directions and bounds; this file prints
exactly those.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import subprocess
import sys
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def parse_args(argv: Optional[List[str]], contract: dict):
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="job sizes / 20: checks the plumbing")
    parser.add_argument("--out", help="append one JSON line per run")
    return parser.parse_args(argv), names


def fan_out(args, names: List[str]) -> int:
    """One child per (workload, trace) pair; returns the exit code."""
    workloads = [args.workload] if args.workload else names
    traces = [args.trace] if args.trace is not None else [0, 1]
    status = 0
    for workload in workloads:
        for trace in traces:
            command = [sys.executable, os.path.abspath(__file__),
                       "--workload", workload, "--trace", str(trace),
                       "--seed", str(args.seed),
                       "--seconds", str(args.seconds)]
            if args.smoke:
                command.append("--smoke")
            if args.out:
                command += ["--out", args.out]
            print(f"== {workload} --trace {trace}", flush=True)
            child = subprocess.run(command, stdout=subprocess.PIPE,
                                   text=True)
            print(child.stdout, end="", flush=True)
            lines = child.stdout.splitlines()
            if child.returncode or not lines or \
                    not json.loads(lines[-1])["correct"]:
                status = 1
    return status


def environment() -> Dict[str, object]:
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "loadavg_before": list(os.getloadavg())}


def run_leaf(args, contract: dict) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    env = environment()
    seconds = 1 if args.smoke else args.seconds
    module = importlib.import_module(args.workload)
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        result = module.run_traced(
            args.seed, seconds, args.smoke,
            os.path.join(OUT_DIR, f"trace-{args.workload}.jsonl"))
        declared = contract["per_layer"]
    else:
        result = module.run(args.seed, seconds, args.smoke)
        result["metrics"]["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        declared = contract["end_to_end"]
    result["checks"]["inputs_follow_seed"] = not workloads.self_check(
        args.seed)
    env["loadavg_after"] = list(os.getloadavg())
    env["slowdown_median"] = result["slowdown_median"]

    measured = result["metrics"]
    metrics: Dict[str, Dict[str, object]] = {}
    for spec in declared:
        value = measured.get(spec["name"])
        if value is None:
            if not args.trace:
                print(f"end-to-end metric {spec['name']} was not "
                      f"measured", file=sys.stderr)
                return 3
            # A layer this workload does not exercise, or a probe
            # whose helper is gone: reads 0 by convention.
            value = 0.0
        stats = value if isinstance(value, dict) else {"value": value}
        metrics[spec["name"]] = {
            "value": stats["value"], "unit": spec["unit"],
            **{key: stats[key] for key in ("q1", "median", "q3", "n")
               if key in stats}}
    undeclared = sorted(set(measured) - set(metrics))
    if undeclared:
        print(f"measured but not declared in BENCHMARK.json: "
              f"{undeclared}", file=sys.stderr)
        return 3

    correct = all(result["checks"].values())
    for name, row in metrics.items():
        spread = (f"  q1 {row['q1']:.6g}  median {row['median']:.6g}"
                  f"  q3 {row['q3']:.6g}  n {row['n']}"
                  if "n" in row else "")
        print(f"{name:<34} {row['value']:>14.6g} {row['unit']}{spread}")
    for name, passed in sorted(result["checks"].items()):
        print(f"check {name}: {'ok' if passed else 'FAILED'}")
    print(f"ops_attempted {result['attempted']}  "
          f"ops_failed {result['failed']}  nproc {env['nproc']}  "
          f"python {env['python']}  loadavg "
          f"{env['loadavg_before'][0]:.2f} -> "
          f"{env['loadavg_after'][0]:.2f}  slowdown "
          f"{env['slowdown_median']:.3f}")
    if args.out:
        with open(args.out, "a") as handle:
            handle.write(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "seconds": seconds, "trace": args.trace,
                "smoke": args.smoke, "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "checks": result["checks"], "metrics": metrics,
                "env": env}) + "\n")
    print(json.dumps({
        "correct": correct, "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": row["value"], "unit": row["unit"]}
                    for name, row in metrics.items()}}))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    contract = load_contract()
    args, names = parse_args(argv, contract)
    if args.workload is None or args.trace is None:
        return fan_out(args, names)
    return run_leaf(args, contract)


if __name__ == "__main__":
    sys.exit(main())
