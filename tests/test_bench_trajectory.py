"""The benchmark trajectory: ``BENCH_<pr>.json`` at the repository root.

A PR that claims or risks a number checks in the medians, quartiles
and environment of its ten-seed ``bench/run.py --out`` set (ROADMAP
item 1), one schema, so a later reader gets a curve instead of prose.
The files are only useful while they speak ``BENCHMARK.json``'s
vocabulary, which is what this pins.
"""

import glob
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(path):
    with open(path) as handle:
        return json.load(handle)


def test_trajectory_files_parse_and_name_only_declared_rows():
    contract = _load(os.path.join(ROOT, "BENCHMARK.json"))
    workloads = {w["name"] for w in contract["workloads"]}
    units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    paths = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))
    assert paths, "no BENCH_<pr>.json checked in"
    for path in paths:
        doc = _load(path)
        name = os.path.basename(path)
        assert name == f"BENCH_{doc['pr']}.json"
        assert doc["parent"] and doc["protocol"]["seeds"], name
        for side in ("parent", "change"):
            assert {"nproc", "python", "slowdown_median"} <= \
                set(doc["env"][side]), name
        assert doc["workloads"], name
        assert set(doc["workloads"]) <= workloads, name
        for workload, rows in doc["workloads"].items():
            assert rows and set(rows) <= set(units), (name, workload)
            for metric, row in rows.items():
                assert row["unit"] == units[metric]
                for side in ("parent", "change"):
                    stats = row[side]
                    assert stats["n"] >= 1
                    assert stats["q1"] <= stats["median"] <= stats["q3"]
