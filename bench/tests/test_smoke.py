"""Self-tests of the benchmark harness (``python -m pytest bench/tests``).

One ``--smoke`` fan-out (every workload, untraced and traced, about
20 s) is shared by the tests that read its output.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
COMPARE = os.path.join(BENCH, "compare.py")

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """(stdout JSON lines, --out records) of one smoke fan-out."""
    out = tmp_path_factory.mktemp("smoke") / "runs.jsonl"
    done = subprocess.run(
        [sys.executable, RUN, "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    printed = [json.loads(line) for line in done.stdout.splitlines()
               if line.startswith("{")]
    with open(out) as handle:
        records = [json.loads(line) for line in handle]
    return printed, records, str(out)


def test_contract_is_well_formed(contract):
    assert set(contract) == {"command", "paths", "run_seconds",
                             "workloads", "end_to_end", "per_layer"}
    assert contract["paths"] == ["bench"]
    assert 1 <= contract["run_seconds"] <= 60
    assert 2 <= len(contract["workloads"]) <= 8
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    names = [w["name"] for w in contract["workloads"]]
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    metrics = contract["end_to_end"] + contract["per_layer"]
    names += [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert all(m["better"] in ("lower", "higher") for m in metrics)
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    assert setup[0]["bound"] == max(m["bound"]
                                    for m in contract["end_to_end"])


def test_inputs_follow_the_seed():
    import workloads

    assert workloads.self_check(seed=1) == []
    assert workloads.self_check(seed=12345) == []


def test_every_declared_metric_is_reported(contract, smoke):
    printed, records, _ = smoke
    declared = {0: contract["end_to_end"], 1: contract["per_layer"]}
    seen = set()
    for record in records:
        want = {m["name"]: m["unit"] for m in declared[record["trace"]]}
        got = {name: row["unit"]
               for name, row in record["metrics"].items()}
        assert got == want, (record["workload"], record["trace"])
        assert all(isinstance(row["value"], (int, float))
                   for row in record["metrics"].values())
        assert record["correct"] and record["failed"] == 0, record
        assert record["attempted"] >= 1
        seen.add((record["workload"], record["trace"]))
    workloads = [w["name"] for w in contract["workloads"]]
    assert seen == {(w, t) for w in workloads for t in (0, 1)}
    for line in printed:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        for row in line["metrics"].values():
            assert set(row) == {"value", "unit"}
    assert len(printed) == len(records)


def test_end_to_end_metrics_are_never_zero(smoke):
    for record in smoke[1]:
        if record["trace"] == 0:
            assert all(row["value"] > 0
                       for row in record["metrics"].values()), record


def test_run_records_its_environment(smoke):
    for record in smoke[1]:
        env = record["env"]
        assert env["nproc"] >= 1
        assert re.match(r"^\d+\.\d+", env["python"])
        assert len(env["loadavg_before"]) == 3
        assert len(env["loadavg_after"]) == 3
        assert env["slowdown_median"] > 0


def test_traced_runs_write_their_spans(smoke):
    for record in smoke[1]:
        if record["trace"] == 1:
            path = os.path.join(BENCH, "out",
                                f"trace-{record['workload']}.jsonl")
            with open(path) as handle:
                span = json.loads(handle.readline())
            assert {"name", "start_ns", "end_ns", "parent",
                    "trace"} <= set(span)


def test_compare_accepts_equal_runs_and_rejects_a_regression(
        smoke, tmp_path):
    out = smoke[2]
    same = subprocess.run([sys.executable, COMPARE, out, out],
                          capture_output=True, text=True)
    assert same.returncode == 0, same.stdout + same.stderr
    assert " equal" in same.stdout

    slower = tmp_path / "slower.jsonl"
    with open(out) as source, open(slower, "w") as target:
        for line in source:
            record = json.loads(line)
            row = record["metrics"].get("scalar_us_per_unit")
            if row:
                for key in ("value", "q1", "q3"):
                    if key in row:
                        row[key] *= 3
            target.write(json.dumps(record) + "\n")
    worse = subprocess.run([sys.executable, COMPARE, out, str(slower)],
                           capture_output=True, text=True)
    assert worse.returncode == 1
    assert " worse" in worse.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "enclave_tag",
         "--seed", "1", "--seconds", "20", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert "{" not in done.stdout
