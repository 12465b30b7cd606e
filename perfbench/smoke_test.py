#!/usr/bin/env python3
"""Fast smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json at a tiny size, untraced and
traced, through run.py, and checks that each run is correct and that
every metric BENCHMARK.json names for that mode is present, carries its
unit and is finite. Then checks that run.py fails without a result in a
tree that holds only BENCHMARK.json and the benchmark's own files.
Takes about a minute once the benchmark is built.
"""
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Programs per pass: enough to run every layer, small enough to be fast.
TINY = {"paper_kernels": 3, "corpus_small": 8, "daemon_mixed": 6}


def run(spec, workload, trace):
    command = [sys.executable, os.path.join(ROOT, spec["command"][1]),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--size", str(TINY[workload])]
    result = subprocess.run(command, cwd=ROOT, capture_output=True,
                            text=True, timeout=600)
    assert result.returncode == 0, (command, result.stderr[-2000:])
    return json.loads(result.stdout.strip().splitlines()[-1])


def check_metrics(result, expected, label):
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0, label
    assert result["attempted"] >= 1, label
    metrics = result["metrics"]
    for metric in expected:
        name = metric["name"]
        assert name in metrics, (label, "missing", name)
        assert metrics[name]["unit"] == metric["unit"], (label, name)
        value = metrics[name]["value"]
        assert isinstance(value, (int, float)), (label, name, value)
        assert math.isfinite(value), (label, name, value)


def check_refuses_without_sources():
    with tempfile.TemporaryDirectory(prefix=".perfbench-smoke-", dir=ROOT) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(bare, "perfbench"))
        result = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "corpus_small", "--seed", "1", "--seconds", "1", "--trace",
             "0"], cwd=bare, capture_output=True, text=True, timeout=180)
        assert result.returncode != 0, "ran without the SEER sources"
        assert '"metrics"' not in result.stdout, result.stdout


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in (w["name"] for w in spec["workloads"]):
        check_metrics(run(spec, workload, 0), spec["end_to_end"],
                      workload + " untraced")
        check_metrics(run(spec, workload, 1), spec["per_layer"],
                      workload + " traced")
        print("ok", workload)
    check_refuses_without_sources()
    print("ok refuses to run without sources")


if __name__ == "__main__":
    main()
