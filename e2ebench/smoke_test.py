#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark (run from the repository root):

    python3 e2ebench/smoke_test.py

For every workload BENCHMARK.json keeps, a short --smoke run must print
every end-to-end metric (--trace 0) or every per-layer metric (--trace 1)
with its unit, both as a `metric` line and in the final JSON object, and
pass its correctness check.  A run with a corrupted expected answer, and a
run in which one operation fails, must each report correct=false and exit
non-zero.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "2",
               "--trace", str(trace), "--smoke", *extra]
    result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, timeout=600)
    lines = result.stdout.strip().splitlines()
    return result.returncode, lines, json.loads(lines[-1])


def check_metrics(workload, trace, specs):
    code, lines, final = run(workload, trace)
    where = f"{workload} --trace {trace}"
    assert code == 0, f"{where}: exit {code}"
    assert final["correct"] is True, f"{where}: correctness check failed"
    assert final["attempted"] >= 1, f"{where}: nothing attempted"
    assert set(final["metrics"]) == {m["name"] for m in specs}, (
        f"{where}: metric set differs: "
        f"{sorted(set(final['metrics']) ^ {m['name'] for m in specs})}")
    for spec in specs:
        got = final["metrics"][spec["name"]]
        assert got["unit"] == spec["unit"], f"{where}: {spec['name']} unit"
        assert isinstance(got["value"], (int, float)), f"{where}: value"
        pattern = re.compile(r"^metric\s+%s\s+\S+\s+%s\s+n=\d+$" % (
            re.escape(spec["name"]), re.escape(spec["unit"])))
        assert any(pattern.match(line) for line in lines), (
            f"{where}: no metric line for {spec['name']}")
    print(f"ok  {where}: {len(specs)} metrics")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        check_metrics(workload, 0, bench["end_to_end"])
        check_metrics(workload, 1, bench["per_layer"])
    for workload in workloads:
        code, _, final = run(workload, 0, "--corrupt-expected")
        assert code != 0 and final["correct"] is False, (
            f"{workload}: a corrupted expected answer passed the check")
        print(f"ok  {workload}: corrupted expected answer fails the check")
        code, _, final = run(workload, 0, "--inject-failure")
        assert code != 0 and final["correct"] is False and (
            final["failed"] >= 1), (
            f"{workload}: a failed operation passed the check")
        print(f"ok  {workload}: a failed operation fails the check")
    return 0


if __name__ == "__main__":
    sys.exit(main())
