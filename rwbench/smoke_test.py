#!/usr/bin/env python3
"""Smoke self-test of the benchmark: every workload, briefly, traced and not.

    python3 rwbench/smoke_test.py

Checks that each run's last line has exactly the keys correct, attempted,
failed and metrics; that every metric BENCHMARK.json names (end_to_end
untraced, per_layer traced) is emitted, numeric, with its unit, and nothing
else; and that no op failed.  Exits non-zero on the first problem.
"""
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check_run(workload, trace, expected):
    out = subprocess.run([sys.executable, str(ROOT / "rwbench" / "run.py"),
                          "--workload", workload, "--seed", "1", "--seconds", "1",
                          "--trace", str(trace), "--setup-reps", "1"],
                         capture_output=True, text=True, cwd=ROOT, timeout=900)
    where = f"{workload} trace={trace}"
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return f"{where}: exit {out.returncode}\n{out.stderr[-2000:]}"
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return f"{where}: result keys {sorted(result)}"
    if result["failed"] != 0 or not result["correct"] or result["attempted"] < 1:
        return f"{where}: {result['failed']} of {result['attempted']} ops failed"
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        return (f"{where}: missing {sorted(set(expected) - set(metrics))}, "
                f"unexpected {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        value = metrics[name].get("value")
        if metrics[name].get("unit") != unit:
            return f"{where}: {name} has unit {metrics[name].get('unit')}, not {unit}"
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return f"{where}: {name} = {value!r}"
    return None


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {trace: {m["name"]: m["unit"] for m in bench[key]}
                for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            problem = check_run(workload, trace, expected[trace])
            if problem:
                print(f"FAIL {problem}")
                return 1
            print(f"ok   {workload} trace={trace}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
