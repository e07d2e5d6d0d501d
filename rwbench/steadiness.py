#!/usr/bin/env python3
"""Steadiness report: runs workloads repeatedly and prints each metric's spread.

    python3 rwbench/steadiness.py [--workloads warm_read,cold_solve] [--runs 10]
        [--first-seed 1] [--sets 1] [--seconds S] [--trace 0|1]

Each run uses the next seed.  Per workload and metric it prints the first
set's median and quartiles (statistics.quantiles, n=4), every set's
interquartile spread as a share of its median, the largest max/min ratio of
any set, and the metric's bound from BENCHMARK.json.  A metric whose widest
spread is at most a third of the bound is marked "ok", within the bound
"WIDE", past it "OVER".  With --sets 2 the same seeds run twice, and the
report adds the second set's median drift against the first, which must stay
within the bound.  This is the evidence
for the bounds in BENCHMARK.json and the way to re-check them.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace):
    out = subprocess.run([sys.executable, str(ROOT / "rwbench" / "run.py"),
                          "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", str(trace)],
                         capture_output=True, text=True, cwd=ROOT, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed:\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} failed ops")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    low = min(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"),
            "max_min": max(values) / low if low else float("inf")}


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float)
    opts = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (opts.workloads.split(",") if opts.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = opts.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    worst = 0.0
    for workload in workloads:
        sets = []
        for set_index in range(opts.sets):
            runs = [run_once(workload, opts.first_seed + i, seconds, opts.trace)
                    for i in range(opts.runs)]
            sets.append({name: [run[name] for run in runs] for name in runs[0]})
        print(f"\n{workload}: {opts.runs} runs x {opts.sets} set(s), "
              f"{seconds:g} s each")
        print(f"{'metric':20} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread per set':>16} {'max/min':>7} {'bound':>6} {'drift':>7}")
        for name in sets[0]:
            per_set = [summarize(values[name]) for values in sets]
            stats = per_set[0]
            bound = bounds.get(name)
            drift = ""
            if len(sets) > 1:
                first, last = stats["median"], per_set[-1]["median"]
                drift = f"{(last - first) / first:+7.1%}" if first else ""
            widest = max(s["spread"] for s in per_set)
            verdict = ""
            if bound is not None and name != "setup_s":
                verdict = ("ok" if widest <= bound / 3 else
                           "WIDE" if widest <= bound else "OVER")
                worst = max(worst, widest / bound)
            spreads = " ".join(f"{s['spread']:.1%}" for s in per_set)
            print(f"{name:20} {stats['median']:12.6g} {stats['q1']:12.6g} "
                  f"{stats['q3']:12.6g} {spreads:>16} "
                  f"{max(s['max_min'] for s in per_set):7.3f} "
                  f"{'' if bound is None else f'{bound:.2f}':>6} {drift:>7} {verdict}")
        Path(ROOT / ".bench_build").mkdir(exist_ok=True)
        (ROOT / ".bench_build" / f"steadiness-{workload}.json").write_text(
            json.dumps(sets, indent=1))
    if worst:
        print(f"\nlargest spread/bound over all sets (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
