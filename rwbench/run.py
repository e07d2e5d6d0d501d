#!/usr/bin/env python3
"""Builds the random-worlds service from source and runs one benchmark workload.

    python3 rwbench/run.py --workload warm_read|cold_solve|mixed_tcp \
        --seed N --seconds S --trace 0|1 [--setup-reps K] [--audit]
    python3 rwbench/run.py --regen-refs       # re-record the reference answers
    python3 rwbench/run.py --regen-catalog    # re-cut the work items, then the references

The last stdout line is one JSON object: correct, attempted, failed and metrics
(the end-to-end metrics of BENCHMARK.json with --trace 0, the per-layer ones with
--trace 1).  The line before it stamps the environment.  rwbench/README.md
describes the workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "rwbench"
BUILD = ROOT / ".bench_build" / "cmake"
STATE = ROOT / ".bench_build" / "state"
RUNS = ROOT / ".bench_build" / "runs"
WORKLOADS = ("warm_read", "cold_solve", "mixed_tcp")
# Set-up repetitions per run (setup_s is their median).  cold_solve's set-up
# is one cold pass of ~0.1 s, so it affords more repetitions.
SETUP_REPS = {"warm_read": 5, "cold_solve": 9, "mixed_tcp": 5}
RUN_DEADLINE_S = 170  # a run must end within 180 s of its build


def log(message):
    print(f"rwbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver and rwld; returns the build type."""
    if not (BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(BENCH), "-B", str(BUILD), *generator,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True, timeout=300)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs, "--target", "rwbench"],
                   stdout=sys.stderr, check=True, timeout=850)
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            return line.split("=", 1)[1]
    return ""


def cpu_plan(workload):
    """Fixed CPU sets (client, rwld): every process on the last allowed CPU.
    A CPU the benchmark keeps busy is one the kernel gives other tenants' work
    least often; see rwbench/README.md for the placements measured."""
    last = sorted(os.sched_getaffinity(0))[-1:]
    return last, (last if workload == "mixed_tcp" else [])


def source_hash():
    """The commit when this is a git checkout, else a hash of the sources."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    files = [p for d in ("src", "tools", "rwbench") for p in (ROOT / d).rglob("*")
             if p.is_file()]
    for path in sorted(files + [ROOT / "CMakeLists.txt"]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "tree:" + digest.hexdigest()[:16]


def fs_type(path):
    out = subprocess.run(["stat", "-f", "-c", "%T", str(path)],
                         capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def cpu_model():
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return "unknown"


def run_driver(args, cpus, deadline):
    """Runs the driver pinned to `cpus`; returns its parsed result line."""
    def pin():
        os.sched_setaffinity(0, cpus)
    proc = subprocess.run(args, stdout=subprocess.PIPE, text=True, preexec_fn=pin,
                          cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"driver exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-reps", type=int)
    parser.add_argument("--audit", action="store_true",
                        help="cold_solve: print each item's share of run time and "
                             "the ops answered by each strategy")
    parser.add_argument("--regen-refs", action="store_true")
    parser.add_argument("--regen-catalog", action="store_true")
    opts = parser.parse_args()

    build_type = build()
    deadline = time.monotonic() + RUN_DEADLINE_S
    binary = BUILD / "rwbench"
    data = BENCH / "data"
    if opts.regen_catalog or opts.regen_refs:
        cpus = cpu_plan("warm_read")[0]
        steps = (["--regen-catalog"] if opts.regen_catalog else []) + ["--regen-refs"]
        for step in steps:
            subprocess.run([str(binary), step, "--data", str(data)], check=True,
                           preexec_fn=lambda: os.sched_setaffinity(0, cpus))
        return 0
    if opts.workload is None:
        parser.error("--workload is required")

    client, server = cpu_plan(opts.workload)
    STATE.mkdir(parents=True, exist_ok=True)
    args = [str(binary), "--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", str(opts.trace),
            "--setup-reps", str(opts.setup_reps or SETUP_REPS[opts.workload]),
            "--data", str(data), "--state", str(STATE)]
    if opts.workload == "mixed_tcp":
        args += ["--rwld", str(BUILD / "rwl" / "rwld"),
                 "--server-cpus", ",".join(map(str, server))]
    if opts.audit:
        args.append("--audit")
    result = run_driver(args, client, deadline)

    env = {
        "workload": opts.workload, "seed": opts.seed, "trace": opts.trace,
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "affinity": {"driver": result["env"].get("client_cpus"),
                     "rwld": result["env"].get("server_cpus")},
        "wal": result["env"].get("wal"),
        "state_fs": fs_type(STATE),
        "build_type": build_type, "source": source_hash(),
        "setup_s": result["env"].get("setup_s"),
        "ops": result["env"].get("ops"), "span_s": result["env"].get("span_s"),
    }
    RUNS.mkdir(parents=True, exist_ok=True)
    record = RUNS / f"{opts.workload}-seed{opts.seed}-trace{opts.trace}.json"
    record.write_text(json.dumps({"env": env, "result": result}, indent=1))
    print("rwbench env " + json.dumps(env), flush=True)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed",
                                                   "metrics")}), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.SubprocessError, OSError, RuntimeError, ValueError) as error:
        log(f"failed: {error}")
        sys.exit(1)
