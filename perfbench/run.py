#!/usr/bin/env python3
"""Repo benchmark runner (see perfbench/README.md).

    python3 perfbench/run.py --workload serve_churn --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 7

Builds perfbench/ (the library sources plus the benchmark binary) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs
each requested workload in its own process. The binary's report is
relayed to stdout; the last line is one JSON object with the keys
correct, attempted, failed and metrics. Exits non-zero, without a
result line, when the build or any run fails.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["sweep_paper", "serve_churn", "serve_resume"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
BUILD_JOBS = "2"


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def child_env():
    """Keep compiler and program temp files inside the build directory."""
    tmp = os.path.join(build_root(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configure once, then (re)build; returns the binary path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "serving_engine.hpp")):
        log(f"library sources not found under {ROOT}/src")
        return None
    bdir = os.path.join(build_root(), "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "-j", BUILD_JOBS])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=child_env(), timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build step failed: {e}")
            return None
        if done.returncode != 0:
            log(f"build step failed ({done.returncode}): {' '.join(cmd)}")
            return None
    return os.path.join(bdir, "tagecon_perfbench")


def run_workload(exe, workload, seed, seconds, trace):
    """Run one workload in its own process; returns (report lines, result)."""
    out_dir = os.path.join(build_root(), "runs", f"{workload}-seed{seed}-trace{trace}")
    cmd = [exe, f"--workload={workload}", f"--seed={seed}", f"--seconds={seconds}",
           f"--trace={trace}", f"--out={out_dir}"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              env=child_env(), timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"{workload}: {e}")
        return None
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        log(f"{workload}: exited with {done.returncode}")
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"{workload}: last output line is not a JSON result")
        return None
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        log(f"{workload}: malformed result keys {sorted(result)}")
        return None
    if trace:
        # The traced run's Chrome trace must parse.
        path = os.path.join(out_dir, "trace.json")
        try:
            with open(path) as f:
                events = json.load(f)["traceEvents"]
        except (OSError, ValueError, KeyError) as e:
            log(f"{workload}: bad Chrome trace {path}: {e}")
            return None
        lines.insert(-1, f"chrome trace: {len(events)} events in {path}")
    return lines[:-1], result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    exe = build()
    if exe is None:
        return 1
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for w in workloads:
        ran = run_workload(exe, w, args.seed, args.seconds, args.trace)
        if ran is None:
            return 1
        lines, results[w] = ran
        print("\n".join(lines), flush=True)
    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
