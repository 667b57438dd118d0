#!/usr/bin/env python3
"""Build joinbench from this checkout's sources and run one workload.

    python3 joinbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Workloads: selfjoin_gist, point_sift, gateway_sift, knn_churn_tiny.

The build goes to $CARGO_TARGET_DIR/joinbench (default .bench_build/joinbench,
relative to the checkout root); traced runs write their Chrome trace to
.bench_out/<workload>-seed<n>.trace.json.  Build output goes to stderr; the
benchmark's own output goes to stdout, and its last line is the result JSON.
The reference tests run before every measurement, and a failing build or
reference test ends the run with a non-zero exit code and no result.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "joinbench")
WORKLOADS = ("selfjoin_gist", "point_sift", "gateway_sift", "knn_churn_tiny")
RUN_TIMEOUT_S = 160


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "joinbench")


def nproc():
    return len(os.sched_getaffinity(0))


def build(bdir):
    """Configure once, then build; every step's output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", str(min(4, nproc())),
                  "--target", "joinbench", "reference_test"])
    steps.append([os.path.join(bdir, "reference_test")])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("joinbench: step failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def bench_env():
    """The library's environment knobs are fixed, not inherited: a pinned
    kernel, topology or thread count in the caller's shell would change what
    is measured.  The pool gets one slot per CPU this process may use."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("FASTED_")}
    env["FASTED_THREADS"] = str(nproc())
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    bdir = build_dir()
    if not build(bdir):
        return 1

    cmd = [os.path.join(bdir, "joinbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            out_dir, f"{args.workload}-seed{args.seed}.trace.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              env=bench_env(), timeout=RUN_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired:
        print(f"joinbench: no result within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print(f"joinbench: exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("joinbench: malformed result line", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
