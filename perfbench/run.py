#!/usr/bin/env python3
"""Runs one workload of the explain3d benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the runner from source on first use (CMake package in perfbench/,
library sources from src/) under .bench_build/ of the checkout, runs it,
and prints its report. The last line of stdout is one JSON object with
correct, attempted, failed, and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
Build output goes to stderr.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures (once) and builds the runner; returns its path."""
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out_dir, "-j", jobs],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(out_dir, "perfbench_runner")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    names = declared_metrics(args.trace)
    out_dir = build_dir()
    try:
        runner = build(out_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 3

    workdir = os.path.join(out_dir, f"workdir-{os.getpid()}")
    cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("runner timed out", file=sys.stderr)
        return 4
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(proc.stdout)
        print(f"runner exited {proc.returncode} without a result",
              file=sys.stderr)
        return proc.returncode or 5
    for line in lines[:-1]:
        print(line)

    metrics = {}
    for name in names:
        m = result["metrics"].get(name)
        if m is None or not isinstance(m["value"], (int, float)) or \
                not math.isfinite(m["value"]):
            print(f"metric {name} missing from the runner's report",
                  file=sys.stderr)
            return 6
        metrics[name] = m
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
