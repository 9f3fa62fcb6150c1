#!/usr/bin/env python3
"""Caldera end-to-end benchmark runner.

Builds perfbench/ (which compiles the library from src/) into .bench_build
at the checkout root, runs one workload in a process of its own, and prints
that process's context block and detail lines followed by one JSON line:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The metrics are the ones BENCHMARK.json declares: its end_to_end metrics
with --trace 0, its per_layer metrics with --trace 1.

  python3 perfbench/run.py --workload sparse-archive --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["sparse-archive", "fleet-scan", "live-append"]
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the benchmark binary; output to stderr."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "caldera_perf",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "caldera_perf")


def git_sha():
    """The checkout's commit, or "none" outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short",
                              "HEAD"], capture_output=True, text=True,
                             env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def run_workload(binary, workload, args, names, data_dir, sha):
    """Runs one workload; returns its result restricted to `names`, or None."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", data_dir, "--git-sha", sha]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: no result within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return None
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0:
        print(f"{workload}: exit code {proc.returncode}", file=sys.stderr)
        return None
    try:
        result = json.loads(lines[-1])
        metrics = {name: result["metrics"][name] for name in names}
    except (ValueError, KeyError) as err:
        print(f"{workload}: bad or incomplete result line ({err!r})",
              file=sys.stderr)
        return None
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    names = [m["name"] for m in
             declared["per_layer" if args.trace else "end_to_end"]]

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"build failed: {err}", file=sys.stderr)
        return 1
    data_dir = os.path.join(build_dir, "data")
    os.makedirs(data_dir, exist_ok=True)
    sha = git_sha()

    if args.workload != "all":
        result = run_workload(binary, args.workload, args, names, data_dir,
                              sha)
        if result is None:
            return 1
        print(json.dumps(result))
        return 0

    # Every workload, one process each; metric names get a workload prefix.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        print(f"## workload {workload}")
        result = run_workload(binary, workload, args, names, data_dir, sha)
        if result is None:
            return 1
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
