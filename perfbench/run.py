#!/usr/bin/env python3
"""Builds the SparseNN benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <fig7-uvon|eie-uvoff|serve-mix>
                             --seed <n> --seconds <s> --trace <0|1>

The benchmark is compiled in Release into .bench_build/perfbench under
the repository root (the first run builds; later runs only check that
the build is current). Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. A traced run also writes its
spans to .bench_build/traces/<workload>-seed<n>.csv.

Exits nonzero, printing no result, when the build fails, the benchmark
fails, or its result does not carry exactly the metrics BENCHMARK.json
names for the mode (end_to_end untraced, per_layer traced).
"""

import argparse
import json
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170  # one run must end within 180 s


def build(source_dir, build_dir):
    log = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", source_dir, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=log, stderr=log)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=log, stderr=log)
    return os.path.join(build_dir, "perfbench")


def check_metrics(root, result, traced):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if traced else "end_to_end"]}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are %s" % sorted(result)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(n for n in set(got) & set(expected)
                       if got[n] != expected[n])
        return "metrics differ from BENCHMARK.json: missing %s, extra %s, " \
               "unit mismatch %s" % (missing, extra, units)
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    bench_build = os.path.join(root, ".bench_build")
    try:
        binary = build(here, os.path.join(bench_build, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    traced = args.trace == "1"
    if traced:
        traces = os.path.join(bench_build, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%d.csv" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print("perfbench: benchmark exited with %d" % proc.returncode,
              file=sys.stderr)
        return proc.returncode or 1
    try:
        result = json.loads(lines[-1])
        problem = check_metrics(root, result, traced)
    except (OSError, ValueError, KeyError, TypeError) as e:
        problem = "unreadable result or BENCHMARK.json: %s" % e
    if problem:
        sys.stderr.write(proc.stdout)
        print("perfbench: %s" % problem, file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
