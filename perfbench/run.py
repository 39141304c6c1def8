#!/usr/bin/env python3
"""Builds and runs one workload of the B-IoT end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Builds perfbench/ (which compiles the repository's src/ libraries from
source) into .bench_build/ with CMake in Release mode, runs the workload and
re-prints its output. The last line of standard output is the JSON result
{"correct", "attempted", "failed", "metrics"}: every end-to-end metric of
BENCHMARK.json with --trace 0, every per-layer metric with --trace 1. A
traced run also leaves its spans in .bench_build/traces/.

Exits non-zero without printing a result when the build fails (as it does
outside a full checkout), the run crashes or times out, or its result does
not match BENCHMARK.json. See perfbench/README.md for the workloads.
"""
import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
BINARY = os.path.join(BUILD_DIR, "biot_perf")
RUN_TIMEOUT_S = 170
WORKLOADS = ("factory", "ingress_burst", "tips_under_write", "gateway_restart")


def fail(message, code):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "biot_perf",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd), 1)


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def validate(line, trace):
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("result keys " + str(sorted(result)))
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            raise ValueError(key + " is not a whole number")
    if result["attempted"] < 1:
        raise ValueError("attempted < 1")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expected = expected_metrics(trace)
    if got != expected:
        raise ValueError("metrics differ from BENCHMARK.json: %s" % sorted(
            set(got.items()) ^ set(expected.items())))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative", 2)

    os.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    build()

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD_DIR, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        # run() kills the child on timeout and waits for it to end.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 3)
    if proc.returncode != 0:
        fail("benchmark exited with code %d" % proc.returncode, 3)
    lines = proc.stdout.rstrip("\n").splitlines()
    try:
        validate(lines[-1], args.trace)
    except (IndexError, ValueError, KeyError, TypeError) as err:
        fail("malformed result: %s" % err, 4)
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
