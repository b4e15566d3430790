#!/usr/bin/env python3
"""Build and run the end-to-end solve benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a javelin checkout. The first run configures and builds
the library and the benchmark into .bench_build/perfbench (Release); later
runs rebuild only what changed. Before measuring, the benchmark's statistics
self-test runs. The benchmark's standard output is passed through; its last
line is the JSON result. When BENCHMARK.json is present at the root, the
result's metric names are checked against it (end_to_end for --trace 0,
per_layer for --trace 1) and a mismatch fails the run.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src", "javelin")
    ):
        fail(f"no javelin sources under {ROOT}: run from a full checkout", 2)
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench", "perfbench_selftest"]
    )
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the benchmark's lines.
        try:
            res = subprocess.run(
                cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
                timeout=BUILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            fail(f"build step timed out: {' '.join(cmd)}")
        if res.returncode != 0:
            fail(f"build step failed ({res.returncode}): {' '.join(cmd)}")


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    build()
    selftest = subprocess.run(
        [os.path.join(BUILD, "perfbench_selftest")],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, timeout=60,
    )
    if selftest.returncode != 0:
        fail("statistics self-test failed")

    cmd = [
        os.path.join(BUILD, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        res = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    if res.returncode != 0:
        fail(f"benchmark exited with {res.returncode}")
    lines = res.stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed nothing")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("last line of the benchmark output is not JSON")
    want = expected_metrics(bool(args.trace))
    if want is not None and sorted(want) != sorted(result["metrics"]):
        missing = sorted(set(want) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(want))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    sys.stdout.write(res.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
