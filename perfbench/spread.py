#!/usr/bin/env python3
"""Check that the benchmark is steady: run it once per seed on each workload
and report every end-to-end metric's spread against its bound.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--seconds S]

The spread of a metric is (Q3 - Q1) / median over the seeds, quartiles as
Python's statistics.quantiles(values, n=4) gives them. A spread above a
third of the metric's bound in BENCHMARK.json is flagged (setup_s is only
reported), as is any failed run; either makes the exit code 1. Raw results
go to .bench_out/spread-<workload>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()

    ok = True
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    for workload in args.workloads.split(","):
        results = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if res.returncode != 0:
                print(f"{workload} seed {seed}: run failed ({res.returncode})")
                ok = False
                continue
            lines = res.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            result["seed"] = seed
            # Noise context printed by the benchmark beside the result.
            steal = [ln.split()[1] for ln in lines if ln.startswith("machine.cpu_steal_frac")]
            result["cpu_steal_frac"] = float(steal[0]) if steal else None
            results.append(result)
            values = "  ".join(f"{k} {v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: {values}  cpu_steal_frac {result['cpu_steal_frac']}",
                  flush=True)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: {result['failed']} failed operations")
                ok = False
        with open(os.path.join(ROOT, ".bench_out", f"spread-{workload}.json"), "w") as f:
            json.dump(results, f, indent=1)
        if len(results) < 2:
            print(f"{workload}: fewer than two results")
            ok = False
            continue
        print(f"{workload}: {len(results)} runs")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if m["name"] != "setup_s" and spread > m["bound"] / 3:
                flag = "  <-- above bound/3"
                ok = False
            print(f"  {m['name']:<16} median {med:<12.6g} Q1 {q1:<12.6g} Q3 {q3:<12.6g} "
                  f"spread {spread:7.4f}  bound {m['bound']}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
