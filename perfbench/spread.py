#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json once per (workload, seed), each run with
another seed, and prints for every end-to-end metric the median, the first
and third quartiles (statistics.quantiles(values, n=4)) and the spread
(Q3 - Q1) / median next to the metric's bound.

    python3 perfbench/spread.py --runs 10
    python3 perfbench/spread.py --runs 5 --workloads mail_day --seconds 20

Run it from the repository root. Output is a markdown table on stdout;
progress goes to stderr.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    argv = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(argv, capture_output=True, text=True, timeout=900, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        notes = [l for l in out.stdout.splitlines() if l.startswith("# CHECK FAILED")]
        raise SystemExit(f"{workload} seed {seed}: output checks failed: {notes}")
    return result


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args()

    print("| workload | metric | median | Q1 | Q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|")
    for workload in args.workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for k in range(args.runs):
            seed = args.first_seed + k
            result = run_once(bench["command"], workload, seed, args.seconds, 0)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={v[-1]:.6g}" for n, v in values.items()), file=sys.stderr)
        for m in bench["end_to_end"]:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"| {workload} | {m['name']} | {med:.6g} | {q1:.6g} | {q3:.6g} "
                  f"| {spread:.3f} | {m['bound']} |")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
