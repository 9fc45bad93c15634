#!/usr/bin/env python3
"""Run the benchmark in sets and report how well each end-to-end metric repeats.

    python3 bench/repeat.py [--sets 2] [--runs 10] [--seed 1] [--same-seed] [--workloads a,b]

A set is --runs runs of every workload, run r with seed --seed + r (or always
--seed with --same-seed). For each workload and end-to-end metric the script
prints every set's median, quartiles (statistics.quantiles(values, n=4)), the
spread (q3 - q1) / median and the largest deviation from the median, and flags
a spread above the metric's bound in BENCHMARK.json (setup_s excepted) or a
later set's median worse than the first set's by more than the bound. That is
the rule the driver applies to accept the benchmark. Run it from the root of
the repository; it runs one foreground process at a time.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    cmd = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=180)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} operations failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--same-seed", action="store_true")
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = [w for w in workloads if w in args.workloads.split(",")]

    # values[set][workload][metric] = [one value per run]
    values = []
    for s in range(args.sets):
        values.append({w: {m["name"]: [] for m in bench["end_to_end"]} for w in workloads})
        for w in workloads:
            for r in range(args.runs):
                seed = args.seed if args.same_seed else args.seed + r
                got = run_once(bench["command"], w, seed, bench["run_seconds"])
                for name, series in values[s][w].items():
                    series.append(got[name])
                print(f"set {s + 1} {w} seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in got.items()), file=sys.stderr)

    flagged = 0
    print("| workload | metric | set | median | q1 | q3 | spread | max dev | bound | |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for w in workloads:
        for m in bench["end_to_end"]:
            first = None
            for s in range(args.sets):
                v = values[s][w][m["name"]]
                med = statistics.median(v)
                q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
                spread = (q3 - q1) / med
                dev = max(abs(x - med) for x in v) / med
                flags = []
                if spread > m["bound"] and m["name"] != "setup_s":
                    flags.append("SPREAD")
                if first is None:
                    first = med
                else:
                    worse = (med - first) / first if m["better"] == "lower" else (first - med) / first
                    if worse > m["bound"]:
                        flags.append(f"SHIFT {worse:+.1%}")
                flagged += len(flags)
                print(f"| {w} | {m['name']} | {s + 1} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.1%} | {dev:.1%} | {m['bound']:.0%} | {' '.join(flags)} |")
    if flagged:
        sys.exit(f"{flagged} metric(s) outside their bound")


if __name__ == "__main__":
    main()
