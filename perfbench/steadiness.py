#!/usr/bin/env python3
"""Steadiness report for the benchmark.

Runs the benchmark command of BENCHMARK.json in two sets of runs of one
build, one run per seed 1..10 and workload with tracing off and
run_seconds per run, and prints, for every workload and end-to-end metric,
each set's median and quartile spread (the distance between the first and
third quartile as a share of the median, from
statistics.quantiles(values, n=4)).  A metric passes when both spreads are
within its bound and the two medians differ by no more than the bound, in
either direction.  Spreads above a third of the bound are marked "tight".
It also checks that each count metric repeats exactly for a seed across the
sets, and that every solver of every run reports the same sim.fused_ops.
Exits with 1 when anything fails.

Run from the root of the repository:

    python3 perfbench/steadiness.py
"""

import json
import os
import re
import statistics
import subprocess
import sys

SETS = 2
SEEDS = range(1, 11)
COUNT_METRICS = ("be_calls_per_rhs", "shots_per_rhs", "iterations_per_rhs")
FUSED_NOTE = "# sim.fused_ops:"


def run_once(command, workload, seed, seconds):
    """One run's metrics, plus the fused-circuit sizes its notes report."""
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, stdout=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: wrong answers {result}")
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    fused = next(line for line in lines if line.startswith(FUSED_NOTE))
    metrics["sim.fused_ops"] = sorted(set(re.findall(r"\d+", fused)))
    return metrics


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = bench["command"]
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]

    # sets[s][workload][seed] = {metric: value}
    sets = []
    for s in range(SETS):
        runs = {w: {} for w in workloads}
        for seed in SEEDS:
            for w in workloads:
                runs[w][seed] = run_once(command, w, seed, seconds)
                print(f"set {s + 1} seed {seed} {w}: done", file=sys.stderr)
        sets.append(runs)

    ok = True
    print(f"{SETS} sets x {len(SEEDS)} seeds, {seconds} s per run, "
          f"{os.cpu_count()} CPUs")
    header = f"{'workload':<22} {'metric':<19} {'bound':>5}"
    for s in range(SETS):
        header += f" {'median' + str(s + 1):>12} {'spread' + str(s + 1):>8}"
    print(header + "  verdict")
    for w in workloads:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            line = f"{w:<22} {name:<19} {bound:>5.3f}"
            notes = []
            medians = []
            for s, runs in enumerate(sets):
                values = [runs[w][seed][name] for seed in SEEDS]
                med = statistics.median(values)
                sp = spread(values)
                medians.append(med)
                line += f" {med:>12.6g} {sp:>8.2%}"
                if sp > bound:
                    notes.append(f"spread{s + 1} over bound")
                elif sp > bound / 3:
                    notes.append(f"spread{s + 1} tight")
            moved = (medians[-1] - medians[0]) / medians[0]
            if abs(moved) > bound:
                notes.append(f"median moved {moved:+.2%}")
            if name in COUNT_METRICS:
                if any(runs[w][seed][name] != sets[0][w][seed][name]
                       for runs in sets for seed in SEEDS):
                    notes.append("count differs between sets")
            failed = [n for n in notes if "tight" not in n]
            ok &= not failed
            verdict = "FAIL" if failed else "pass"
            print(f"{line}  {verdict}" + (f" ({'; '.join(notes)})" if notes else ""))
    # The measured fusion cost model could fuse differently in another
    # process; every solver of every run must have the same fused circuit.
    for w in workloads:
        seen = sorted({n for runs in sets for seed in SEEDS
                       for n in runs[w][seed]["sim.fused_ops"]}, key=int)
        repeats = len(seen) == 1
        ok &= repeats
        print(f"{w:<22} sim.fused_ops seen: {', '.join(seen)}  "
              f"{'pass' if repeats else 'FAIL (fused circuit differs between solvers)'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
