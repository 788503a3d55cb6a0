#!/usr/bin/env python3
"""Steadiness command: runs each workload N times and summarises the spread.

Run from the root of a checkout:

    python3 perfbench/steady.py --runs 10 --save set1.json
    python3 perfbench/steady.py --runs 10 --save set2.json
    python3 perfbench/steady.py --compare set1.json set2.json

Every workload in BENCHMARK.json runs N times, with seeds 1..N. For every
metric the summary gives the median, the first and third quartiles (as
statistics.quantiles(values, n=4) gives them), the minimum and maximum,
and the quartile distance as a share of the median next to the metric's
bound from BENCHMARK.json ("ok" when the spread is below a third of the
bound, "within" when below the bound; setup_s has no spread limit). It
also prints the share of failed operations. --compare checks a second set
against a first: no median may move from the first's by more than its
bound, in either direction, and the failed shares must be equal.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload, seed, trace):
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    # The program prints the host's stolen CPU share; keep it beside the run.
    for line in proc.stderr.splitlines():
        if line.startswith("host cpu stolen during the run:"):
            result["host_steal_pct"] = float(line.split(":")[1].strip(" %"))
    return result


def summarise(spec, results, trace):
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    for workload, runs in results.items():
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        steal = [r.get("host_steal_pct", 0.0) for r in runs]
        print(f"\n{workload}: {len(runs)} runs, {attempted} operations, "
              f"{failed} failed, failed shares {shares}; host CPU stolen "
              f"{min(steal):.2f}-{max(steal):.2f}%")
        print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'min':>12} {'max':>12} {'spread':>8} {'bound':>6}")
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2 if q2 else float("nan")
            bound = m.get("bound")
            verdict = ""
            if bound is not None:
                verdict = ("n/a" if m["name"] == "setup_s"
                           else "ok" if spread < bound / 3
                           else "within" if spread <= bound else "WIDE")
            print(f"  {m['name']:34} {q2:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{min(values):12.6g} {max(values):12.6g} "
                  f"{spread:8.4f} {bound if bound is not None else '':>6} "
                  f"{verdict}")


def compare(spec, first_path, second_path):
    with open(first_path) as f:
        first = json.load(f)
    with open(second_path) as f:
        second = json.load(f)
    ok = True
    for workload in first:
        a, b = first[workload], second.get(workload, [])
        share = lambda runs: sum(r["failed"] for r in runs) / max(
            1, sum(r["attempted"] for r in runs))
        if share(a) != share(b):
            ok = False
            print(f"{workload}: failed share {share(a)} vs {share(b)}")
        for m in spec["end_to_end"]:
            va = statistics.median(r["metrics"][m["name"]]["value"] for r in a)
            vb = statistics.median(r["metrics"][m["name"]]["value"] for r in b)
            change = (vb - va) / va if va else 0.0
            verdict = "ok" if abs(change) <= m["bound"] else "MOVED"
            ok = ok and verdict == "ok"
            print(f"{workload:12} {m['name']:18} {va:12.6g} -> {vb:12.6g} "
                  f"({100 * change:+.2f}%, bound {100 * m['bound']:.0f}%) "
                  f"{verdict}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="write every run's report here")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    spec = load_spec()
    if args.compare:
        return compare(spec, *args.compare)
    results = {}
    for workload in (w["name"] for w in spec["workloads"]):
        results[workload] = []
        for seed in range(1, args.runs + 1):
            results[workload].append(run_once(spec, workload, seed, args.trace))
            print(f"{workload} seed {seed} done", file=sys.stderr)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(results, f, indent=1)
    summarise(spec, results, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
