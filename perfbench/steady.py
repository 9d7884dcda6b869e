"""Steadiness check: run the benchmark in two sets of runs of the same code
and compare them by the bounds in BENCHMARK.json.

Usage, from the root of a checkout:

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --workloads rotation-check --runs 5

It makes two sets of runs, each run as long as BENCHMARK.json's run_seconds.
Run i of set s (both counted from 0) uses seed 1 + 1000*s + i. For each
workload and end-to-end metric it prints each set's median and quartiles and
the spread, which is the distance between the quartiles as a share of the
median, and then whether:

* the spread of each set stays within the metric's bound, and below a third
  of it (the margin the benchmark aims for);
* the two sets' medians agree within the bound: they differ by at most the
  bound, as a share of the first set's median, in either direction;
* the share of failed operations is the same in both sets.

The summary is also written to perfbench/results/steady-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit("run failed (%d): %s\n%s" % (out.returncode, " ".join(cmd), out.stderr))
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "spread": (q3 - q1) / statistics.median(values)}


def differ_by(first, second):
    return abs(second - first) / first


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--runs", type=int, default=10)
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2, for quartiles")
    workloads = args.workloads.split(",")

    results = {w: [[] for _ in range(SETS)] for w in workloads}
    started = time.time()
    for s in range(SETS):
        for i in range(args.runs):
            for w in workloads:
                seed = 1 + 1000 * s + i
                r = run_once(bench, w, seed)
                results[w][s].append(r)
                print("set %d run %d %s seed %d: correct=%s %d/%d failed  %s" % (
                    s + 1, i + 1, w, seed, r["correct"], r["failed"], r["attempted"],
                    "  ".join("%s=%.5g" % (k, v["value"]) for k, v in r["metrics"].items())), flush=True)

    ok = True
    summary = {}
    for w in workloads:
        print("\n== %s" % w)
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in results[w]]
        same_share = len(set(shares)) == 1
        correct = all(r["correct"] for runs in results[w] for r in runs)
        ok &= same_share and correct
        print("all correct: %s   failed share per set: %s %s" % (correct, shares, "same" if same_share else "DIFFERENT"))
        summary[w] = {"failed_share": shares, "correct": correct, "metrics": {}}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = [summarise([r["metrics"][name]["value"] for r in runs]) for runs in results[w]]
            line = []
            for k, st in enumerate(sets):
                line.append("set%d median %.5g [q1 %.5g, q3 %.5g] spread %.2f%%" % (
                    k + 1, st["median"], st["q1"], st["q3"], 100 * st["spread"]))
            spread_ok = all(st["spread"] <= bound for st in sets)
            margin_ok = all(st["spread"] < bound / 3 for st in sets)
            drift = differ_by(sets[0]["median"], sets[1]["median"])
            agree = drift <= bound
            ok &= spread_ok and agree
            print("  %-22s bound %.0f%%  %s" % (name, 100 * bound, "; ".join(line)))
            print("  %-22s spread within bound: %s, below a third: %s; medians differ by %.2f%%: %s" % (
                "", spread_ok, margin_ok, 100 * drift, "agree" if agree else "OVER BOUND"))
            summary[w]["metrics"][name] = {"sets": sets, "spread_ok": spread_ok, "below_third": margin_ok,
                                           "medians_differ_by": drift, "agree": agree}
    print("\n%s after %.0f s" % ("STEADY" if ok else "NOT STEADY", time.time() - started))
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    out = os.path.join(HERE, "results", "steady-%d.json" % int(started))
    with open(out, "w") as f:
        json.dump({"args": vars(args), "summary": summary, "runs": results}, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
