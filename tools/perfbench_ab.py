#!/usr/bin/env python3
"""Alternating A/B comparison of two perfbench binaries.

    python3 tools/perfbench_ab.py PARENT_BIN CHANGE_BIN \\
        --workload esp32-apache [--pairs 10] [--seconds 25] [--seed 1]

Runs the two binaries (built from two checkouts with
`python3 perfbench/run.py`, which leaves them in
.bench_build/perfbench/perfbench) as alternating pairs on one workload
and seed, untraced. The side that runs first alternates from pair to
pair, so a slow or fast phase of a shared host falls on both sides
alike. The run length defaults to the benchmark's own (BENCHMARK.json
"run_seconds"). Each run's last stdout line is perfbench's JSON result.

Every end-to-end metric BENCHMARK.json declares is read from each run,
with the direction ("better": higher or lower) and the bound declared
there. Printed: each pair's refs/s and the per-pair ratio change/parent
of every metric; then, per metric, each side's median and quartiles,
the median per-pair ratio and its range, the pairs the change won (ties
count for neither) and a verdict:

  identical    every pair read the same value on both sides
  few pairs    fewer than ten pairs ran: no timing verdict
  gain         the change won >= 9/10 of the pairs and its median beats
               the parent's by more than the parent's quartile spread
  within bound the change's median is no worse than the parent's by
               more than the bound, and the parent's spread is inside
               the bound
  unresolved   the parent's quartile spread is wider than the bound
  WORSE        the change's median is worse than the bound allows

Exit status: 0 when every run reported a correct result, 1 when any
run failed or reported "correct": false, 2 on bad arguments.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              os.pardir, "BENCHMARK.json")


def run_once(binary, workload, seed, seconds, names):
    """One untraced perfbench run; returns {metric: value} or None."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("run failed (exit %d): %s" % (proc.returncode, " ".join(cmd)),
              file=sys.stderr)
        return None
    doc = json.loads(lines[-1])
    if doc.get("correct") is not True or doc.get("failed") != 0:
        print("incorrect result: %s" % " ".join(cmd), file=sys.stderr)
        return None
    return {n: float(doc["metrics"][n]["value"]) for n in names}


def quartiles(xs):
    """(q1, median, q3) of a non-empty sample."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[1], q[2]


def verdict(parent, change, wins, higher_better, bound):
    """Classify one metric's pairs (see the module docstring)."""
    if parent == change:
        return "identical"
    if len(parent) < 10:
        return "few pairs"
    q1, med_p, q3 = quartiles(parent)
    med_c = quartiles(change)[1]
    gain = med_c - med_p if higher_better else med_p - med_c
    if wins * 10 >= 9 * len(parent) and gain > q3 - q1:
        return "gain"
    if med_p == 0:
        return "unresolved"
    if -gain / abs(med_p) > bound:
        return "WORSE"
    if higher_better:
        all_better = min(change) > max(parent)
    else:
        all_better = max(change) < min(parent)
    if (q3 - q1) / abs(med_p) > bound and not all_better:
        return "unresolved"
    return "within bound"


def main():
    with open(BENCHMARK_JSON) as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    names = [m["name"] for m in metrics]

    ap = argparse.ArgumentParser(
        description="Alternating A/B pairs of two perfbench binaries.")
    ap.add_argument("parent", help="baseline perfbench binary")
    ap.add_argument("change", help="candidate perfbench binary")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--seed", type=int, default=1)
    a = ap.parse_args()
    if a.pairs < 1 or a.seconds <= 0:
        ap.error("--pairs must be >= 1 and --seconds > 0")

    sides = {"parent": [], "change": []}
    ok = True
    for i in range(a.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        got = {}
        for side in order:
            binary = a.parent if side == "parent" else a.change
            got[side] = run_once(binary, a.workload, a.seed, a.seconds,
                                 names)
        if got["parent"] is None or got["change"] is None:
            ok = False
            continue
        for side in sides:
            sides[side].append(got[side])
        ratios = " ".join(
            "%s %.4f" % (n, got["change"][n] / got["parent"][n]
                         if got["parent"][n] else float("nan"))
            for n in names)
        print("pair %d (%s first): refs_per_s parent %.6g change %.6g; "
              "ratios %s" % (i + 1, order[0], got["parent"]["refs_per_s"],
                             got["change"]["refs_per_s"], ratios))
        sys.stdout.flush()

    runs = len(sides["parent"])
    if runs:
        print("%s seed %d, %d pair(s) x %gs, ratio = change/parent:"
              % (a.workload, a.seed, runs, a.seconds))
        for m in metrics:
            n = m["name"]
            higher = m["better"] == "higher"
            par = [r[n] for r in sides["parent"]]
            chg = [r[n] for r in sides["change"]]
            wins = sum(1 for p, c in zip(par, chg)
                       if (c > p if higher else c < p))
            ratios = [c / p for p, c in zip(par, chg) if p]
            print("  %s (%s is better, bound %g): %s"
                  % (n, m["better"], m["bound"],
                     verdict(par, chg, wins, higher, m["bound"])))
            for side, xs in (("parent", par), ("change", chg)):
                q1, med, q3 = quartiles(xs)
                print("    %-6s median %.6g (quartiles %.6g - %.6g)"
                      % (side, med, q1, q3))
            if ratios:
                q1, med, q3 = quartiles(ratios)
                print("    ratio  median %.4f (quartiles %.4f - %.4f, "
                      "range %.4f - %.4f); change won %d/%d"
                      % (med, q1, q3, min(ratios), max(ratios), wins,
                         runs))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
