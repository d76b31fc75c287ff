#!/usr/bin/env python3
"""Steadiness check: how far each end-to-end metric spreads across runs.

    python3 cimbench/steady.py

Makes two sets of runs of every workload of BENCHMARK.json, each set
RUNS runs with seeds 1..RUNS for the file's run_seconds. Per workload
and end-to-end metric it prints each set's median and spread (distance
between the first and third quartile as a share of the median, from
statistics.quantiles(values, n=4)), how much worse the second median is
than the first, and the metric's bound. Exits 1 when a spread exceeds
its bound, the second median is worse than the first by more than the
bound, or any run fails an operation or a check. A spread should also
stay below a third of its bound; one that does not is flagged.
"""
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 10


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    if out.returncode != 0:
        sys.exit("%s seed %d exited %d" % (workload, seed, out.returncode))
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    seeds = range(1, RUNS + 1)
    sets = [{n: [run_once(bench, n, s) for s in seeds] for n in names}
            for _ in range(2)]

    ok = True
    for name in names:
        runs = sets[0][name] + sets[1][name]
        failed = sum(r["failed"] for r in runs)
        correct = all(r["correct"] for r in runs)
        print("%s: 2 x %d runs, %d of %d operations failed, correct %s"
              % (name, RUNS, failed, sum(r["attempted"] for r in runs),
                 correct))
        ok &= failed == 0 and correct
        for m in bench["end_to_end"]:
            vals = [[r["metrics"][m["name"]]["value"] for r in s[name]]
                    for s in sets]
            med = [statistics.median(v) for v in vals]
            spr = [spread(v) for v in vals]
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (med[1] - med[0]) / med[0]
            flag = ""
            if max(spr) > m["bound"] or worse > m["bound"]:
                flag = "  OVER BOUND"
                ok = False
            elif max(spr) > m["bound"] / 3:
                flag = "  over a third of the bound"
            print("  %-14s medians %-11.5g %-11.5g spreads %5.1f%% %5.1f%%"
                  "  worse %+6.1f%%  bound %4.1f%%%s"
                  % (m["name"], med[0], med[1], 100 * spr[0], 100 * spr[1],
                     100 * worse, 100 * m["bound"], flag))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
