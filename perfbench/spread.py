#!/usr/bin/env python3
"""Steadiness check: run one workload over several seeds and report, per
end-to-end metric, the median and the quartile spread (Q3 - Q1, as
statistics.quantiles(n=4) gives them, over the median), calibrated and
raw side by side.  Every run also leaves its timed samples in
.perfbench/samples-*.json for offline analysis.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10]
"""

import argparse
import json
import statistics
import subprocess
import sys
import os

HERE = os.path.dirname(os.path.abspath(__file__))


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    runs = []
    for seed in seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=True).stdout
        lines = out.strip().splitlines()
        raw, result = json.loads(lines[-2]), json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            sys.exit("seed %d: incorrect result" % seed)
        runs.append((raw, result))
        print("seed %d: k_measured %.1f ms" % (seed, raw["k_measured"]),
              file=sys.stderr)
    print("%-20s %14s %10s %10s" % ("metric", "median", "spread", "raw"))
    for name in runs[0][1]["metrics"]:
        cal = [r["metrics"][name]["value"] for _, r in runs]
        raw = [w["raw"][name]["value"] for w, _ in runs]
        print("%-20s %14.6g %9.1f%% %9.1f%%" % (
            name, statistics.median(cal), 100 * spread(cal),
            100 * spread(raw)))
    k = [w["k_measured"] for w, _ in runs]
    print("%-20s %14.6g %9s %9.1f%%" % ("k_measured_ms", statistics.median(k),
                                       "", 100 * spread(k)))


if __name__ == "__main__":
    main()
