#!/usr/bin/env python3
"""Run the benchmark on several seeds and summarise each end-to-end metric.

From the repository root:

    python3 atpgbench/steadiness.py [--workloads iv-paper,...] [--seeds 1-10]
                                    [--append-trajectory LABEL]

For every workload and metric it prints the median, the quartiles
(statistics.quantiles(n=4)) and the spread, the distance between the
quartiles as a share of the median, against the metric's bound in
BENCHMARK.json.  With --append-trajectory it appends one record with
these figures to atpgbench/trajectory.jsonl.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds):
    out = subprocess.run(
        ["bash", "atpgbench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: verification failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--append-trajectory", metavar="LABEL")
    args = ap.parse_args()
    seeds = parse_seeds(args.seeds)
    summary = {}
    for workload in args.workloads.split(","):
        runs = [run(workload, s, bench["run_seconds"]) for s in seeds]
        summary[workload] = {}
        print(workload)
        for m in bench["end_to_end"]:
            values = [r[m["name"]] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med if med else 0.0
            summary[workload][m["name"]] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "n": len(values)}
            flag = "" if spread <= m["bound"] / 3 else "  (above a third of the bound)"
            print(f"  {m['name']:16s} median {med:12.4f} {m['unit']:5s} "
                  f"spread {spread:.4f} bound {m['bound']}{flag}")
            print("    " + " ".join(f"{v:.4g}" for v in values), flush=True)
    if args.append_trajectory:
        record = {"label": args.append_trajectory,
                  "date": time.strftime("%Y-%m-%d"),
                  "seeds": args.seeds, "run_seconds": bench["run_seconds"],
                  "workloads": summary}
        with open("atpgbench/trajectory.jsonl", "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
