"""Run every workload over a range of seeds and summarise each end-to-end metric.

    python3 bench/steadiness.py --seeds 201-210

Run from the root of a checkout.  The workloads and the run length come
from ``BENCHMARK.json``.  For each metric it prints the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and the spread
(q3 - q1) / median, together with the share of failed operations.  Runs are
sequential.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench/steadiness.py")
    parser.add_argument("--seeds", required=True, help="first-last, e.g. 201-210")
    args = parser.parse_args(argv)
    first, last = (int(x) for x in args.seeds.split("-"))
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    run = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    for workload in (w["name"] for w in spec["workloads"]):
        values, shares = {}, set()
        for seed in range(first, last + 1):
            proc = subprocess.run([sys.executable, run, "--workload", workload, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                                  capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            shares.add((result["failed"], result["attempted"]))
            print(workload, seed, result["correct"], result["attempted"], result["failed"],
                  {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            print(f"{workload} {name}: median {statistics.median(vals):.4f} q1 {q1:.4f} "
                  f"q3 {q3:.4f} spread {(q3 - q1) / statistics.median(vals):.4f}")
        print(f"{workload} failed/attempted: {sorted({f / a for f, a in shares})}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
