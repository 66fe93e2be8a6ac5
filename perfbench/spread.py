#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload NAME [--seeds 1,2,...] [--seconds S]

Run from the repository root.  Runs the benchmark once per seed and prints,
for each end-to-end metric, its median and the distance between the first
and third quartiles as a share of the median, next to the metric's bound
from BENCHMARK.json.  Appends every result line to .perfbench/spread.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import spec  # noqa: E402


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    values = {m["name"]: [] for m in bench["end_to_end"]}
    log = open(os.path.join(spec.scratch_dir(), "spread.jsonl"), "a")
    for seed in args.seeds.split(","):
        t0 = time.monotonic()
        out = subprocess.run([*bench["command"], "--workload", args.workload, "--seed", seed,
                              "--seconds", str(args.seconds), "--trace", "0"],
                             capture_output=True, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        log.write(json.dumps({"workload": args.workload, "seed": int(seed), **result}) + "\n")
        log.flush()
        assert result["correct"], f"seed {seed}: {result}"
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        print(f"seed {seed}: {time.monotonic() - t0:.1f} s  " + "  ".join(
            f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()), flush=True)
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        print(f"{m['name']:>14}: median {med:.6g} {m['unit']}  spread {(q3 - q1) / med:.4f}  "
              f"bound {m['bound']}")


if __name__ == "__main__":
    main()
