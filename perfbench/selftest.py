#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny size, run twice.

    python3 perfbench/selftest.py

Run from the repository root.  Asserts that the two runs of each workload
give identical outputs (experiment text digests, the served decisions)
and identical simulated counters: engine.{events,correct,incorrect}, the
reactive.transitions.* counts, and the MSSP squash and speedup values of
figure7's configurations.  Also checks that BENCHMARK.json and
perfbench/spec.json agree on the workloads and that every per-layer metric
is annotated with what it should move.  Takes about a minute.
"""

import fnmatch
import json
import os
import sys
import time

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402
import spec  # noqa: E402

TINY = {
    "suite": ["suite", "--seed", "7", "--scale", "0.005", "--jobs", "2",
              "--entries", "figure1,figure2,figure5,table1,table3", "--trace", "--mssp-tasks",
              "2000"],
    "functional": ["functional", "--seed", "7", "--scale", "0.005", "--jobs", "1",
                   "--entries", "figure2,figure5,table3,breakeven"],
    "serve": ["serve", "--seed", "7", "--scale", "0.02", "--rspec", run.RSPEC_EXE,
              "--dir", spec.scratch_dir(), "--rounds", "1"],
}


def check_spec():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(spec.WORKLOADS), \
        "BENCHMARK.json and spec.json name different workloads"
    groups = [p for g in spec.SPEC["per_layer"] for p in g["metrics"]]
    for m in bench["per_layer"]:
        assert any(fnmatch.fnmatchcase(m["name"], p) for p in groups), \
            f"per-layer metric {m['name']} has no entry in spec.json"


def main():
    check_spec()
    run.build()
    for workload, args in TINY.items():
        reports = []
        for _ in range(2):
            spans = os.path.join(spec.scratch_dir(), f"selftest-{workload}.jsonl")
            extra = ["--spans", spans] if "--trace" in args else []
            reports.append(run.Run(args + extra, time.monotonic() + 120).report)
        a, b = reports
        for r in reports:
            assert r["failed"] == 0, f"{workload}: {r['notes']}"
        assert a["digests"] == b["digests"], f"{workload}: outputs differ between runs"
        assert a["sim"] == b["sim"], f"{workload}: simulated counters differ between runs"
        assert a["sim"], f"{workload}: no simulated counters reported"
        print(f"{workload}: {len(a['digests'])} outputs and {len(a['sim'])} simulated counters "
              f"identical across two runs")
    print("selftest passed")


if __name__ == "__main__":
    main()
