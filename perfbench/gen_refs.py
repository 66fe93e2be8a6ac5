#!/usr/bin/env python3
"""Regenerate the reference digests the benchmark checks outputs against.

For every input seed of the benchmark's seed table, runs the `suite` and
`functional` experiment selections through the `rspec run` CLI (an
independent path from the benchmark's own in-process calls), and records
the MD5 digest of each experiment's rendered text in
perfbench/refs/<workload>.json.  Next to the digests it records
"engine.events", the engine events one cold pass of the measurement
program replays at that seed: the fixed work run.py divides by wall_s to
report events_per_s.

Run from the repository root:

    python3 perfbench/gen_refs.py [--workload suite|functional] [--seeds 0,1,...]

Regenerate only after an intentional change to experiment output.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402
import spec  # noqa: E402


def references(workload, seed):
    w = spec.WORKLOADS[workload]
    with tempfile.TemporaryDirectory(dir=spec.scratch_dir()) as out:
        cmd = [run.RSPEC_EXE, "run", *w["entries"], "--seed", str(seed), "--scale",
               str(w["scale"]), "--jobs", str(run.jobs_of(w)), "--format", "text", "--out", out]
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, env=run.child_env())
        result = {}
        for entry in w["entries"]:
            with open(os.path.join(out, entry + ".txt"), "rb") as f:
                result[entry] = hashlib.md5(f.read()).hexdigest()
    one_pass = run.Run(run.workload_args(workload, seed, 0), time.monotonic() + 600)
    result["engine.events"] = int(one_pass.report["sim"]["engine.events"])
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=["suite", "functional"], action="append")
    ap.add_argument("--seeds", default=",".join(map(str, spec.INPUT_SEEDS)))
    args = ap.parse_args()
    run.build()
    for workload in args.workload or ["suite", "functional"]:
        path = spec.refs_path(workload)
        refs = spec.load_refs(workload)
        for seed in (int(s) for s in args.seeds.split(",")):
            refs[str(seed)] = references(workload, seed)
            with open(path, "w") as f:
                json.dump(refs, f, indent=1, sort_keys=True)
                f.write("\n")
            print(f"{workload} seed {seed}: {len(spec.WORKLOADS[workload]['entries'])} digests, "
                  f"{refs[str(seed)]['engine.events']} engine events", flush=True)


if __name__ == "__main__":
    main()
