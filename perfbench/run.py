#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload suite|functional|serve \
        --seed N --seconds S --trace 0|1

Run from the repository root.  Builds the measurement program
(perfbench/bench.ml) and rspec with dune, runs one workload on inputs made
from the seed, checks the outputs, and prints as its last line one JSON
object {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  On suite and
functional, events_per_s is the engine events one cold pass replays at this
input seed, as recorded with the reference digests, divided by wall_s: a
fixed amount of work, so that it moves with wall_s alone and not with how
much the program memoizes.

--trace 1 runs the workload once untraced and once traced (spans around
every call into a layer, kept in memory and written to
.perfbench/spans-*.jsonl) and reports the per-layer metrics: per-layer
counters and times, each layer's self time, the share of the traced wall
time no span accounts for, and the tracing overhead (traced minus untraced
wall time).  Both runs of suite and functional call Registry.execute once
per entry, so that the overhead compares the same path.

Every measured run starts cold: a fresh process, whose caches and pool
are empty.  perfbench/spec.json holds the workloads' configuration, the
seeds and what each per-layer metric should move.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import spec  # noqa: E402

TARGETS = ["./perfbench/bench.exe", "./bin/main.exe"]
BENCH_EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
RSPEC_EXE = os.path.join("_build", "default", "bin", "main.exe")
REQUIRED = ["dune-project", "BENCHMARK.json", os.path.join("bin", "main.ml"),
            os.path.join("lib", "experiments", "registry.ml"), os.path.join("test", "golden")]
SETUP_PROBES = 20  # set-up-only processes per untraced batch run, half before and half after
RUN_TIMEOUT_S = 170  # measurement time a run may take after its build
SELF_LAYERS = ["experiment", "workload", "trace_store", "engine", "profile", "mssp", "distill",
               "serve"]


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def child_env():
    # RS_* variables (seed, scale, jobs, trace-store capacity, faults)
    # would change the workload behind the benchmark's back.
    return {k: v for k, v in os.environ.items() if not k.startswith("RS_")}


def build():
    try:
        r = subprocess.run(["dune", "build", "--root", ".", *TARGETS], stdout=sys.stderr,
                           stderr=sys.stderr, env=child_env())
    except FileNotFoundError:
        die("dune is not installed")
    if r.returncode != 0:
        die("build failed", 1)


def kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Run:
    """One process of the measurement program: the time from spawning it
    to its "ready" line, and its final JSON report.  The process runs in
    its own process group, which also holds the servers a serve run
    starts; whatever is left of the group is killed when it exits or when
    the deadline passes."""

    def __init__(self, args, deadline, report=True):
        t0 = time.monotonic()
        proc = subprocess.Popen([BENCH_EXE, *args], stdout=subprocess.PIPE, text=True,
                                env=child_env(), start_new_session=True)
        watchdog = threading.Timer(max(1.0, deadline - t0), kill_group, [proc.pid])
        watchdog.start()
        self.ready_s = None
        last = None
        try:
            for line in proc.stdout:
                if self.ready_s is None and line.strip() == "ready":
                    self.ready_s = time.monotonic() - t0
                elif line.strip():
                    last = line
            code = proc.wait()
        finally:
            watchdog.cancel()
            kill_group(proc.pid)
            proc.wait()
        if code != 0 or self.ready_s is None or (report and last is None):
            die(f"{args[0]} exited with {code}", 1)
        if report:
            self.report = json.loads(last)
            self.metrics = self.report["metrics"]


def setup_probe(w, deadline):
    return Run(["setup", "--jobs", str(jobs_of(w)), "--scale", str(w["scale"])], deadline,
               report=False).ready_s


def jobs_of(w):
    return w["jobs"] or os.cpu_count() or 1


def md5_file(path):
    with open(path, "rb") as f:
        return hashlib.md5(f.read()).hexdigest()


def check_digests(workload, seed, digests, refs):
    """Failed output checks, one per entry at most: each entry's text
    digest against the committed reference digest for this input seed
    and, for the suite at the golden snapshots' seed, against
    test/golden/."""
    w = spec.WORKLOADS[workload]
    golden = workload == "suite" and seed == spec.SPEC["default_seed"]
    failures = []
    for entry in w["entries"]:
        got = digests.get(entry)
        if got is None:
            continue  # raised: already counted by the measurement program
        if refs is None or refs.get(entry) != got:
            failures.append(f"{entry}: digest {got} differs from the reference for seed {seed}")
        elif golden and md5_file(os.path.join("test", "golden", entry + ".txt")) != got:
            failures.append(f"{entry}: text differs from test/golden/{entry}.txt")
    return failures


def workload_args(workload, seed, seconds):
    w = spec.WORKLOADS[workload]
    args = [workload, "--seed", str(seed), "--seconds", str(seconds), "--scale", str(w["scale"])]
    if workload == "serve":
        return args + ["--rspec", RSPEC_EXE, "--dir", spec.scratch_dir(), "--rounds",
                       str(w["query_rounds"])]
    return args + ["--jobs", str(jobs_of(w)), "--entries", ",".join(w["entries"])]


def measure(workload, seed, seconds, deadline, extra=()):
    """One run of the measurement program; returns it with the failed
    checks made here (its own are in its report).  Batch runs get their
    events_per_s here, from the seed's reference engine events."""
    if workload == "serve":
        return Run(workload_args(workload, seed, seconds) + list(extra), deadline), []
    in_seed = spec.input_seed(seed)
    run = Run(workload_args(workload, in_seed, seconds) + list(extra), deadline)
    refs = spec.load_refs(workload).get(str(in_seed)) or {}
    failures = check_digests(workload, in_seed, run.report["digests"], refs)
    if "engine.events" in refs:
        run.metrics["events_per_s"] = refs["engine.events"] / run.metrics["wall_s"]
    else:
        failures.append(f"no reference engine.events for seed {in_seed}")
    return run, failures


def self_times(path):
    """Per-layer self time (a span's duration minus its children's) and
    the self time of the workload's root "pass" span."""
    spans = [json.loads(line) for line in open(path)]
    child = {}
    for s in spans:
        child[s["parent"]] = child.get(s["parent"], 0.0) + (s["end"] - s["start"])
    layers, unattributed = {}, 0.0
    for s in spans:
        own = s["end"] - s["start"] - child.get(s["id"], 0.0)
        if s["name"] == "pass":
            unattributed += own
        layer = s["name"].split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + own
    return layers, unattributed


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, default=spec.SPEC["default_seed"])
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    missing = [p for p in REQUIRED if not os.path.exists(p)]
    if missing:
        die("run from the repository root (missing " + ", ".join(missing) + ")")
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    build()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    w = spec.WORKLOADS[args.workload]
    # Set-up of the batch workloads: the median over the measured process
    # and SETUP_PROBES set-up-only processes (serve measures its own).
    probes = args.workload != "serve" and not args.trace
    setups = [setup_probe(w, deadline) for _ in range(SETUP_PROBES // 2)] if probes else []

    # The untraced run of a traced batch run takes the traced run's path.
    per_entry = ["--per-entry"] if args.trace and args.workload != "serve" else []
    run, failures = measure(args.workload, args.seed, args.seconds, deadline, per_entry)
    notes = run.report["notes"] + failures
    attempted, failed = run.report["attempted"], run.report["failed"] + len(failures)
    values = dict(run.metrics)
    if probes:
        setups += [run.ready_s] + [setup_probe(w, deadline) for _ in range(SETUP_PROBES // 2)]
        values["setup_s"] = statistics.median(setups)

    if args.trace:
        untraced_wall = values["wall_s"]
        spans_path = os.path.join(spec.scratch_dir(), f"spans-{args.workload}-{args.seed}.jsonl")
        traced, failures = measure(args.workload, args.seed, args.seconds, deadline,
                                   ["--trace", "--spans", spans_path])
        notes += traced.report["notes"] + failures
        attempted += traced.report["attempted"]
        failed += traced.report["failed"] + len(failures)
        values = dict(traced.metrics)
        layers, unattributed = self_times(spans_path)
        for layer in SELF_LAYERS:
            values[f"self.{layer}.s"] = layers.get(layer, 0.0)
        values["unattributed_frac"] = unattributed / values["wall_s"]
        values["trace_overhead_s"] = values["wall_s"] - untraced_wall
        started = values.get("pool.spec_started", 0.0)
        values["pool.spec_commit_ratio"] = (values.get("pool.spec_committed", 0.0) / started
                                            if started else 0.0)
        chosen = bench["per_layer"]
    else:
        chosen = bench["end_to_end"]

    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in chosen}
    for note in notes:
        print(f"perfbench: check failed: {note}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: failed_frac {failed / attempted:.6g} "
          f"({failed}/{attempted} operations failed)")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
