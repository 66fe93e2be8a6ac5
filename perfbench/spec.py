"""Shared configuration of the benchmark: workloads, seeds and reference digests.

The workloads' configuration lives in spec.json next to this file, so that
run.py, gen_refs.py and selftest.py agree on it; the OCaml measurement
program receives it as options.
"""

import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(HERE, "spec.json")) as _f:
    SPEC = json.load(_f)

WORKLOADS = SPEC["workloads"]
INPUT_SEEDS = list(range(SPEC["input_seeds"]))


def input_seed(seed):
    """The workload input seed for a benchmark seed.

    The suite and functional outputs are checked against digests recorded
    for a fixed table of input seeds, so benchmark seeds are folded onto
    that table; the same benchmark seed always gives the same inputs."""
    return seed % SPEC["input_seeds"]


def refs_path(workload):
    return os.path.join(HERE, "refs", workload + ".json")


def load_refs(workload):
    try:
        with open(refs_path(workload)) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def scratch_dir():
    """Directory (relative to the repository root) for sockets, snapshots
    and span files; listed in .gitignore."""
    os.makedirs(".perfbench", exist_ok=True)
    return ".perfbench"
