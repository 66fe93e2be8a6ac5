#!/usr/bin/env bash
# Tier-1 verification in one command: format check, build, test suite.
#
#   ./ci.sh          # everything
#   ./ci.sh --quick  # skip the format check
#
# The format check runs `dune build @fmt`, which needs the ocamlformat
# binary for OCaml sources; where it is not installed (e.g. minimal
# containers) the check is skipped with a notice rather than failing —
# the build and tests are the gate that must always pass.
set -euo pipefail
cd "$(dirname "$0")"

if [[ "${1:-}" != "--quick" ]]; then
  if command -v ocamlformat >/dev/null 2>&1; then
    echo "== format check (dune build @fmt) =="
    if ! dune build @fmt; then
      echo "formatting differs: run 'dune fmt' and commit the result" >&2
      exit 1
    fi
  else
    echo "== format check skipped (ocamlformat not installed) =="
  fi
fi

echo "== build (dune build) =="
dune build

echo "== tests (dune runtest) =="
dune runtest

# The fault stress suite re-runs the figure2/table3 pipeline at --jobs 4
# under deterministic injected faults (raises in the cache compute
# bodies, delays in the pool) and asserts byte-identical output once the
# bounded retries succeed.  Two seeds exercise two failure schedules;
# any hang is caught by the timeout.
echo "== fault stress (RS_FAULTS, two seeds) =="
dune build test/main.exe
for seed in 1 7; do
  echo "-- seed=$seed --"
  RS_FAULTS="seed=$seed,rate=0.8,max_raises=2,sites=cache,delay=0.2,delay_us=300,delay_sites=pool" \
    timeout 600 ./_build/default/test/main.exe test fault
done

# Same stress with the trace store's recording site also failing: the
# pipeline records streams once and replays them, so a fault inside
# trace_store.record must be retried away without changing a byte.
# max_raises is a PER-SITE budget and a cache compute body now consults
# two sites (cache.* plus trace_store.record), so the worst case is
# max_raises * 2 raises against 3 attempts: max_raises=1 keeps the
# retries-always-succeed guarantee that byte-identity rests on.
echo "== fault stress (trace_store.record site) =="
RS_FAULTS="seed=3,rate=0.8,max_raises=1,sites=cache:trace_store,delay=0.2,delay_us=300,delay_sites=pool" \
  timeout 600 ./_build/default/test/main.exe test fault

# Registry stage: the CLI, docs and test snapshots must agree on the
# experiment registry.  `rspec list` is diffed against the generated
# index in EXPERIMENTS.md, every listed experiment must have a golden
# snapshot under test/golden/, and a JSON export of the cheap entries
# must validate under jq (schema arity: every row as long as its
# column list).
echo "== registry (list / golden coverage / json smoke) =="
dune build bin/main.exe
RSPEC=./_build/default/bin/main.exe
RSPEC_LIST=$(mktemp /tmp/rs_rspec_list.XXXXXX)
"$RSPEC" list > "$RSPEC_LIST"
awk '/<!-- BEGIN rspec list -->/{f=1;next}/<!-- END rspec list -->/{f=0}f' EXPERIMENTS.md \
  | sed '/^```/d' > "$RSPEC_LIST.doc"
if ! diff -u "$RSPEC_LIST.doc" "$RSPEC_LIST"; then
  echo "EXPERIMENTS.md experiment index is stale: paste \`rspec list\` output between the markers" >&2
  exit 1
fi
while read -r name _; do
  if [[ ! -f "test/golden/$name.txt" ]]; then
    echo "missing golden snapshot test/golden/$name.txt (RS_UPDATE_GOLDEN=1 dune runtest --force)" >&2
    exit 1
  fi
done < "$RSPEC_LIST"
RSPEC_JSON=$(mktemp /tmp/rs_rspec_smoke.XXXXXX.json)
timeout 600 "$RSPEC" run table1 table2 table5 figure1 \
  --format json --scale 0.02 --tau 10 --jobs 1 > "$RSPEC_JSON"
if command -v jq >/dev/null 2>&1; then
  jq -e '.experiments | length == 4' "$RSPEC_JSON" >/dev/null
  jq -e '[.experiments[].tables[] | (.columns | length) as $n | .rows[] | length == $n] | all' \
    "$RSPEC_JSON" >/dev/null
  echo "registry json ok: $(jq -c '.context' "$RSPEC_JSON")"
else
  echo "registry json written ($RSPEC_JSON); jq not installed, skipping assertions"
fi
rm -f "$RSPEC_JSON" "$RSPEC_LIST" "$RSPEC_LIST.doc"

# Distillation stage: the figure1 entry's interprocedural companion —
# a seed-derived multi-function program distilled under branch
# assumptions — must show the whole pipeline doing real work at two
# seeds: at least one call inlined along the speculated path, a
# non-empty cold region with entry stubs, and a differential check in
# which every assumption-consistent trial agrees and every
# assumption-violating trial is detected (check_ok).
echo "== distill (interprocedural differential checker, two seeds) =="
for seed in 5 19; do
  DIST_JSON=$(mktemp /tmp/rs_distill.XXXXXX.json)
  timeout 600 "$RSPEC" run figure1 \
    --format json --seed "$seed" --scale 0.02 --tau 10 --jobs 1 > "$DIST_JSON"
  if command -v jq >/dev/null 2>&1; then
    jq -e '.experiments[0].tables.program.rows[0] as $r
           | ($r[0] >= 2)            # functions
           and ($r[2] <= $r[1])      # distilled_size <= original_size
           and ($r[3] >= 1)          # inlined_calls
           and ($r[5] >= 1)          # cold_blocks
           and ($r[6] >= 1)          # cold_entries
           and ($r[7] == $r[8] + $r[9])  # trials = consistent + violated
           and ($r[9] >= 1)          # violations exercised
           and ($r[10] == $r[9])     # every violation detected
           and ($r[11] == true)      # check_ok
          ' "$DIST_JSON" >/dev/null \
      || { echo "distill stage failed at seed=$seed:" >&2
           jq '.experiments[0].tables.program' "$DIST_JSON" >&2
           exit 1; }
    echo "distill ok at seed=$seed: $(jq -c '.experiments[0].tables.program.rows[0]' "$DIST_JSON")"
  else
    echo "distill json written ($DIST_JSON); jq not installed, skipping assertions"
  fi
  rm -f "$DIST_JSON"
done

# Adversarial stage: the three adversarial entries (params-aware worst
# cases, mistraining schedules, multi-context interleavings) run end to
# end at two seeds under injected faults — including the
# trace_store.record site, since these entries fabricate and cache
# packed traces — and every published verdict row must pass.  One of
# those verdicts, plus the trailing differential_ok column of every
# rows sheet, is the differential check that the packed batch path
# agrees with scalar replay on the adversarial traces.
echo "== adversarial stress (two seeds, RS_FAULTS) =="
for seed in 7 42; do
  echo "-- seed=$seed --"
  ADV_JSON=$(mktemp /tmp/rs_adversarial.XXXXXX.json)
  RS_FAULTS="seed=$seed,rate=0.8,max_raises=1,sites=cache:trace_store,delay=0.2,delay_us=300,delay_sites=pool" \
    timeout 600 "$RSPEC" run adversarial mistrain interleave \
      --format json --seed "$seed" --scale 0.02 --tau 10 --jobs 1 > "$ADV_JSON"
  if command -v jq >/dev/null 2>&1; then
    jq -e '.experiments | length == 3' "$ADV_JSON" >/dev/null
    jq -e '[.experiments[].tables.verdicts.rows[]] | length >= 13 and all(.[2] == true)' \
      "$ADV_JSON" >/dev/null \
      || { echo "adversarial verdicts failed at seed=$seed:" >&2
           jq '[.experiments[]
                | { name, failed: [.tables.verdicts.rows[] | select(.[2] != true) | .[0]] }
                | select(.failed != [])]' "$ADV_JSON" >&2
           exit 1; }
    jq -e '[.experiments[].tables.rows.rows[] | last] | all(. == true)' "$ADV_JSON" >/dev/null \
      || { echo "batched/scalar differential diverged at seed=$seed" >&2; exit 1; }
    echo "adversarial ok at seed=$seed: $(jq -c '[.experiments[].name]' "$ADV_JSON")"
  else
    echo "adversarial json written ($ADV_JSON); jq not installed, skipping assertions"
  fi
  rm -f "$ADV_JSON"
done
# Glob selection over the new family, and the unmatched-glob failure
# mode: a pattern that selects nothing must exit non-zero and name the
# pattern, not silently run an empty set.
ADV_JSON=$(mktemp /tmp/rs_adversarial_glob.XXXXXX.json)
timeout 600 "$RSPEC" run 'adversarial*' --format json --scale 0.02 --tau 10 --jobs 1 > "$ADV_JSON"
if command -v jq >/dev/null 2>&1; then
  jq -e '.experiments | length == 1 and .[0].name == "adversarial"' "$ADV_JSON" >/dev/null
fi
rm -f "$ADV_JSON"
if "$RSPEC" run 'no_such_entry*' --format json >/dev/null 2>/tmp/rs_noglob.err; then
  echo "rspec run with an unmatched glob must fail" >&2
  exit 1
fi
grep -q 'no_such_entry' /tmp/rs_noglob.err \
  || { echo "unmatched-glob error must name the pattern:" >&2
       cat /tmp/rs_noglob.err >&2
       exit 1; }
rm -f /tmp/rs_noglob.err

# Bench smoke: the JSON mode at a tiny sampling quota and context.
# Asserts the harness runs, the JSON parses, every kernel (including the
# trace-replay pair) reported — and, the one performance property cheap
# enough to gate on, that the zero-allocation kernels stay (near-)free
# of minor-heap allocation: timing is machine-dependent, an OLS
# words-per-run fit is not.
echo "== bench smoke (--json) =="
dune build bench/main.exe
BENCH_JSON=$(mktemp /tmp/rs_bench_smoke.XXXXXX.json)
RS_BENCH_QUOTA=0.02 RS_SCALE=0.01 \
  timeout 600 ./_build/default/bench/main.exe --json "$BENCH_JSON"
if command -v jq >/dev/null 2>&1; then
  jq -e '.kernels | length >= 16' "$BENCH_JSON" >/dev/null
  jq -e '.kernels | map(.name) | (index("substrate/trace-replay") != null) and
         (index("substrate/stream-generation") != null)' "$BENCH_JSON" >/dev/null
  jq -e '.experiments[0].identical_output == true' "$BENCH_JSON" >/dev/null
  ZERO_ALLOC_KERNELS='["table1+2/workload-build","substrate/trace-replay",
    "runner/pool-map","runner/cached-profile","runner/parallel-all",
    "figure2/profile-pass","figure2/pareto-curve","figure3+9/bias-tracks",
    "figure5+table3+4/reactive-run","figure5+table3+4/reactive-run-replay",
    "figure6/eviction-watch"]'
  jq -e --argjson names "$ZERO_ALLOC_KERNELS" '
      [.kernels[] | select(.name as $n | $names | index($n) != null)
       | .minor_words_per_run]
      | (length == ($names | length)) and all(. != null and . <= 1000)' \
    "$BENCH_JSON" >/dev/null \
    || { echo "zero-alloc gate failed: a kernel reports > 1000 minor words/run" >&2
         jq --argjson names "$ZERO_ALLOC_KERNELS" \
           '[.kernels[] | select(.name as $n | $names | index($n) != null)]' "$BENCH_JSON" >&2
         exit 1; }
  # The MSSP per-task loop is allocation-free: a 5,000-task run allocates
  # only its per-run tables (~6k words; 559k when every task allocated).
  # Read from the exact counter: a few thousand words a run is below the
  # resolution of minor_words_per_run in a smoke-length sample.
  jq -e '[.kernels[] | select(.name == "figure7+8+table5/mssp-run")
          | .exact_minor_words_per_run]
         | length == 1 and all(. != null and . <= 100000)' "$BENCH_JSON" >/dev/null \
    || { echo "mssp-run gate failed: > 100k minor words/run" >&2
         jq '[.kernels[] | select(.name == "figure7+8+table5/mssp-run")]' "$BENCH_JSON" >&2
         exit 1; }
  # Scheduler counters: a jobs-8 figure5 sweep ran inside the harness, so
  # the work-stealing pool must have stolen sub-ranges, and the
  # speculation counters must be reported (the spec-cancel kernel
  # guarantees cancellations).  The jobs-8 output must be byte-identical
  # to jobs-1; the >= 2x wall-clock gate only applies with enough cores
  # to parallelize on.
  jq -e '.pool.steals > 0' "$BENCH_JSON" >/dev/null \
    || { echo "scheduler gate failed: pool.steals == 0 in bench json" >&2
         jq '.pool' "$BENCH_JSON" >&2; exit 1; }
  jq -e '.pool | has("spec_cancelled") and has("spec_committed") and has("splits")' \
    "$BENCH_JSON" >/dev/null
  jq -e '[.experiments[] | select(.name == "figure5-jobs")][0]
         | .identical_output == true' "$BENCH_JSON" >/dev/null \
    || { echo "figure5 output differs between jobs 1 and jobs 8" >&2; exit 1; }
  jq -e '[.experiments[] | select(.name == "figure5-jobs")][0]
         | (.cores < 4) or (.speedup >= 2)' "$BENCH_JSON" >/dev/null \
    || { echo "figure5 jobs-8 speedup gate failed (< 2x with >= 4 cores):" >&2
         jq '[.experiments[] | select(.name == "figure5-jobs")][0]' "$BENCH_JSON" >&2
         exit 1; }
  echo "bench json ok: $(jq -c '.context' "$BENCH_JSON") pool=$(jq -c '.pool' "$BENCH_JSON")"
else
  echo "bench json written ($BENCH_JSON); jq not installed, skipping assertions"
fi
rm -f "$BENCH_JSON"

# Scheduler stage: the work-stealing pool may only change wall-clock,
# never output.  `rspec all` must be byte-identical between --jobs 1 and
# --jobs 8 — with speculative sub-sweep execution both on and off — at
# two seeds.  The jobs-8 runs print their scheduler counters so the CI
# log records the steal/split/speculation activity behind the identity.
echo "== scheduler (rspec all: jobs 1 vs 8, speculation on/off, two seeds) =="
SCHED_DIR=$(mktemp -d /tmp/rs_sched.XXXXXX)
for seed in 3 11; do
  echo "-- seed=$seed --"
  timeout 900 "$RSPEC" all --scale 0.02 --tau 10 --seed "$seed" --jobs 1 \
    > "$SCHED_DIR/j1.txt"
  timeout 900 "$RSPEC" all --scale 0.02 --tau 10 --seed "$seed" --jobs 8 --pool-stats \
    > "$SCHED_DIR/j8.txt" 2> "$SCHED_DIR/j8.err"
  cmp "$SCHED_DIR/j1.txt" "$SCHED_DIR/j8.txt" \
    || { echo "rspec all differs between --jobs 1 and --jobs 8 (seed=$seed)" >&2; exit 1; }
  grep '^pool:' "$SCHED_DIR/j8.err" || true
  RS_SPEC=0 timeout 900 "$RSPEC" all --scale 0.02 --tau 10 --seed "$seed" --jobs 8 \
    > "$SCHED_DIR/j8_nospec.txt"
  cmp "$SCHED_DIR/j1.txt" "$SCHED_DIR/j8_nospec.txt" \
    || { echo "rspec all differs at --jobs 8 with speculation off (seed=$seed)" >&2; exit 1; }
  echo "scheduler identity ok at seed=$seed"
done
rm -rf "$SCHED_DIR"

# Online-service stage: a real `rspec serve` process on a temp Unix
# socket, driven by `rspec drive` with a figure2-scale recorded stream.
# Gates, in order: the STATS counters balance and the 4-shard server
# sustains >= 1M events/sec aggregate (busy-time based, so socket and
# client speed cannot mask a slow controller); the decisions digest is
# byte-identical at 1 and 4 shards; snapshot -> restart -> replay of the
# suffix reproduces the full run's snapshot bytes and digest; and the
# whole snapshot scenario repeats under an RS_FAULTS plan raising at
# serve.shard (with delays across all serve.* sites) without changing a
# byte — injected shard stalls are retried, never dropped or
# double-applied.
echo "== serve (throughput / shard invariance / snapshot / chaos) =="
SERVE_DIR=$(mktemp -d /tmp/rs_serve.XXXXXX)
SOCK="$SERVE_DIR/rspec.sock"
SERVE_ARGS=(--bench gzip --scale 0.02 --seed 3 --tau 10)
SERVE_FAULTS="seed=11,rate=0.8,max_raises=2,sites=serve.shard,delay=0.3,delay_us=500,delay_sites=serve"

run_drive() { # run_drive <shards> <repeat> <digest-file> [drive flags...]
  local shards=$1 repeat=$2 digest=$3; shift 3
  "$RSPEC" serve --socket "$SOCK" "${SERVE_ARGS[@]}" --shards "$shards" ${SERVE_SNAPSHOT:+--snapshot "$SERVE_SNAPSHOT"} &
  local pid=$!
  timeout 600 "$RSPEC" drive --socket "$SOCK" "${SERVE_ARGS[@]}" --repeat "$repeat" --shutdown "$@" > "$digest"
  wait "$pid"
}

run_drive 4 40 "$SERVE_DIR/d4.txt" --stats-json "$SERVE_DIR/stats.json"
if command -v jq >/dev/null 2>&1; then
  jq -e '.events == .applied and .protocol_errors == 0 and .shards == 4' "$SERVE_DIR/stats.json" >/dev/null
  jq -e '.aggregate_rate_eps >= 1000000' "$SERVE_DIR/stats.json" >/dev/null \
    || { echo "serve throughput gate failed (< 1M events/sec aggregate):" >&2
         jq '{events, aggregate_rate_eps, shards_detail}' "$SERVE_DIR/stats.json" >&2
         exit 1; }
  echo "serve stats ok: $(jq -c '{events, shards, aggregate_rate_eps}' "$SERVE_DIR/stats.json")"
else
  echo "serve stats written ($SERVE_DIR/stats.json); jq not installed, skipping assertions"
fi

run_drive 1 40 "$SERVE_DIR/d1.txt"
diff <(grep '^decisions:' "$SERVE_DIR/d1.txt") <(grep '^decisions:' "$SERVE_DIR/d4.txt") \
  || { echo "decisions digest differs between 1 and 4 shards" >&2; exit 1; }
echo "serve shard invariance ok: $(grep '^decisions:' "$SERVE_DIR/d4.txt")"

serve_snapshot_scenario() { # serve_snapshot_scenario <suffix> (uses current RS_FAULTS, if any)
  local tag=$1
  # one shot: the whole stream (repeat=2), snapshot at the end
  run_drive 4 2 "$SERVE_DIR/full$tag.txt" --snapshot-out "$SERVE_DIR/snap_full$tag"
  # two shots: prefix, snapshot to disk, restart from it, suffix
  rm -f "$SERVE_DIR/snap_mid$tag"
  SERVE_SNAPSHOT="$SERVE_DIR/snap_mid$tag" \
    run_drive 4 1 "$SERVE_DIR/prefix$tag.txt" --snapshot-out /dev/null
  SERVE_SNAPSHOT="$SERVE_DIR/snap_mid$tag" \
    run_drive 4 1 "$SERVE_DIR/resumed$tag.txt" --snapshot-out "$SERVE_DIR/snap_resumed$tag"
  cmp "$SERVE_DIR/snap_full$tag" "$SERVE_DIR/snap_resumed$tag" \
    || { echo "snapshot bytes differ after restore+replay ($tag)" >&2; exit 1; }
  diff <(grep '^decisions:' "$SERVE_DIR/full$tag.txt") <(grep '^decisions:' "$SERVE_DIR/resumed$tag.txt") \
    || { echo "decisions digest differs after restore+replay ($tag)" >&2; exit 1; }
}

serve_snapshot_scenario ""
echo "serve snapshot/restore ok"

RS_FAULTS="$SERVE_FAULTS" serve_snapshot_scenario "_chaos"
cmp "$SERVE_DIR/snap_full" "$SERVE_DIR/snap_full_chaos" \
  || { echo "injected serve.shard faults changed the snapshot bytes" >&2; exit 1; }
diff <(grep '^decisions:' "$SERVE_DIR/full.txt") <(grep '^decisions:' "$SERVE_DIR/full_chaos.txt") \
  || { echo "injected serve.shard faults changed the decisions digest" >&2; exit 1; }
echo "serve chaos ok (RS_FAULTS=$SERVE_FAULTS)"
rm -rf "$SERVE_DIR"

echo "== ci ok =="
