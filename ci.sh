#!/usr/bin/env bash
# Tier-1 verification in one command: format check, build, test suite.
#
#   ./ci.sh          # everything
#   ./ci.sh --quick  # skip the format check
#
# The format check runs `dune build @fmt`, which needs the ocamlformat
# binary for OCaml sources; where it is not installed (e.g. minimal
# containers) the check is skipped with a notice rather than failing —
# the build and tests are the gate that must always pass.  The stages
# after the tests assert on JSON output with jq, which must be installed.
set -euo pipefail
cd "$(dirname "$0")"

command -v jq >/dev/null 2>&1 \
  || { echo "ci.sh needs jq for its JSON assertions; install jq" >&2; exit 1; }

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

# The fault stress suite re-runs the figure2/table3 pipeline, then
# figures 7 and 8 side by side (their tasks park on each other's
# in-flight MSSP runs), at --jobs 4 under deterministic
# injected faults (raises in the cache compute bodies, delays in the
# pool) and asserts byte-identical output once the bounded retries
# succeed.  Two seeds exercise two failure schedules;
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
# max_raises is a per-(site, key) budget, and each memo compute body
# (Rs_util.Memo) consults one raising site: a recording retries inside
# the trace store's own memo, not inside the cache body that asked for
# it.  Any max_raises below the retry limit (3) therefore keeps the
# retries-always-succeed guarantee that byte-identity rests on.
echo "== fault stress (trace_store.record site) =="
RS_FAULTS="seed=3,rate=0.8,max_raises=1,sites=cache:trace_store,delay=0.2,delay_us=300,delay_sites=pool" \
  timeout 600 ./_build/default/test/main.exe test fault

# Registry stage: the CLI, docs and test snapshots must agree on the
# experiment registry.  `rspec list` is diffed against the generated
# index in EXPERIMENTS.md, every listed experiment must have both
# golden snapshots under test/golden/ (<name>.txt, the rendered text,
# and <name>.json, its JSON export), and a JSON export of the cheap
# entries must validate under jq (schema arity: every row as long as
# its column list).
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
  for ext in txt json; do
    if [[ ! -f "test/golden/$name.$ext" ]]; then
      echo "missing golden snapshot test/golden/$name.$ext (RS_UPDATE_GOLDEN=1 dune runtest --force)" >&2
      exit 1
    fi
  done
done < "$RSPEC_LIST"
RSPEC_JSON=$(mktemp /tmp/rs_rspec_smoke.XXXXXX.json)
timeout 600 "$RSPEC" run table1 table2 table5 figure1 \
  --format json --scale 0.02 --tau 10 --jobs 1 > "$RSPEC_JSON"
jq -e '.experiments | length == 4' "$RSPEC_JSON" >/dev/null
jq -e '[.experiments[].tables[] | (.columns | length) as $n | .rows[] | length == $n] | all' \
  "$RSPEC_JSON" >/dev/null
echo "registry json ok: $(jq -c '.context' "$RSPEC_JSON")"
rm -f "$RSPEC_JSON" "$RSPEC_LIST" "$RSPEC_LIST.doc"
# A per-name subcommand reports a failing experiment the way `run` does:
# exit 1 with `rspec: <name> failed:` on stderr, not an internal error.
RSPEC_ERR=$(mktemp /tmp/rs_rspec_err.XXXXXX)
status=0
RS_FAULTS="seed=1,rate=1.0,sites=cache.build" \
  timeout 600 "$RSPEC" table3 --scale 0.02 > /dev/null 2> "$RSPEC_ERR" || status=$?
if [[ $status -ne 1 ]] || ! grep -q '^rspec: table3 failed:' "$RSPEC_ERR"; then
  echo "rspec table3 under an always-failing cache.build fault: exit $status, want 1 and 'rspec: table3 failed:'" >&2
  cat "$RSPEC_ERR" >&2
  exit 1
fi
rm -f "$RSPEC_ERR"

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
  rm -f "$DIST_JSON"
done

# Adversarial stage: the three adversarial entries (params-aware worst
# cases, mistraining schedules, multi-context interleavings) run end to
# end at two seeds under injected faults — including the
# trace_store.record site, since these entries record their own packed
# traces — and every published verdict row must pass.  One of
# those verdicts, plus the trailing differential_ok column of every
# rows sheet, is the check that the batch kernel agrees with the
# reference Figure 4b FSM (Rs_sim.Reference) on the adversarial traces.
echo "== adversarial stress (two seeds, RS_FAULTS) =="
for seed in 7 42; do
  echo "-- seed=$seed --"
  ADV_JSON=$(mktemp /tmp/rs_adversarial.XXXXXX.json)
  RS_FAULTS="seed=$seed,rate=0.8,max_raises=1,sites=cache:trace_store,delay=0.2,delay_us=300,delay_sites=pool" \
    timeout 600 "$RSPEC" run adversarial mistrain interleave \
      --format json --seed "$seed" --scale 0.02 --tau 10 --jobs 1 > "$ADV_JSON"
  jq -e '.experiments | length == 3' "$ADV_JSON" >/dev/null
  jq -e '[.experiments[].tables.verdicts.rows[]] | length >= 13 and all(.[2] == true)' \
    "$ADV_JSON" >/dev/null \
    || { echo "adversarial verdicts failed at seed=$seed:" >&2
         jq '[.experiments[]
              | { name, failed: [.tables.verdicts.rows[] | select(.[2] != true) | .[0]] }
              | select(.failed != [])]' "$ADV_JSON" >&2
         exit 1; }
  jq -e '[.experiments[].tables.rows.rows[] | last] | all(. == true)' "$ADV_JSON" >/dev/null \
    || { echo "kernel disagrees with the reference FSM at seed=$seed" >&2; exit 1; }
  echo "adversarial ok at seed=$seed: $(jq -c '[.experiments[].name]' "$ADV_JSON")"
  rm -f "$ADV_JSON"
done
# Glob selection over the new family, and the unmatched-glob failure
# mode: a pattern that selects nothing must exit non-zero and name the
# pattern, not silently run an empty set.
ADV_JSON=$(mktemp /tmp/rs_adversarial_glob.XXXXXX.json)
timeout 600 "$RSPEC" run 'adversarial*' --format json --scale 0.02 --tau 10 --jobs 1 > "$ADV_JSON"
jq -e '.experiments | length == 1 and .[0].name == "adversarial"' "$ADV_JSON" >/dev/null
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
# A malformed or negative RS_TRACE_CACHE_MB, and a malformed RS_SEED,
# RS_SCALE, RS_TAU or RS_JOBS, fail like a malformed flag: exit 2 and an
# error naming the variable, never a silent default.  Each case leaves
# out the flag its variable stands for, since a flag wins over it.
for case in RS_TRACE_CACHE_MB=abc RS_TRACE_CACHE_MB=-1 RS_SEED=x RS_SCALE=0,02 RS_TAU=1.5 \
    RS_JOBS=eight; do
  var=${case%%=*}
  args=()
  for opt in SEED:3 SCALE:0.02 TAU:10 JOBS:1; do
    name=${opt%%:*}
    [[ $var == "RS_$name" ]] || args+=("--${name,,}" "${opt#*:}")
  done
  status=0
  env "$case" "$RSPEC" run table1 "${args[@]}" >/dev/null 2>/tmp/rs_badenv.err || status=$?
  [[ $status -eq 2 ]] && grep -q "$var" /tmp/rs_badenv.err \
    || { echo "$case must exit 2 naming the variable (exit $status):" >&2
         cat /tmp/rs_badenv.err >&2
         exit 1; }
done
rm -f /tmp/rs_badenv.err

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
# The MSSP replay loop is allocation-free, and a primed instance's
# regions already hold every version the run deploys: a 5,000-task
# replay of a recorded tape allocates only its per-run setup (199 words:
# controller, master predictor, in-flight ring, the controller's score
# and one task's branch words; 205 while the controller's state was a
# Bigarray, 193 before the controller took a task's
# branches in one step_chunk, 815 while each run also sampled its tasks,
# ~5.2k while each run kept its own version tables, 559k when every task
# allocated).  Recording a 5,000-task tape allocates the same way, only
# its setup: generators, the per-site sampler state and the region alias
# table (274 words; the task array and predictor table are large enough
# to go straight to the major heap).  Read from the exact count (Gc.minor_words
# around 10 calls after the sample): a few thousand words a run is
# below the resolution of minor_words_per_run in a smoke-length sample.
MSSP_ALLOC_KERNELS='["figure7+8+table5/mssp-run","figure7+8+table5/mssp-record"]'
jq -e --argjson names "$MSSP_ALLOC_KERNELS" '
    [.kernels[] | select(.name as $n | $names | index($n) != null)
     | .exact_minor_words_per_run]
    | (length == ($names | length)) and all(. != null and . <= 2500)' \
  "$BENCH_JSON" >/dev/null \
  || { echo "mssp gate failed: mssp-run or mssp-record > 2,500 minor words/run" >&2
       jq --argjson names "$MSSP_ALLOC_KERNELS" \
         '[.kernels[] | select(.name as $n | $names | index($n) != null)]' "$BENCH_JSON" >&2
       exit 1; }
# The replay kernels, also read from the exact count: a batched engine
# run (Reactive.step_cells over a cell recording; 9 selections, 2
# evictions and 5,147 correct speculations over its 20k events), the
# same run under each of the seven Figure 5 / Table 4 configurations,
# and a bare packed decode of a cell recording (its chunks widened into
# one reused buffer) and of the same events as an of_events word trace
# allocate only their per-run setup (198, 1,490, 12 and 12 words at
# this scale, the same on every run; 184 and 1,392 for the first two
# while every recording was int words, 222 for the engine run while the
# controller's state was a Bigarray), never per event: a 20k-event run
# allocating one word per event would read >= 20k, and the seven runs
# >= 140k.
REPLAY_ALLOC_BUDGETS='{"figure5+table3+4/reactive-run-replay":500,"substrate/trace-replay":500,
  "substrate/trace-replay-words":500,"figure5+table3+4/variants-replay":2000}'
jq -e --argjson budgets "$REPLAY_ALLOC_BUDGETS" '
    [.kernels[] | select($budgets[.name] != null)
     | .exact_minor_words_per_run as $w | $w != null and $w <= $budgets[.name]]
    | (length == ($budgets | length)) and all' \
  "$BENCH_JSON" >/dev/null \
  || { echo "replay gate failed: a replay kernel exceeds its exact minor words/run budget" >&2
       jq --argjson budgets "$REPLAY_ALLOC_BUDGETS" \
         '[.kernels[] | select($budgets[.name] != null)]' "$BENCH_JSON" >&2
       exit 1; }
# The live-generation kernels, from the exact count: a 20k-event run
# generated and packed chunk by chunk allocates only its per-run setup
# (generator state, controller, collector tables: 752-1,302 words, the
# top one the eviction watch with its two watched evictions;
# 1,477 for the mixed stream's 159-branch gcc population, 802 of it the
# alias table's construction: its work arrays and one boxed float per
# threshold; 3,728 and 3,053 while the construction used Queue cells).
# One allocation per event would cost >= 20k words a run.
LIVE_ALLOC_KERNELS='["figure5+table3+4/reactive-run","figure2/profile-pass",
  "figure3+9/bias-tracks","figure6/eviction-watch","substrate/stream-generation",
  "substrate/stream-generation-mixed"]'
jq -e --argjson names "$LIVE_ALLOC_KERNELS" '
    [.kernels[] | select(.name as $n | $names | index($n) != null)
     | .exact_minor_words_per_run]
    | (length == ($names | length)) and all(. != null and . <= 2500)' \
  "$BENCH_JSON" >/dev/null \
  || { echo "live gate failed: a live-generation kernel reports > 2500 exact minor words/run" >&2
       jq --argjson names "$LIVE_ALLOC_KERNELS" \
         '[.kernels[] | select(.name as $n | $names | index($n) != null)]' "$BENCH_JSON" >&2
       exit 1; }
# The pool kernels, from the exact count (the calling domain's
# words, so they depend on how many elements it ran itself).  Claiming
# a chunk allocates nothing: a 256-element map costs a few words per
# element the caller runs (the result box, map_ordered's fault-site
# key) plus per-map setup.  Measured with every worker held busy, so
# the caller runs all of it: pool-map 1873, map-overhead 1356,
# parallel-all 244 words.  A closure per claimed chunk costs >= 3k
# words a run.
POOL_ALLOC_BUDGETS='{"runner/pool-map":2500,"runner/parallel-all":600,
  "scheduler/map-overhead":2000}'
jq -e --argjson budgets "$POOL_ALLOC_BUDGETS" '
    [.kernels[] | select($budgets[.name] != null)
     | .exact_minor_words_per_run as $w | $w != null and $w <= $budgets[.name]]
    | (length == ($budgets | length)) and all' \
  "$BENCH_JSON" >/dev/null \
  || { echo "pool gate failed: a pool kernel exceeds its exact minor words/run budget" >&2
       jq --argjson budgets "$POOL_ALLOC_BUDGETS" \
         '[.kernels[] | select($budgets[.name] != null)]' "$BENCH_JSON" >&2
       exit 1; }
# Scheduler counters: a jobs-8 figure5 sweep ran inside the harness, so
# work must have run on more than one domain (chunks run by a domain
# other than their map's caller).  The jobs-8 output must be
# byte-identical to jobs-1; the >= 2x wall-clock gate only applies
# with enough cores to parallelize on.
jq -e '.pool.shared > 0' "$BENCH_JSON" >/dev/null \
  || { echo "scheduler gate failed: pool.shared == 0 in bench json" >&2
       jq '.pool' "$BENCH_JSON" >&2; exit 1; }
jq -e '.pool | has("shared")' "$BENCH_JSON" >/dev/null
jq -e '[.experiments[] | select(.name == "figure5-jobs")][0]
       | .identical_output == true' "$BENCH_JSON" >/dev/null \
  || { echo "figure5 output differs between jobs 1 and jobs 8" >&2; exit 1; }
jq -e '[.experiments[] | select(.name == "figure5-jobs")][0]
       | (.cores < 4) or (.speedup >= 2)' "$BENCH_JSON" >/dev/null \
  || { echo "figure5 jobs-8 speedup gate failed (< 2x with >= 4 cores):" >&2
       jq '[.experiments[] | select(.name == "figure5-jobs")][0]' "$BENCH_JSON" >&2
       exit 1; }
echo "bench json ok: $(jq -c '.context' "$BENCH_JSON") pool=$(jq -c '.pool' "$BENCH_JSON")"
rm -f "$BENCH_JSON"

# Scheduler stage: neither the shared-queue pool, the artifact cache nor
# the trace store may change output.  `rspec all` must be byte-identical
# between --jobs 1 and --jobs 8 at two seeds; the jobs-8 runs print the
# metrics summary, which must carry the pool and cache counters, so the
# CI log records the shared work behind the identity.  Order independence: an entry run alone from a
# cold cache at --jobs 8 must reproduce its section of the jobs-1
# `rspec all` — every entry: the trace-consuming ones (figure3,
# figure5, figure6, figure9, table3) with --trace-cache-mb 0, which
# generates every stream live instead of replaying a recording, the
# rest with the default trace store, and figure6 and figure9 also with
# the default store under injected faults in the cache and the trace
# store.  Run alone, their recordings happen outside any cache compute
# body, so only the trace store's own retries can absorb a recording
# fault.  adversarial and mistrain record their traces for themselves,
# so run alone with --metrics they must report no trace-store miss.
echo "== scheduler (rspec all: jobs 1 vs 8, entries alone, live vs replay, two seeds) =="
SCHED_DIR=$(mktemp -d /tmp/rs_sched.XXXXXX)
run_alone() { # run_alone <seed> <entry> [flags...]: cmp against its section of j1.txt
  local seed=$1 name=$2; shift 2
  timeout 900 "$RSPEC" run "$name" --scale 0.02 --tau 10 --seed "$seed" --jobs 8 "$@" \
    > "$SCHED_DIR/alone.txt" 2> "$SCHED_DIR/alone.err" \
    || { echo "rspec run $name $* failed (seed=$seed):" >&2
         cat "$SCHED_DIR/alone.err" >&2
         exit 1; }
  awk -v name="$name" '/^== / { keep = ($2 == name) } keep' "$SCHED_DIR/j1.txt" \
    > "$SCHED_DIR/section.txt"
  test -s "$SCHED_DIR/section.txt" \
    || { echo "no $name section in rspec all (seed=$seed)" >&2; exit 1; }
  cmp "$SCHED_DIR/section.txt" "$SCHED_DIR/alone.txt" \
    || { echo "rspec run $name $* differs from its rspec all section (seed=$seed)" >&2
         exit 1; }
}
for seed in 3 11; do
  echo "-- seed=$seed --"
  timeout 900 "$RSPEC" all --scale 0.02 --tau 10 --seed "$seed" --jobs 1 \
    > "$SCHED_DIR/j1.txt"
  timeout 900 "$RSPEC" all --scale 0.02 --tau 10 --seed "$seed" --jobs 8 --metrics \
    > "$SCHED_DIR/j8.txt" 2> "$SCHED_DIR/j8.err"
  cmp "$SCHED_DIR/j1.txt" "$SCHED_DIR/j8.txt" \
    || { echo "rspec all differs between --jobs 1 and --jobs 8 (seed=$seed)" >&2; exit 1; }
  for counter in pool.tasks cache.run.hits; do
    grep -E "^ +${counter//./\\.} +[0-9]+\$" "$SCHED_DIR/j8.err" \
      || { echo "rspec all --metrics printed no $counter line (seed=$seed)" >&2; exit 1; }
  done
  # Trace memory, a count that repeats exactly: the 12 Ref recordings
  # are held as 2-byte cells, ~44 MB at this scale (~177 MB as int
  # words).
  bytes=$(awk '$1 == "trace_store.bytes" { print $2 }' "$SCHED_DIR/j8.err")
  [[ -n $bytes && $bytes -le 48000000 ]] \
    || { echo "rspec all holds ${bytes:-no} trace_store.bytes, want <= 48,000,000 (seed=$seed)" >&2
         exit 1; }
  echo "trace store ok at seed=$seed: $bytes bytes"
  # figure7, figure8 and correlation request six controller
  # configurations of each of the 12 MSSP workloads, concurrently at
  # jobs 8; every one replays its workload's single task tape
  grep -Eq '^ +cache\.mssp_tape\.misses +12$' "$SCHED_DIR/j8.err" \
    || { echo "rspec all recorded other than one MSSP tape per workload (seed=$seed):" >&2
         grep 'cache\.mssp' "$SCHED_DIR/j8.err" >&2
         exit 1; }
  run_alone "$seed" breakeven
  # the four entries that share Cache.mssp runs and so wait on each other
  for name in figure7 figure8 correlation claims; do
    run_alone "$seed" "$name"
  done
  for name in adversarial mistrain; do
    run_alone "$seed" "$name" --metrics
    grep -Eq '^ +trace_store\.misses +0$' "$SCHED_DIR/alone.err" \
      || { echo "rspec run $name recorded into the trace store (seed=$seed):" >&2
           grep 'trace_store\.' "$SCHED_DIR/alone.err" >&2
           exit 1; }
  done
  run_alone "$seed" interleave
  for name in figure1 figure2 table1 table2 table4 table5 ablations values; do
    run_alone "$seed" "$name"
  done
  for name in figure3 figure5 figure6 figure9 table3; do
    run_alone "$seed" "$name" --trace-cache-mb 0
  done
  for name in figure6 figure9; do
    RS_FAULTS="seed=3,rate=0.8,max_raises=1,sites=cache:trace_store,delay=0.2,delay_us=300,delay_sites=pool" \
      run_alone "$seed" "$name"
  done
  echo "scheduler identity ok at seed=$seed"
done
rm -rf "$SCHED_DIR"

# Online-service stage: a real `rspec serve` process on a temp Unix
# socket, driven by `rspec drive` with a figure2-scale recorded stream.
# Gates, in order: the STATS counters balance and the controller
# sustains >= 1M events/sec (busy-time based, so socket and client speed
# cannot mask a slow controller); the server allocates at most 0.5
# major-heap words per ingested event (a count, not a speed, so it holds
# on any box and catches a return of per-frame buffers); snapshot ->
# restart -> replay of the suffix reproduces the full run's snapshot
# bytes and digest; and the whole snapshot scenario repeats under an
# RS_FAULTS plan raising at serve.apply (with delays across all serve.*
# sites) without changing a byte — injected stalls are retried, never
# dropped or double-applied.  Decisions against a reference controller
# are tier-1's job (test/test_serve.ml).
echo "== serve (throughput / snapshot / chaos) =="
SERVE_DIR=$(mktemp -d /tmp/rs_serve.XXXXXX)
SOCK="$SERVE_DIR/rspec.sock"
SERVE_ARGS=(--bench gzip --scale 0.02 --seed 3 --tau 10)
SERVE_FAULTS="seed=11,rate=0.8,max_raises=2,sites=serve.apply,delay=0.3,delay_us=500,delay_sites=serve"

run_drive() { # run_drive <repeat> <digest-file> [drive flags...]
  local repeat=$1 digest=$2; shift 2
  "$RSPEC" serve --socket "$SOCK" "${SERVE_ARGS[@]}" ${SERVE_SNAPSHOT:+--snapshot "$SERVE_SNAPSHOT"} &
  local pid=$!
  timeout 600 "$RSPEC" drive --socket "$SOCK" "${SERVE_ARGS[@]}" --repeat "$repeat" --shutdown "$@" > "$digest"
  wait "$pid"
}

run_drive 40 "$SERVE_DIR/d.txt" --stats-json "$SERVE_DIR/stats.json"
jq -e '.events == .applied and .protocol_errors == 0' "$SERVE_DIR/stats.json" >/dev/null
jq -e '.aggregate_rate_eps >= 1000000' "$SERVE_DIR/stats.json" >/dev/null \
  || { echo "serve throughput gate failed (< 1M events/sec of controller busy time):" >&2
       jq '{events, busy_s, aggregate_rate_eps}' "$SERVE_DIR/stats.json" >&2
       exit 1; }
jq -e '.gc_major_words <= 0.5 * .events' "$SERVE_DIR/stats.json" >/dev/null \
  || { echo "serve allocation gate failed (> 0.5 server major words per ingested event):" >&2
       jq '{events, gc_major_words, gc_major_collections}' "$SERVE_DIR/stats.json" >&2
       exit 1; }
echo "serve stats ok: $(jq -c '{events, aggregate_rate_eps, gc_major_words}' "$SERVE_DIR/stats.json")"

serve_snapshot_scenario() { # serve_snapshot_scenario <suffix> (uses current RS_FAULTS, if any)
  local tag=$1
  # one shot: the whole stream (repeat=2), snapshot at the end
  run_drive 2 "$SERVE_DIR/full$tag.txt" --snapshot-out "$SERVE_DIR/snap_full$tag"
  # two shots: prefix, snapshot to disk, restart from it, suffix
  rm -f "$SERVE_DIR/snap_mid$tag"
  SERVE_SNAPSHOT="$SERVE_DIR/snap_mid$tag" \
    run_drive 1 "$SERVE_DIR/prefix$tag.txt" --snapshot-out /dev/null
  SERVE_SNAPSHOT="$SERVE_DIR/snap_mid$tag" \
    run_drive 1 "$SERVE_DIR/resumed$tag.txt" --snapshot-out "$SERVE_DIR/snap_resumed$tag"
  cmp "$SERVE_DIR/snap_full$tag" "$SERVE_DIR/snap_resumed$tag" \
    || { echo "snapshot bytes differ after restore+replay ($tag)" >&2; exit 1; }
  diff <(grep '^decisions:' "$SERVE_DIR/full$tag.txt") <(grep '^decisions:' "$SERVE_DIR/resumed$tag.txt") \
    || { echo "decisions digest differs after restore+replay ($tag)" >&2; exit 1; }
}

serve_snapshot_scenario ""
echo "serve snapshot/restore ok"

RS_FAULTS="$SERVE_FAULTS" serve_snapshot_scenario "_chaos"
cmp "$SERVE_DIR/snap_full" "$SERVE_DIR/snap_full_chaos" \
  || { echo "injected serve.apply faults changed the snapshot bytes" >&2; exit 1; }
diff <(grep '^decisions:' "$SERVE_DIR/full.txt") <(grep '^decisions:' "$SERVE_DIR/full_chaos.txt") \
  || { echo "injected serve.apply faults changed the decisions digest" >&2; exit 1; }
echo "serve chaos ok (RS_FAULTS=$SERVE_FAULTS)"
rm -rf "$SERVE_DIR"

echo "== ci ok =="
