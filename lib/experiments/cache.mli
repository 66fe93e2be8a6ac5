(** Shared artifact cache for one experiment-suite run.

    The experiments of Sections 2–4 sweep the same 12 benchmarks over and
    over: figure2, figure3 and figure5 each rebuild the same populations
    and re-collect the same whole-run profiles, table3 re-runs figure5's
    baseline simulation, table4 and the claims checklist re-run figure5
    and figure2 outright.  This module memoises the three artifact kinds
    those loops share — built populations, collected {!Rs_sim.Profile}s
    and plain (hook-free) {!Rs_sim.Engine} results — keyed on the
    context's [(seed, scale, tau)] plus the benchmark, input and (for
    engine runs) controller parameters.  [jobs] is deliberately not part
    of the key: parallelism never changes results.  Two more kinds hold
    the Section 4 MSSP timing runs ({!mssp}) and their task tapes:
    figure8's latency-0 column and every correlation run repeat a
    figure7 configuration, the claims checklist reruns figure7 and
    figure8 whole, and all six configurations of a workload replay one
    tape.

    Profiles are collected once per [(context, benchmark, input)] with
    every checkpoint window the suite asks for (the default
    {!Rs_core.Static.windows}, the context's compressed
    {!Context.windows} and figure3's 20,000-execution window), so all
    three figure experiments share one physical profile.

    Each artifact kind is one {!Rs_util.Memo}, so entries are immutable
    once published and every operation is domain-safe: concurrent
    requests for one key compute it exactly once, latecomers park until
    it is published, a compute body that raises is retried
    in place up to {!Rs_util.Memo.retry_limit} attempts, and a {!reset}
    racing an in-flight computation never lets a pre-reset result into
    the post-reset table.  {!Rs_util.Memo} states the one wait rule
    that keeps parking free of deadlock.  The cache is process-global — [rspec all]
    threads it through every experiment.  Lookups feed the
    [cache.<kind>.hits] / [.misses] / [.retries] / [.waits] counters of
    {!Rs_obs.Metrics}, and {!stats} totals them for the bench harness.
    Compute bodies consult the [cache.build] / [cache.profile] /
    [cache.run] / [cache.mssp] / [cache.mssp_tape] fault-injection
    sites. *)

type stats = {
  build_hits : int;
  build_misses : int;
  profile_hits : int;
  profile_misses : int;
  run_hits : int;
  run_misses : int;
  mssp_hits : int;
  mssp_misses : int;
}

val build :
  Context.t ->
  Rs_workload.Benchmark.t ->
  input:Rs_workload.Benchmark.input ->
  Rs_behavior.Population.t * Rs_behavior.Stream.config
(** Memoised {!Context.build}.  The population is immutable after
    construction, so sharing one across domains is safe. *)

val profile :
  Context.t -> Rs_workload.Benchmark.t -> input:Rs_workload.Benchmark.input -> Rs_sim.Profile.t
(** Memoised {!Rs_sim.Profile.collect} over the memoised build, with the
    windows listed above; {!Rs_sim.Profile.counts_in_window} raises on
    any other.  Repeat requests return the physically same profile.  A
    Ref profile replays the stream's {!trace}; a Train profile is the
    only reader of its stream, so it generates the stream live and
    records nothing. *)

val run :
  Context.t ->
  Rs_workload.Benchmark.t ->
  input:Rs_workload.Benchmark.input ->
  Rs_core.Params.t ->
  Rs_sim.Engine.result
(** Memoised hook-free [Rs_sim.Engine.run] over the memoised build,
    keyed additionally on the (already compressed) parameters.  Callers
    that pass an [observer] or [on_transition] must keep calling the
    engine directly — hooks observe the run, so a cached replay would
    skip them. *)

val mssp : Rs_mssp.Workload.t -> seed:int -> Rs_core.Params.t -> Rs_mssp.Machine.stats
(** Memoised
    [Rs_mssp.Machine.run (Rs_mssp.Workload.instantiate spec ~seed) ~seed ~params]
    on the default machine, keyed on [(seed, spec, params)] — [spec]
    with its [tasks].  A miss instantiates its own workload, so no
    instance is ever shared between domains, and replays the
    [(seed, spec)] task tape ({!Rs_mssp.Machine.record}), itself
    memoised in [cache.mssp_tape]: every configuration of a workload
    shares one recording. *)

val trace :
  Context.t ->
  Rs_workload.Benchmark.t ->
  input:Rs_workload.Benchmark.input ->
  Rs_behavior.Trace_store.t option
(** The packed branch-event trace for the memoised build, recorded once
    per [(seed, scale, tau, benchmark, input)] through
    {!Rs_behavior.Trace_store.cached} and replayed by every later
    consumer ({!run}, a Ref {!profile}, and the figure experiments that
    drive the engine with hooks).  The recording is a compute body of the trace
    store's memo, so it gets the same bounded retries whether or not the
    caller is itself inside a compute body.  Returns [None] when the
    recording would not fit the trace store's capacity
    ([--trace-cache-mb]; always at 0) — callers pass the option straight
    to the [?trace] parameter of the sim layer, which then generates the
    stream live.  Both sources yield the same packed chunks, so the
    capacity never changes results, only speed and memory. *)

val stats : unit -> stats
(** Counters since the last {!reset} (or process start). *)

val hit_rate : stats -> float
(** Hits / (hits + misses) over builds, profiles and engine runs, 0 if
    nothing was requested.  MSSP runs are left out so the rate stays
    comparable with measurements taken before they were memoised. *)

val reset : unit -> unit
(** {!Rs_util.Memo.clear} every artifact memo and the process-global
    {!Rs_behavior.Trace_store} LRU (tests and benches), then run a full
    major collection and {!Rs_util.Malloc.trim}, so the dropped
    artifacts' memory is reused by whatever the process computes next,
    or returned to the OS, instead of adding to it.  In-flight
    computations complete for their own callers but publish nothing. *)
