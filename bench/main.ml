(* Bench harness: a bechamel microbenchmark per table/figure, the hot
   kernel that the corresponding reproduction spends its time in
   (controller steps, stream generation, profiling, distillation, MSSP
   tasks), so regressions in the machinery that regenerates each
   artifact are visible as timing changes.  The reproductions themselves
   are [rspec all].

     bench               print every kernel's estimates
     bench --json FILE   the same kernels plus two figure5 wall-clock
                         comparisons, as JSON for CI *)

open Bechamel
open Toolkit

(* ---------------------------------------------------------------------- *)
(* Microbenchmark kernels                                                  *)
(* ---------------------------------------------------------------------- *)

let small_pop =
  lazy
    (Rs_behavior.Population.create
       (Array.init 64 (fun id ->
            {
              Rs_behavior.Population.id;
              behavior = Rs_behavior.Behavior.Stationary (if id mod 4 = 0 then 0.7 else 0.999);
              weight = 1.0 /. float_of_int (id + 1);
            })))

let stream_cfg = { Rs_behavior.Stream.seed = 7; instr_per_branch = 6.0; length = 20_000 }

(* A recording of small_pop's stream, kept as 2-byte cells (64
   branches, 6 instructions per branch), and the same events packed by
   [of_events], which keeps int words: the two storage paths. *)
let small_trace = lazy (Rs_behavior.Trace_store.record (Lazy.force small_pop) stream_cfg)

let small_trace_words =
  lazy
    (let open Rs_behavior in
     let cells = Lazy.force small_trace in
     Trace_store.of_events ~n_branches:(Trace_store.n_branches cells) ~config:stream_cfg
       (fun push ->
         let instr = ref 0 in
         Trace_store.iter_packed cells (fun chunk len ->
             for i = 0 to len - 1 do
               let w = chunk.(i) in
               instr := !instr + Trace_store.packed_delta w;
               push ~branch:(Trace_store.packed_branch w) ~taken:(Trace_store.packed_taken w)
                 ~instr:!instr
             done)))

(* A benchmark population mixes every behaviour variant, so its stream
   crosses probability change points; [small_pop] is all [Stationary]
   and never does. *)
let mixed_stream =
  lazy
    (let pop, cfg =
       Rs_workload.Benchmark.build (Rs_workload.Benchmark.find "gcc") ~input:Ref ~seed:7
         ~scale:0.02 ~tau:10
     in
     (pop, { cfg with length = 20_000 }))

(* Decode every field of every packed word, no event allocation: the
   work any chunk consumer does before its own. *)
let decode_all ?trace ?(stream = (Lazy.force small_pop, stream_cfg)) () =
  let pop, cfg = stream in
  let acc = ref 0 in
  Rs_behavior.Trace_store.iter_chunks ?trace pop cfg (fun chunk len ->
      for i = 0 to len - 1 do
        let w = Array.unsafe_get chunk i in
        acc :=
          !acc
          + Rs_behavior.Trace_store.packed_branch w
          + Rs_behavior.Trace_store.packed_delta w
          + Bool.to_int (Rs_behavior.Trace_store.packed_taken w)
      done);
  !acc

(* the live chunk source: generate, pack into the reused buffer, decode *)
let bench_stream () = decode_all ()

let bench_stream_mixed () = decode_all ~stream:(Lazy.force mixed_stream) ()

let bench_trace_record () =
  Rs_behavior.Trace_store.length (Rs_behavior.Trace_store.record (Lazy.force small_pop) stream_cfg)

(* the recorded chunk source: decode only — compare against
   stream-generation; a cell recording's chunks are widened into one
   reused buffer, a word trace's are handed over as stored *)
let bench_trace_replay () = decode_all ~trace:(Lazy.force small_trace) ()

let bench_trace_replay_words () = decode_all ~trace:(Lazy.force small_trace_words) ()

(* The controller kernels' parameters: Table 2's on a clock that fits
   a 20,000-event stream, a 500-execution monitor period and the
   latency and wait period compressed 100-fold (10,000 instructions and
   10,000 executions), so the busiest branches are selected and
   deployed. *)
let controller_params =
  { (Rs_core.Params.compress ~factor:100 Rs_core.Params.default) with monitor_period = 500 }

(* small_pop's weights, with every fourth branch reversing fully after
   600 executions, as Figure 6's evicted branches do; recorded, and
   checked to reach the biased phase and to watch an eviction, so the
   controller kernels time more than the monitor phase. *)
let reversing_stream =
  lazy
    (let open Rs_behavior in
     let pop =
       Population.create
         (Array.init 64 (fun id ->
              {
                Population.id;
                behavior =
                  (if id mod 4 = 0 then
                     Behavior.Phases
                       [| { length = 600; p_taken = 0.999 }; { length = 1; p_taken = 0.0 } |]
                   else Behavior.Stationary 0.999);
                weight = 1.0 /. float_of_int (id + 1);
              }))
     in
     let trace = Trace_store.record pop stream_cfg in
     let r = Rs_sim.Engine.run ~trace pop stream_cfg controller_params in
     let selections = List.init 64 (Rs_core.Reactive.selections r.controller) in
     if List.fold_left ( + ) 0 selections = 0 then
       failwith "bench: no branch reaches the biased phase";
     if (Rs_sim.Eviction_watch.run ~trace pop stream_cfg controller_params).samples = 0 then
       failwith "bench: the eviction watch watches no eviction";
     (pop, trace))

let bench_reactive_observe () =
  (* figure5 / table3 / table4 kernel: one full small engine run, the
     stream generated live *)
  let pop, _ = Lazy.force reversing_stream in
  let r = Rs_sim.Engine.run pop stream_cfg controller_params in
  r.correct

let bench_reactive_replay () =
  (* the same engine run off a prerecorded trace: the chunked hot loop *)
  let pop, trace = Lazy.force reversing_stream in
  let r = Rs_sim.Engine.run ~trace pop stream_cfg controller_params in
  r.correct

(* every Figure 5 / Table 4 configuration over the same recording, with
   the monitor period cut to 500 executions so that small_trace's 20k
   events take its busiest branches into the biased phase, where the
   variants differ *)
let bench_variants_replay () =
  let pop = Lazy.force small_pop and trace = Lazy.force small_trace in
  List.fold_left
    (fun acc (v : Rs_core.Variants.t) ->
      let params = { v.params with monitor_period = 500 } in
      acc + (Rs_sim.Engine.run ~trace pop stream_cfg params).correct)
    0 Rs_core.Variants.all

let bench_profile () =
  (* figure2 kernel: profile collection with window checkpoints *)
  let pop = Lazy.force small_pop in
  let p = Rs_sim.Profile.collect pop stream_cfg in
  Rs_sim.Profile.total_events p

(* the same pass over small_pop's cell recording, read in place *)
let bench_profile_replay () =
  let pop = Lazy.force small_pop and trace = Lazy.force small_trace in
  Rs_sim.Profile.total_events (Rs_sim.Profile.collect ~trace pop stream_cfg)

let small_profile = lazy (Rs_sim.Profile.collect (Lazy.force small_pop) stream_cfg)

let bench_pareto () =
  (* figure2 kernel: the frontier computation alone, over a prebuilt
     profile (profile collection is the kernel above) *)
  Array.length (Rs_sim.Pareto.curve (Lazy.force small_profile))

let bench_tracks () =
  (* figure3 / figure9 kernel *)
  let pop = Lazy.force small_pop in
  let t = Rs_sim.Tracks.Intervals.collect pop stream_cfg ~buckets:16 ~min_execs:10 in
  List.length (Rs_sim.Tracks.Intervals.flippers t ~threshold:0.99)

(* the same collection over small_pop's cell recording, read in place *)
let bench_tracks_replay () =
  let pop = Lazy.force small_pop and trace = Lazy.force small_trace in
  let t = Rs_sim.Tracks.Intervals.collect ~trace pop stream_cfg ~buckets:16 ~min_execs:10 in
  List.length (Rs_sim.Tracks.Intervals.flippers t ~threshold:0.99)

let bench_eviction_watch () =
  (* figure6 kernel, the stream generated live *)
  let pop, _ = Lazy.force reversing_stream in
  let w = Rs_sim.Eviction_watch.run pop stream_cfg controller_params in
  w.samples

(* the same watch over the stream's cell recording: the observer loop
   over cells *)
let bench_eviction_watch_replay () =
  let pop, trace = Lazy.force reversing_stream in
  let w = Rs_sim.Eviction_watch.run ~trace pop stream_cfg controller_params in
  w.samples

let region =
  lazy (Rs_ir.Synth.generate ~rng:(Rs_util.Prng.create 3) ~n_sites:4 ~first_site:0 ())

let bench_distill () =
  (* figure1 kernel: a full distillation *)
  let r = Lazy.force region in
  let a = Rs_distill.Assumptions.branches [ (0, true); (2, false) ] in
  (Rs_distill.Distill.distill r.prog a).distilled_size

let multi_region =
  lazy
    (Rs_ir.Synth.program ~rng:(Rs_util.Prng.create 3) ~helper_sites:2 ~loop_trips:3
       ~first_site:0 ())

let bench_distill_cfg () =
  (* interprocedural distillation: edge pruning, path-directed inlining,
     per-function fixpoint, hot/cold split *)
  let r = Lazy.force multi_region in
  let a = Rs_distill.Assumptions.branches [ (0, true); (1, true); (4, true) ] in
  let d = Rs_distill.Distill.distill r.prog a in
  d.distilled_size + d.stats.Rs_distill.Distill.inlined_calls

let mssp_params = Rs_experiments.Figure7.mssp_params ~monitor:1_000 ~closed:true

let mssp_instance =
  lazy
    (Rs_mssp.Workload.instantiate
       { (Rs_mssp.Workload.find "gzip") with tasks = 5_000 }
       ~seed:11)

let mssp_tape =
  lazy
    (let inst = Lazy.force mssp_instance in
     let tape = Rs_mssp.Machine.record inst ~seed:5 in
     (* one replay up front distills every version the kernel deploys,
        so even a short sample measures the task loop, not the one-off
        distillation *)
     ignore (Rs_mssp.Machine.replay inst tape ~params:mssp_params : Rs_mssp.Machine.stats);
     tape)

let bench_mssp_build () =
  (* figure7 / figure8 / table5 build kernel: workload instantiation
     (region models, site behaviours) without running the machine *)
  let inst =
    Rs_mssp.Workload.instantiate { (Rs_mssp.Workload.find "gzip") with tasks = 5_000 } ~seed:11
  in
  inst.Rs_mssp.Workload.n_sites

let bench_mssp_record () =
  (* figure7 / figure8 / table5 record kernel: sample a short run's task
     tape (regions, branch outcomes) and price its baseline, once per
     workload whatever the controller *)
  let tape = Rs_mssp.Machine.record (Lazy.force mssp_instance) ~seed:5 in
  ignore (Sys.opaque_identity tape : Rs_mssp.Machine.tape);
  0

let bench_mssp () =
  (* figure7 / figure8 / table5 run kernel: a short MSSP replay of a
     recorded tape over the prebuilt, primed instance *)
  let tape = Lazy.force mssp_tape in
  let s = Rs_mssp.Machine.replay (Lazy.force mssp_instance) tape ~params:mssp_params in
  s.squashes

let bench_workload_build () =
  (* table1/table2 kernel: building a benchmark population *)
  let bm = Rs_workload.Benchmark.find "gzip" in
  let pop, _ = Rs_workload.Benchmark.build bm ~input:Ref ~seed:3 ~scale:0.02 ~tau:10 in
  Rs_behavior.Population.size pop

let bench_pool =
  lazy (Rs_util.Pool.create ~jobs:4 ())

let pool_input = Array.init 256 (fun i -> i)

let bench_pool_map () =
  (* runner kernel: fan a cheap workload over the shared pool; measures
     queueing + hand-off overhead per map_ordered call *)
  let pool = Lazy.force bench_pool in
  let out =
    Rs_util.Pool.map_ordered pool
      (fun i ->
        let acc = ref 0 in
        for j = 1 to 200 do
          acc := (!acc * 7) + (i lxor j)
        done;
        !acc)
      pool_input
  in
  out.(255)

let cache_ctx =
  lazy
    (let ctx = Rs_experiments.Context.create ~seed:3 ~scale:0.02 ~tau:10 ~jobs:1 () in
     (* prime the entry so the benchmark below measures the hit path,
        not the one-off collection *)
     ignore
       (Rs_experiments.Cache.profile ctx (Rs_workload.Benchmark.find "gzip") ~input:Ref
         : Rs_sim.Profile.t);
     ctx)

let bench_cached_profile () =
  (* cache hit path: the context's lazy primes the entry, so every
     request here replays the published profile and this measures
     lookup overhead *)
  let ctx = Lazy.force cache_ctx in
  let bm = Rs_workload.Benchmark.find "gzip" in
  let p = Rs_experiments.Cache.profile ctx bm ~input:Ref in
  Rs_sim.Profile.total_events p

let bench_parallel_all () =
  (* rspec-all kernel: independent experiment thunks through map_ordered *)
  let pool = Lazy.force bench_pool in
  let outs =
    Rs_util.Pool.map_ordered pool
      (fun run -> run ())
      (Array.init 8 (fun k () ->
           let acc = ref k in
           for j = 1 to 5_000 do
             acc := (!acc * 31) + j
           done;
           !acc))
  in
  Array.length outs

let bench_map_overhead () =
  (* pure scheduling overhead: trivial elements, one claim each *)
  let pool = Lazy.force bench_pool in
  let out = Rs_util.Pool.map_range pool ~lo:0 ~hi:256 Fun.id in
  out.(255)

let kernels : (string * (unit -> int)) list =
  [
    ("table1+2/workload-build", bench_workload_build);
    ("figure2/profile-pass", bench_profile);
    ("figure2/profile-pass-replay", bench_profile_replay);
    ("figure2/pareto-curve", bench_pareto);
    ("figure3+9/bias-tracks", bench_tracks);
    ("figure3+9/bias-tracks-replay", bench_tracks_replay);
    ("figure5+table3+4/reactive-run", bench_reactive_observe);
    ("figure5+table3+4/reactive-run-replay", bench_reactive_replay);
    ("figure5+table3+4/variants-replay", bench_variants_replay);
    ("figure6/eviction-watch", bench_eviction_watch);
    ("figure6/eviction-watch-replay", bench_eviction_watch_replay);
    ("figure1/distill", bench_distill);
    ("figure1/distill-cfg", bench_distill_cfg);
    ("figure7+8+table5/mssp-build", bench_mssp_build);
    ("figure7+8+table5/mssp-record", bench_mssp_record);
    ("figure7+8+table5/mssp-run", bench_mssp);
    ("substrate/stream-generation", bench_stream);
    ("substrate/stream-generation-mixed", bench_stream_mixed);
    ("substrate/trace-record", bench_trace_record);
    ("substrate/trace-replay", bench_trace_replay);
    ("substrate/trace-replay-words", bench_trace_replay_words);
    ("runner/pool-map", bench_pool_map);
    ("runner/cached-profile", bench_cached_profile);
    ("runner/parallel-all", bench_parallel_all);
    ("scheduler/map-overhead", bench_map_overhead);
  ]

(* The sampling budget per kernel, overridable so CI smoke runs can keep
   the whole harness to a couple of seconds. *)
let quota_s () =
  match Sys.getenv_opt "RS_BENCH_QUOTA" with
  | Some s -> (
    match float_of_string_opt s with
    | Some q when q > 0.0 -> q
    | _ -> failwith (Printf.sprintf "RS_BENCH_QUOTA expects a positive float, got %S" s))
  | None -> 0.25

type kernel_estimate = {
  k_name : string;
  ns_per_run : float option;
  minor_words_per_run : float option;
  exact_minor_words_per_run : float option;
  major_words_per_run : float option;
  promoted_words_per_run : float option;
}

(* Bechamel's minor-allocated measure reads [Gc.quick_stat], which on
   OCaml 5 only advances at a minor collection: a kernel that allocates a
   few thousand words a run reads 0 or a whole minor heap per sample,
   depending on where collections land, so a short sample can bill it
   tens of thousands of words a run.  The exact count instead reads
   [Gc.minor_words], which counts this domain's words exactly, around a
   fixed number of calls made after the kernel's sample (so lazies and
   caches are warm); the gates on a nonzero word budget read it. *)
let exact_calls = 10

let exact_minor_words fn =
  let before = Gc.minor_words () in
  for _ = 1 to exact_calls do
    ignore (Sys.opaque_identity (fn ()) : int)
  done;
  (Gc.minor_words () -. before) /. float_of_int exact_calls

(* Run every kernel through bechamel once and OLS-fit every measure:
   nanoseconds plus minor, major and promoted heap words per run; then
   count its minor words exactly.  The allocation trio is the
   zero-allocation story in one line: minor is per-event churn, major is
   deliberate flat-buffer allocation, promoted is minor traffic that
   survived a collection. *)
let measure_kernels () =
  (* prime outside the samples: the first cached-profile call pays the
     collection and would dominate the OLS estimate *)
  ignore (Lazy.force cache_ctx : Rs_experiments.Context.t);
  ignore (Lazy.force small_trace_words : Rs_behavior.Trace_store.t);
  ignore (Lazy.force mixed_stream : Rs_behavior.Population.t * Rs_behavior.Stream.config);
  ignore (Lazy.force small_profile : Rs_sim.Profile.t);
  ignore (Lazy.force mssp_tape : Rs_mssp.Machine.tape);
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock; minor_allocated; major_allocated; promoted ] in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second (quota_s ())) ~kde:None () in
  List.map
    (fun (name, fn) ->
      let results = Benchmark.all cfg instances (Test.make ~name (Staged.stage fn)) in
      let estimate instance =
        let analyzed = Analyze.all ols instance results in
        Hashtbl.fold
          (fun _ r acc ->
            match Analyze.OLS.estimates r with Some (e :: _) -> Some e | _ -> acc)
          analyzed None
      in
      {
        k_name = name;
        ns_per_run = estimate Instance.monotonic_clock;
        minor_words_per_run = estimate Instance.minor_allocated;
        exact_minor_words_per_run = Some (exact_minor_words fn);
        major_words_per_run = estimate Instance.major_allocated;
        promoted_words_per_run = estimate Instance.promoted;
      })
    kernels

let run_microbenchmarks () =
  print_endline "== microbenchmarks (per kernel run; OLS on monotonic clock) ==";
  List.iter
    (fun
      { k_name; ns_per_run; minor_words_per_run; major_words_per_run; promoted_words_per_run; _ }
    ->
      match ns_per_run with
      | Some ns ->
        Printf.printf "  %-36s %12.0f ns/run %10.0f mnr-w %10.0f mjr-w %8.0f prm-w\n%!" k_name
          ns
          (Option.value ~default:0.0 minor_words_per_run)
          (Option.value ~default:0.0 major_words_per_run)
          (Option.value ~default:0.0 promoted_words_per_run)
      | None -> Printf.printf "  %-36s (no estimate)\n%!" k_name)
    (measure_kernels ())

(* ---------------------------------------------------------------------- *)
(* JSON mode (--json FILE)                                                 *)
(* ---------------------------------------------------------------------- *)

(* The JSON mode takes its context from the environment; a malformed
   value fails naming its variable instead of falling back to a default. *)
let env parse var default =
  match Sys.getenv_opt var with
  | None -> default
  | Some s -> (
    match parse s with
    | Some v -> v
    | None -> failwith (Printf.sprintf "%s: malformed value %S" var s))

(* Machine-readable results for CI and for committing alongside the
   repo: kernel estimates (ns and minor words per run), the
   trace-replay-vs-stream-generation speedup, and a wall-clock
   comparison of one real swept experiment (figure5) with trace replay
   on (the default trace-store capacity) and off (capacity 0: every
   stream generated live).  It stays cheap enough for a CI smoke
   stage. *)

let time_figure5 ~replay ctx =
  Rs_behavior.Trace_store.set_capacity_bytes
    (if replay then Rs_behavior.Trace_store.default_capacity_mb * 1024 * 1024 else 0);
  Rs_experiments.Cache.reset ();
  let t0 = Unix.gettimeofday () in
  let rendered = Rs_experiments.Figure5.render (Rs_experiments.Figure5.run ctx) in
  (Unix.gettimeofday () -. t0, rendered)

let json_float = function
  | Some f when Float.is_finite f -> Printf.sprintf "%.2f" f
  | _ -> "null"

let run_json file =
  let scale = env float_of_string_opt "RS_SCALE" 0.05 in
  let seed = env int_of_string_opt "RS_SEED" 3 in
  let tau = env int_of_string_opt "RS_TAU" 10 in
  let ctx = Rs_experiments.Context.create ~seed ~scale ~tau ~jobs:1 () in
  Printf.eprintf "bench: measuring %d kernels (quota %.2fs each)...\n%!" (List.length kernels)
    (quota_s ());
  let estimates = measure_kernels () in
  let find name =
    List.find_opt (fun k -> k.k_name = name) estimates
    |> Fun.flip Option.bind (fun k -> k.ns_per_run)
  in
  let trace_speedup =
    match (find "substrate/stream-generation", find "substrate/trace-replay") with
    | Some gen, Some rep when rep > 0.0 -> Some (gen /. rep)
    | _ -> None
  in
  Printf.eprintf "bench: timing figure5 with and without trace replay...\n%!";
  let regen_s, regen_out = time_figure5 ~replay:false ctx in
  let replay_s, replay_out = time_figure5 ~replay:true ctx in
  Printf.eprintf "bench: timing figure5 at jobs 1 vs jobs 8...\n%!";
  let time_figure5_jobs jobs =
    Rs_experiments.Cache.reset ();
    let ctx = Rs_experiments.Context.create ~seed ~scale ~tau ~jobs () in
    let t0 = Unix.gettimeofday () in
    let rendered = Rs_experiments.Figure5.render (Rs_experiments.Figure5.run ctx) in
    (Unix.gettimeofday () -. t0, rendered)
  in
  let jobs1_s, jobs1_out = time_figure5_jobs 1 in
  let jobs8_s, jobs8_out = time_figure5_jobs 8 in
  (* scheduler counters, read after the jobs-8 sweep so a parallel run's
     activity is on record *)
  let pstats = Rs_util.Pool.stats () in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"context\": { \"seed\": %d, \"scale\": %g, \"tau\": %d, \"quota_s\": %g },\n" seed
       scale tau (quota_s ()));
  Buffer.add_string buf "  \"kernels\": [\n";
  List.iteri
    (fun i
         {
           k_name;
           ns_per_run;
           minor_words_per_run;
           exact_minor_words_per_run;
           major_words_per_run;
           promoted_words_per_run;
         }
       ->
      Buffer.add_string buf "    { \"name\": ";
      Rs_obs.Trace.add_json_string buf k_name;
      Buffer.add_string buf
        (Printf.sprintf
           ", \"ns_per_run\": %s, \"minor_words_per_run\": %s, \
            \"exact_minor_words_per_run\": %s, \"major_words_per_run\": %s, \
            \"promoted_words_per_run\": %s }%s\n"
           (json_float ns_per_run) (json_float minor_words_per_run)
           (json_float exact_minor_words_per_run)
           (json_float major_words_per_run)
           (json_float promoted_words_per_run)
           (if i = List.length estimates - 1 then "" else ",")))
    estimates;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"trace_replay_speedup_vs_stream_generation\": %s,\n"
       (json_float trace_speedup));
  Buffer.add_string buf "  \"experiments\": [\n";
  Buffer.add_string buf
    (Printf.sprintf
       "    { \"name\": \"figure5\", \"regen_wall_s\": %.3f, \"replay_wall_s\": %.3f, \
        \"speedup\": %.3f, \"identical_output\": %b },\n"
       regen_s replay_s
       (if replay_s > 0.0 then regen_s /. replay_s else 0.0)
       (String.equal regen_out replay_out));
  Buffer.add_string buf
    (Printf.sprintf
       "    { \"name\": \"figure5-jobs\", \"cores\": %d, \"jobs1_wall_s\": %.3f, \
        \"jobs8_wall_s\": %.3f, \"speedup\": %.3f, \"identical_output\": %b }\n"
       (Domain.recommended_domain_count ())
       jobs1_s jobs8_s
       (if jobs8_s > 0.0 then jobs1_s /. jobs8_s else 0.0)
       (String.equal jobs1_out jobs8_out));
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"pool\": { \"tasks\": %d, \"shared\": %d, \"worker_failures\": %d, \
        \"suppressed_failures\": %d }\n"
       pstats.tasks pstats.shared pstats.worker_failures
       pstats.suppressed_failures);
  Buffer.add_string buf "}\n";
  let oc = open_out file in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.eprintf "bench: wrote %s\n%!" file

let () =
  match Sys.argv with
  | [| _; "--json"; file |] -> run_json file
  | [| _ |] -> run_microbenchmarks ()
  | _ ->
    prerr_endline "usage: bench [--json FILE]";
    exit 2
