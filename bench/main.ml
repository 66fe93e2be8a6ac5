(* Bench harness.

   Two layers:

   1. The REPRODUCTION harness: regenerates every table and figure of the
      paper at the context given by RS_SCALE / RS_SEED / RS_TAU (default
      scale 0.15 keeps the whole run to a few minutes; raise it for more
      faithful counts).  This is the output that should be compared
      against the paper, shape-wise.

   2. A bechamel microbenchmark per table/figure: the hot kernel that the
      corresponding reproduction spends its time in (controller steps,
      stream generation, profiling, distillation, MSSP tasks), so
      regressions in the machinery that regenerates each artifact are
      visible as timing changes. *)

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

let bench_stream () =
  let pop = Lazy.force small_pop in
  let n = ref 0 in
  Rs_behavior.Stream.iter pop stream_cfg (fun _ -> incr n);
  !n

let small_trace = lazy (Rs_behavior.Trace_store.record (Lazy.force small_pop) stream_cfg)

let bench_trace_record () =
  Rs_behavior.Trace_store.length (Rs_behavior.Trace_store.record (Lazy.force small_pop) stream_cfg)

let bench_trace_replay () =
  (* the engine's replay fast path: decode every field from the packed
     words, no event allocation — compare against stream-generation *)
  let tr = Lazy.force small_trace in
  let acc = ref 0 in
  Rs_behavior.Trace_store.iter_packed tr (fun chunk len ->
      for i = 0 to len - 1 do
        let w = Array.unsafe_get chunk i in
        acc :=
          !acc
          + Rs_behavior.Trace_store.packed_branch w
          + Rs_behavior.Trace_store.packed_delta w
          + Bool.to_int (Rs_behavior.Trace_store.packed_taken w)
      done);
  !acc

let bench_reactive_observe () =
  (* figure5 / table3 / table4 kernel: one full small engine run *)
  let pop = Lazy.force small_pop in
  let r = Rs_sim.Engine.run pop stream_cfg Rs_core.Params.default in
  r.correct

let bench_reactive_replay () =
  (* the same engine run off a prerecorded trace: the chunked hot loop *)
  let pop = Lazy.force small_pop in
  let r = Rs_sim.Engine.run ~trace:(Lazy.force small_trace) pop stream_cfg Rs_core.Params.default in
  r.correct

let bench_profile () =
  (* figure2 kernel: profile collection with window checkpoints *)
  let pop = Lazy.force small_pop in
  let p = Rs_sim.Profile.collect pop stream_cfg in
  Rs_sim.Profile.total_events p

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

let bench_eviction_watch () =
  (* figure6 kernel *)
  let pop = Lazy.force small_pop in
  let w = Rs_sim.Eviction_watch.run pop stream_cfg Rs_core.Params.default in
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

let bench_path_extract () =
  (* CFG construction (preds/succs/edges/rpo/dominators) plus hot-path
     extraction under branch assumptions *)
  let r = Lazy.force multi_region in
  let f = Rs_ir.Program.entry_func r.prog in
  let cfg = Rs_ir.Cfg.build f in
  let assume site = if site land 1 = 0 then Some true else None in
  let p = Rs_ir.Path.extract cfg ~assume in
  Array.length p.Rs_ir.Path.blocks + Array.length (Rs_ir.Cfg.rpo cfg)

let mssp_params = Rs_experiments.Figure7.mssp_params ~monitor:1_000 ~closed:true

let mssp_instance =
  lazy
    (let inst =
       Rs_mssp.Workload.instantiate
         { (Rs_mssp.Workload.find "gzip") with tasks = 5_000 }
         ~seed:11
     in
     (* one run up front distills every version the kernel deploys, so
        even a short sample measures the task loop, not the one-off
        distillation *)
     ignore (Rs_mssp.Machine.run inst ~seed:5 ~params:mssp_params : Rs_mssp.Machine.stats);
     inst)

let bench_mssp_build () =
  (* figure7 / figure8 / table5 build kernel: workload instantiation
     (region models, site behaviours) without running the machine *)
  let inst =
    Rs_mssp.Workload.instantiate { (Rs_mssp.Workload.find "gzip") with tasks = 5_000 } ~seed:11
  in
  inst.Rs_mssp.Workload.n_sites

let bench_mssp () =
  (* figure7 / figure8 / table5 run kernel: a short MSSP run over the
     prebuilt instance *)
  let inst = Lazy.force mssp_instance in
  let s = Rs_mssp.Machine.run inst ~seed:5 ~params:mssp_params in
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
  (* rspec-all kernel: independent experiment thunks through run_all *)
  let pool = Lazy.force bench_pool in
  let outs =
    Rs_util.Pool.run_all pool
      (List.init 8 (fun k -> fun () ->
           let acc = ref k in
           for j = 1 to 5_000 do
             acc := (!acc * 31) + j
           done;
           !acc))
  in
  List.length outs

let bench_steal_latency () =
  (* scheduler hand-off: post a thunk and spin until a sleeping worker
     wakes and steals it — wakeup + steal latency, not task cost *)
  let pool = Lazy.force bench_pool in
  let flag = Atomic.make false in
  Rs_util.Pool.post pool (fun () -> Atomic.set flag true);
  while not (Atomic.get flag) do
    Domain.cpu_relax ()
  done;
  1

let bench_split_overhead () =
  (* pure scheduling overhead: trivial elements through the lazy binary
     splitter (every split forks a stealable right half) *)
  let pool = Lazy.force bench_pool in
  let out = Rs_util.Pool.map_range pool ~lo:0 ~hi:256 Fun.id in
  out.(255)

let bench_spec_commit () =
  (* speculation round-trip: spawn an arm (fresh metrics delta + cache
     transaction), wait for it, merge its buffered effects *)
  let pool = Lazy.force bench_pool in
  let s = Rs_util.Pool.spec_spawn pool (fun () -> 1) in
  Rs_util.Pool.spec_commit pool s

let bench_spec_cancel () =
  (* the rollback path: spawn then immediately discard *)
  let pool = Lazy.force bench_pool in
  let s = Rs_util.Pool.spec_spawn pool (fun () -> 1) in
  Rs_util.Pool.spec_cancel pool s;
  0

let kernels : (string * (unit -> int)) list =
  [
    ("table1+2/workload-build", bench_workload_build);
    ("figure2/profile-pass", bench_profile);
    ("figure2/pareto-curve", bench_pareto);
    ("figure3+9/bias-tracks", bench_tracks);
    ("figure5+table3+4/reactive-run", bench_reactive_observe);
    ("figure5+table3+4/reactive-run-replay", bench_reactive_replay);
    ("figure6/eviction-watch", bench_eviction_watch);
    ("figure1/distill", bench_distill);
    ("figure1/distill-cfg", bench_distill_cfg);
    ("figure1/path-extract", bench_path_extract);
    ("figure7+8+table5/mssp-build", bench_mssp_build);
    ("figure7+8+table5/mssp-run", bench_mssp);
    ("substrate/stream-generation", bench_stream);
    ("substrate/trace-record", bench_trace_record);
    ("substrate/trace-replay", bench_trace_replay);
    ("runner/pool-map", bench_pool_map);
    ("runner/cached-profile", bench_cached_profile);
    ("runner/parallel-all", bench_parallel_all);
    ("scheduler/steal-latency", bench_steal_latency);
    ("scheduler/split-overhead", bench_split_overhead);
    ("scheduler/spec-commit", bench_spec_commit);
    ("scheduler/spec-cancel", bench_spec_cancel);
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
   tens of thousands of words a run.  [Gc.minor_words] counts the words
   exactly; the gates on a nonzero word budget read this measure. *)
module Exact_minor = struct
  type witness = unit

  let load () = ()
  let unload () = ()
  let make () = ()
  let get () = Gc.minor_words ()
  let label () = "exact-minor-allocated"
  let unit () = "mnw"
end

let exact_minor = Measure.instance (module Exact_minor) (Measure.register (module Exact_minor))

(* Run every kernel through bechamel once and OLS-fit every measure:
   nanoseconds plus minor, major and promoted heap words per run.  The
   allocation trio is the zero-allocation story in one line: minor is
   per-event churn, major is deliberate flat-buffer allocation, promoted
   is minor traffic that survived a collection. *)
let measure_kernels () =
  (* prime outside the samples: the first cached-profile call pays the
     collection and would dominate the OLS estimate *)
  ignore (Lazy.force cache_ctx : Rs_experiments.Context.t);
  ignore (Lazy.force small_trace : Rs_behavior.Trace_store.t);
  ignore (Lazy.force small_profile : Rs_sim.Profile.t);
  ignore (Lazy.force mssp_instance : Rs_mssp.Workload.instance);
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let instances =
    Instance.[ monotonic_clock; minor_allocated; exact_minor; major_allocated; promoted ]
  in
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
        exact_minor_words_per_run = estimate exact_minor;
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
(* Reproductions                                                           *)
(* ---------------------------------------------------------------------- *)

let run_reproductions () =
  let scale =
    match Sys.getenv_opt "RS_SCALE" with Some s -> float_of_string s | None -> 0.25
  in
  let ctx = Rs_experiments.Context.create ~scale () in
  Printf.printf "== reproductions [%s] ==\n%!" (Rs_experiments.Context.describe ctx);
  let section name f =
    Printf.printf "\n-------- %s --------\n%!" name;
    let t0 = Sys.time () in
    f ctx;
    Printf.printf "(%s took %.1fs cpu)\n%!" name (Sys.time () -. t0)
  in
  let via run render ctx = print_string (render (run ctx)) in
  section "table1" (via Rs_experiments.Table1.run Rs_experiments.Table1.render);
  section "table2" (via Rs_experiments.Table2.run Rs_experiments.Table2.render);
  section "figure1" (via Rs_experiments.Figure1.run Rs_experiments.Figure1.render);
  section "figure2" (via Rs_experiments.Figure2.run Rs_experiments.Figure2.render);
  section "figure3" (via Rs_experiments.Figure3.run Rs_experiments.Figure3.render);
  section "figure5+table4"
    (fun ctx ->
      let f5 = Rs_experiments.Figure5.run ctx in
      print_string (Rs_experiments.Figure5.render f5);
      print_string (Rs_experiments.Table4.render (Rs_experiments.Table4.of_figure5 f5)));
  section "table3" (via Rs_experiments.Table3.run Rs_experiments.Table3.render);
  section "figure6" (via Rs_experiments.Figure6.run Rs_experiments.Figure6.render);
  section "figure9" (via Rs_experiments.Figure9.run Rs_experiments.Figure9.render);
  section "table5" (via Rs_experiments.Table5.run Rs_experiments.Table5.render);
  section "figure7" (via Rs_experiments.Figure7.run Rs_experiments.Figure7.render);
  section "figure8" (via Rs_experiments.Figure8.run Rs_experiments.Figure8.render);
  section "correlation (sec 4.3)" (via Rs_experiments.Correlation.run Rs_experiments.Correlation.render);
  section "ablations" (via Rs_experiments.Ablations.run Rs_experiments.Ablations.render);
  section "breakeven (sec 2.1)" (via Rs_experiments.Breakeven.run Rs_experiments.Breakeven.render);
  section "extension: value speculation" (via Rs_experiments.Extension_values.run Rs_experiments.Extension_values.render);
  section "paper-claim checklist" (via Rs_experiments.Claims.run Rs_experiments.Claims.render);
  Printf.printf "\n%s\n%!" (Rs_experiments.Cache.describe (Rs_experiments.Cache.stats ()))

(* ---------------------------------------------------------------------- *)
(* JSON mode (--json FILE)                                                 *)
(* ---------------------------------------------------------------------- *)

(* Machine-readable results for CI and for committing alongside the
   repo: kernel estimates (ns and minor words per run), the
   trace-replay-vs-stream-generation speedup, and a wall-clock
   comparison of one real swept experiment (figure5) with trace replay
   on and off.  Reproductions are skipped — this mode is meant to stay
   cheap enough for a CI smoke stage. *)

let time_figure5 ~replay ctx =
  Rs_experiments.Cache.set_trace_replay replay;
  Rs_experiments.Cache.reset ();
  let t0 = Unix.gettimeofday () in
  let rendered = Rs_experiments.Figure5.render (Rs_experiments.Figure5.run ctx) in
  (Unix.gettimeofday () -. t0, rendered)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float = function
  | Some f when Float.is_finite f -> Printf.sprintf "%.2f" f
  | _ -> "null"

let run_json file =
  let getf var default =
    match Sys.getenv_opt var with Some s -> float_of_string s | None -> default
  in
  let geti var default =
    match Sys.getenv_opt var with Some s -> int_of_string s | None -> default
  in
  let scale = getf "RS_SCALE" 0.05 in
  let seed = geti "RS_SEED" 3 in
  let tau = geti "RS_TAU" 10 in
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
  Rs_experiments.Cache.set_trace_replay true;
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
     steal/split/speculation activity is on record *)
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
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"name\": \"%s\", \"ns_per_run\": %s, \"minor_words_per_run\": %s, \
            \"exact_minor_words_per_run\": %s, \"major_words_per_run\": %s, \
            \"promoted_words_per_run\": %s }%s\n"
           (json_escape k_name) (json_float ns_per_run) (json_float minor_words_per_run)
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
       "  \"pool\": { \"tasks\": %d, \"steals\": %d, \"splits\": %d, \"spec_started\": %d, \
        \"spec_committed\": %d, \"spec_cancelled\": %d, \"worker_failures\": %d, \
        \"suppressed_failures\": %d }\n"
       pstats.tasks pstats.steals pstats.splits pstats.spec_started pstats.spec_committed
       pstats.spec_cancelled pstats.worker_failures pstats.suppressed_failures);
  Buffer.add_string buf "}\n";
  let oc = open_out file in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.eprintf "bench: wrote %s\n%!" file

let () =
  match Sys.argv with
  | [| _; "--json"; file |] -> run_json file
  | [| _ |] ->
    run_reproductions ();
    print_newline ();
    run_microbenchmarks ()
  | _ ->
    prerr_endline "usage: bench [--json FILE]";
    exit 2
