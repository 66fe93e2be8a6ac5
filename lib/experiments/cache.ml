module BM = Rs_workload.Benchmark
module Static = Rs_core.Static
module Fault = Rs_fault.Fault
module Memo = Rs_util.Memo

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

(* Cache keys carry the context minus [jobs]: parallelism must never
   change what is computed. *)
type ckey = { seed : int; scale : float; tau : int; bench : string; input : BM.input }

let ckey (ctx : Context.t) (bm : BM.t) input =
  { seed = ctx.seed; scale = ctx.scale; tau = ctx.tau; bench = bm.name; input }

let builds : (ckey, Rs_behavior.Population.t * Rs_behavior.Stream.config) Memo.t =
  Memo.create "cache.build"

let profiles : (ckey, Rs_sim.Profile.t) Memo.t = Memo.create "cache.profile"
let runs : (ckey * Rs_core.Params.t, Rs_sim.Engine.result) Memo.t = Memo.create "cache.run"

let input_tag : BM.input -> string = function Ref -> "ref" | Train -> "train"

let build ctx bm ~input =
  Memo.find_or_compute builds ~label:bm.BM.name (ckey ctx bm input) (fun () ->
      Fault.hit ~site:"cache.build" ~key:(bm.BM.name ^ "/" ^ input_tag input);
      Context.build ctx bm ~input)

(* Branch-event streams are pure in (population, stream config), and the
   population is pure in the ckey, so every consumer below shares one
   packed recording per ckey through the trace store's LRU: the sweeps
   (figure5's variants, table3/4, the ablations, breakeven) record the
   stream once and replay it per parameter point.  A stream the store
   cannot hold comes back as [None] and its consumers generate it live —
   the same chunks, so the capacity never changes results. *)
let stream_key (k : ckey) =
  Printf.sprintf "%s/%s/seed=%d/scale=%g/tau=%d" k.bench (input_tag k.input) k.seed k.scale
    k.tau

let trace ctx bm ~input =
  let pop, cfg = build ctx bm ~input in
  Rs_behavior.Trace_store.cached ~key:(stream_key (ckey ctx bm input)) pop cfg

(* Every checkpoint window the suite requests anywhere: the paper-time
   windows (figure5's default profiles), the context's compressed windows
   (figure2) and figure3's invariance horizon.  Collecting each profile
   once with the union lets all three experiments share it; checkpoints
   are independent, so extra windows never change the counts at the
   requested ones. *)
let canonical_windows (ctx : Context.t) =
  let all = Array.concat [ Static.windows; Context.windows ctx; [| 20_000 |] ] in
  Array.of_list (List.sort_uniq compare (Array.to_list all))

let profile ctx bm ~input =
  Memo.find_or_compute profiles ~label:bm.BM.name (ckey ctx bm input) (fun () ->
      Fault.hit ~site:"cache.profile" ~key:(bm.BM.name ^ "/" ^ input_tag input);
      let pop, cfg = build ctx bm ~input in
      Rs_sim.Profile.collect ~windows:(canonical_windows ctx) ?trace:(trace ctx bm ~input) pop
        cfg)

let run ctx bm ~input params =
  Memo.find_or_compute runs ~label:bm.BM.name
    (ckey ctx bm input, params)
    (fun () ->
      Fault.hit ~site:"cache.run"
        ~key:
          (Printf.sprintf "%s/%s/%04x" bm.BM.name (input_tag input)
             (Hashtbl.hash params land 0xffff));
      let pop, cfg = build ctx bm ~input in
      Rs_sim.Engine.run ~label:bm.name ?trace:(trace ctx bm ~input) pop cfg params)

(* MSSP timing runs on the default machine: [Machine.run]'s stats are a
   pure function of the seed, the workload spec (its [tasks] included)
   and the controller parameters — a run's counters are its own, however
   many runs shared the instance before it — so those three are the
   whole key.  The context's scale and tau never reach the model. *)
let mssp_runs : (int * Rs_mssp.Workload.t * Rs_core.Params.t, Rs_mssp.Machine.stats) Memo.t =
  Memo.create "cache.mssp"

let mssp (spec : Rs_mssp.Workload.t) ~seed params =
  Memo.find_or_compute mssp_runs ~label:spec.name (seed, spec, params) (fun () ->
      Fault.hit ~site:"cache.mssp"
        ~key:(Printf.sprintf "%s/%04x" spec.name (Hashtbl.hash params land 0xffff));
      Rs_mssp.Machine.run (Rs_mssp.Workload.instantiate spec ~seed) ~seed ~params)

let stats () =
  let hits_misses m =
    let s = Memo.stats m in
    (s.hits, s.misses)
  in
  let build_hits, build_misses = hits_misses builds in
  let profile_hits, profile_misses = hits_misses profiles in
  let run_hits, run_misses = hits_misses runs in
  let mssp_hits, mssp_misses = hits_misses mssp_runs in
  {
    build_hits;
    build_misses;
    profile_hits;
    profile_misses;
    run_hits;
    run_misses;
    mssp_hits;
    mssp_misses;
  }

(* The rate keeps its original scope (builds, profiles, engine runs), so
   it stays comparable with measurements taken before MSSP runs were
   memoised. *)
let hit_rate s =
  let hits = s.build_hits + s.profile_hits + s.run_hits in
  let total = hits + s.build_misses + s.profile_misses + s.run_misses in
  if total = 0 then 0.0 else float_of_int hits /. float_of_int total

let reset () =
  Memo.clear builds;
  Memo.clear profiles;
  Memo.clear runs;
  Memo.clear mssp_runs;
  Rs_behavior.Trace_store.clear ();
  (* Collect what was just dropped (a suite's recordings alone are
     ~330 MB at scale 0.02): the major GC may not otherwise run before a
     process that resets starts over, and would hold both generations at
     once. *)
  Gc.full_major ()
