module M = Rs_mssp.Machine
module W = Rs_mssp.Workload
module RM = Rs_mssp.Region_model
module G = Rs_mssp.Gshare

(* --- gshare -------------------------------------------------------------- *)

let test_gshare_learns_bias () =
  let g = G.create ~bits:10 in
  for _ = 1 to 2000 do
    ignore (G.predict_and_update g ~pc:123 ~taken:true)
  done;
  Alcotest.(check bool) "learns an always-taken branch" true (G.accuracy g > 0.99)

let test_gshare_random_is_hard () =
  let g = G.create ~bits:10 in
  let rng = Rs_util.Prng.create 4 in
  let correct = ref 0 in
  let n = 10_000 in
  for _ = 1 to n do
    if G.predict_and_update g ~pc:55 ~taken:(Rs_util.Prng.bool rng) then incr correct
  done;
  let acc = float_of_int !correct /. float_of_int n in
  Alcotest.(check bool) "random branch ~50%" true (acc > 0.4 && acc < 0.6)

(* --- region model -------------------------------------------------------- *)

let region () = Rs_ir.Synth.generate ~rng:(Rs_util.Prng.create 2) ~n_sites:3 ~first_site:0 ()

let test_region_tables_match_interp () =
  let r = region () in
  let model = RM.create r in
  for v = 0 to 7 do
    let outcomes = Array.init 3 (fun j -> v land (1 lsl j) <> 0) in
    let direct = Rs_ir.Synth.run r ~outcomes in
    Alcotest.(check int)
      (Printf.sprintf "length for vector %d" v)
      direct.dyn_instrs
      (RM.original_length model ~outcomes:v)
  done

let test_region_version_semantics () =
  let r = region () in
  let model = RM.create r in
  (* assume site 0 taken and site 2 not taken: bit j is site j *)
  let v = RM.version_bits model ~mask:0b101 ~bits:0b001 in
  (* violations: site 0 must be taken (bit 0 set), site 2 not taken *)
  Alcotest.(check bool) "consistent vector ok" false
    (RM.Version.violated v ~outcomes:0b001);
  Alcotest.(check bool) "site0 wrong" true (RM.Version.violated v ~outcomes:0b000);
  Alcotest.(check bool) "site2 wrong" true (RM.Version.violated v ~outcomes:0b101);
  Alcotest.(check bool) "site1 free" false (RM.Version.violated v ~outcomes:0b011);
  (* distilled code is shorter on consistent vectors *)
  Alcotest.(check bool) "distilled shorter" true
    (RM.Version.length v ~outcomes:0b001 < RM.original_length model ~outcomes:0b001);
  Alcotest.(check int) "two versions cached after another request" 2
    (let _ = RM.version_bits model ~mask:0 ~bits:0 in
     RM.recompilations model)

let test_region_empty_version_is_identity () =
  let r = region () in
  let model = RM.create r in
  let v = RM.version_bits model ~mask:0 ~bits:0 in
  for outcomes = 0 to 7 do
    Alcotest.(check bool) "never violated" false (RM.Version.violated v ~outcomes);
    Alcotest.(check int) "same length as original" (RM.original_length model ~outcomes)
      (RM.Version.length v ~outcomes)
  done

(* --- workloads ----------------------------------------------------------- *)

let test_workload_instantiation () =
  Alcotest.(check int) "12 benchmarks" 12 (List.length W.all);
  let spec = W.find "gzip" in
  let inst = W.instantiate { spec with tasks = 1_000 } ~seed:3 in
  Alcotest.(check int) "sites" (spec.n_regions * spec.sites_per_region) inst.n_sites;
  Alcotest.(check int) "regions" spec.n_regions (Array.length inst.regions);
  Alcotest.(check int) "behaviours per site" inst.n_sites (Array.length inst.behaviors);
  (* insensitive benchmarks carry no changing sites *)
  List.iter
    (fun name ->
      let s = W.find name in
      Alcotest.(check int) (name ^ " has no changing sites") 0 s.changing_sites)
    [ "eon"; "gcc"; "perl"; "twolf" ]

let test_workload_deterministic () =
  let spec = { (W.find "mcf") with tasks = 2_000 } in
  let p = Rs_experiments.Figure7.mssp_params ~monitor:1_000 ~closed:true in
  let s1 = M.run (W.instantiate spec ~seed:3) ~seed:9 ~params:p in
  let s2 = M.run (W.instantiate spec ~seed:3) ~seed:9 ~params:p in
  Alcotest.(check bool) "same cycles" true (s1.mssp_cycles = s2.mssp_cycles);
  Alcotest.(check int) "same squashes" s1.squashes s2.squashes

(* --- machine ------------------------------------------------------------- *)

let short spec = { spec with W.tasks = 80_000 }

let test_machine_speedup_on_stable_benchmark () =
  let inst = W.instantiate (short (W.find "eon")) ~seed:5 in
  let p = Rs_experiments.Figure7.mssp_params ~monitor:1_000 ~closed:true in
  let s = M.run inst ~seed:5 ~params:p in
  Alcotest.(check bool) "speculation speeds MSSP up" true (M.speedup s > 1.05);
  Alcotest.(check bool) "master executes fewer instructions" true
    (s.master_instrs < s.orig_instrs);
  Alcotest.(check bool) "some recompilations happened" true (s.recompilations > 0);
  Alcotest.(check bool) "baseline predictor is decent" true
    (s.baseline_mispredict_rate < 0.35)

let test_machine_closed_beats_open_on_changing () =
  (* long enough for the changing sites to actually change *)
  let short spec = { spec with W.tasks = 150_000 } in
  let inst = W.instantiate (short (W.find "mcf")) ~seed:5 in
  let closed =
    M.run inst ~seed:5 ~params:(Rs_experiments.Figure7.mssp_params ~monitor:1_000 ~closed:true)
  in
  let inst = W.instantiate (short (W.find "mcf")) ~seed:5 in
  let opened =
    M.run inst ~seed:5
      ~params:(Rs_experiments.Figure7.mssp_params ~monitor:1_000 ~closed:false)
  in
  Alcotest.(check bool) "closed loop faster" true (M.speedup closed > M.speedup opened);
  Alcotest.(check bool) "open loop squashes much more" true
    (opened.squashes > 3 * closed.squashes);
  Alcotest.(check bool) "closed loop evicts" true (closed.evictions > 0);
  Alcotest.(check int) "open loop never evicts" 0 opened.evictions

let test_machine_no_speculation_no_squash () =
  (* a controller that never selects: never speculates, never squashes,
     and MSSP degenerates to roughly the baseline plus overheads *)
  let inst = W.instantiate (short (W.find "eon")) ~seed:7 in
  let params =
    { (Rs_experiments.Figure7.mssp_params ~monitor:1_000 ~closed:true) with
      selection_threshold = 1.0; monitor_period = 1_000_000_000 }
  in
  let s = M.run inst ~seed:7 ~params in
  Alcotest.(check int) "no squashes" 0 s.squashes;
  Alcotest.(check int) "master executes original lengths" s.orig_instrs s.master_instrs;
  Alcotest.(check bool) "no speedup" true (M.speedup s <= 1.0)

let test_machine_latency_tolerance () =
  let p0 = Rs_experiments.Figure7.mssp_params ~monitor:1_000 ~closed:true in
  let inst () = W.instantiate (short (W.find "gcc")) ~seed:5 in
  let s0 = M.run (inst ()) ~seed:5 ~params:p0 in
  let s1 = M.run (inst ()) ~seed:5 ~params:{ p0 with optimization_latency = 100_000 } in
  let d = (M.speedup s0 -. M.speedup s1) /. M.speedup s0 in
  Alcotest.(check bool) "10^5-cycle latency costs little" true (d < 0.05)

let test_config_defaults () =
  let c = Rs_mssp.Config.default in
  Alcotest.(check int) "4-wide leading" 4 c.leading.width;
  Alcotest.(check int) "12-stage leading" 12 c.leading.pipeline_depth;
  Alcotest.(check int) "2-wide trailing" 2 c.trailing.width;
  Alcotest.(check int) "8 trailing cores" 8 c.n_trailing;
  Alcotest.(check int) "10-cycle hop" 10 c.coherence_hop;
  Alcotest.(check int) "two iterations per task" 2 c.iters_per_task;
  Alcotest.(check bool) "leading faster than trailing" true
    (c.leading.effective_ipc > c.trailing.effective_ipc)

let test_violations_count () =
  let r = region () in
  let model = RM.create r in
  let v = RM.version_bits model ~mask:0b111 ~bits:0b111 in
  Alcotest.(check int) "all wrong" 3 (RM.Version.violations v ~outcomes:0b000);
  Alcotest.(check int) "one wrong" 1 (RM.Version.violations v ~outcomes:0b011);
  Alcotest.(check int) "none wrong" 0 (RM.Version.violations v ~outcomes:0b111)

(* --- per-run counters ---------------------------------------------------- *)

let test_stats_are_per_run () =
  (* Region models still keep every version they built across runs (the
     mssp-run bench kernel times runs on a primed instance), although
     Cache.mssp now instantiates per run.  A run's stats must be its own:
     here the shared instance first serves a run with a low selection
     threshold, which also assumes the moderately biased sites and so
     builds versions the default never requests; yet its later runs
     match one on a fresh instance in every field, recompilations
     included. *)
  let spec = { (W.find "mcf") with W.tasks = 40_000 } in
  let closed = Rs_experiments.Figure7.mssp_params ~monitor:1_000 ~closed:true in
  let shared = W.instantiate spec ~seed:3 in
  let o = M.run shared ~seed:3 ~params:{ closed with selection_threshold = 0.6 } in
  let c1 = M.run shared ~seed:3 ~params:closed in
  let c2 = M.run shared ~seed:3 ~params:closed in
  let fresh = M.run (W.instantiate spec ~seed:3) ~seed:3 ~params:closed in
  Alcotest.(check bool) "runs requested versions" true (o.recompilations > 0);
  Alcotest.(check int) "recompilations are per-run" fresh.recompilations c1.recompilations;
  Alcotest.(check bool) "first shared run = fresh run" true (c1 = fresh);
  Alcotest.(check bool) "second shared run = fresh run" true (c2 = fresh)

(* --- Cache.mssp ----------------------------------------------------------- *)

module Cache = Rs_experiments.Cache

let cached_spec = { (W.find "gzip") with W.tasks = 3_000 }
let closed_1k = Rs_experiments.Figure7.mssp_params ~monitor:1_000 ~closed:true

let mssp_counts () =
  let s = Cache.stats () in
  (s.mssp_hits, s.mssp_misses)

let test_cache_mssp_memoizes () =
  Cache.reset ();
  Fun.protect ~finally:Cache.reset @@ fun () ->
  let seed = 4 in
  let first = Cache.mssp cached_spec ~seed closed_1k in
  let hit = Cache.mssp cached_spec ~seed closed_1k in
  let direct = M.run (W.instantiate cached_spec ~seed) ~seed ~params:closed_1k in
  Alcotest.(check bool) "a hit returns the published stats" true (hit == first);
  Alcotest.(check bool) "equal to Machine.run on a fresh instance" true (hit = direct);
  Alcotest.(check (pair int int)) "one hit, one miss" (1, 1) (mssp_counts ());
  let opened = Rs_experiments.Figure7.mssp_params ~monitor:1_000 ~closed:false in
  let longer = { cached_spec with W.tasks = 4_000 } in
  ignore (Cache.mssp cached_spec ~seed opened : M.stats);
  let l = Cache.mssp longer ~seed closed_1k in
  Alcotest.(check int) "tasks is part of the key" 4_000 l.tasks;
  ignore (Cache.mssp cached_spec ~seed:5 closed_1k : M.stats);
  Alcotest.(check (pair int int)) "params, tasks and seed each miss" (1, 4)
    (mssp_counts ());
  Cache.reset ();
  Alcotest.(check (pair int int)) "reset zeroes the counters" (0, 0) (mssp_counts ());
  ignore (Cache.mssp cached_spec ~seed closed_1k : M.stats);
  Alcotest.(check (pair int int)) "reset drops the entries" (0, 1) (mssp_counts ())

let test_cache_mssp_concurrent () =
  (* two requests for one key, on a jobs-2 pool: whichever arrives
     second either waits on the in-flight computation or finds it
     published — never computes it again *)
  Cache.reset ();
  Fun.protect ~finally:Cache.reset @@ fun () ->
  let pool = Rs_util.Pool.create ~jobs:2 () in
  Fun.protect ~finally:(fun () -> Rs_util.Pool.close pool) @@ fun () ->
  let seed = 8 in
  let spec = { cached_spec with W.tasks = 20_000 } in
  let arrived = Atomic.make 0 in
  let request () =
    (* meet the other request (bounded, in case both land on one
       domain) so the two lookups overlap *)
    Atomic.incr arrived;
    let t0 = Unix.gettimeofday () in
    while Atomic.get arrived < 2 && Unix.gettimeofday () -. t0 < 1.0 do
      Domain.cpu_relax ()
    done;
    Cache.mssp spec ~seed closed_1k
  in
  match Rs_util.Pool.map_ordered pool (fun request -> request ()) [| request; request |] with
  | [| a; b |] ->
    Alcotest.(check bool) "both get the one published result" true (a == b);
    Alcotest.(check (pair int int)) "exactly one miss" (1, 1) (mssp_counts ())
  | _ -> Alcotest.fail "map_ordered lost a result"

let suite =
  [
    Alcotest.test_case "gshare learns bias" `Quick test_gshare_learns_bias;
    Alcotest.test_case "gshare random is hard" `Quick test_gshare_random_is_hard;
    Alcotest.test_case "region tables match interp" `Quick test_region_tables_match_interp;
    Alcotest.test_case "region version semantics" `Quick test_region_version_semantics;
    Alcotest.test_case "empty version is identity" `Quick test_region_empty_version_is_identity;
    Alcotest.test_case "workload instantiation" `Quick test_workload_instantiation;
    Alcotest.test_case "workload deterministic" `Quick test_workload_deterministic;
    Alcotest.test_case "speedup on stable benchmark" `Quick
      test_machine_speedup_on_stable_benchmark;
    Alcotest.test_case "closed beats open on changing" `Quick
      test_machine_closed_beats_open_on_changing;
    Alcotest.test_case "no speculation, no squash" `Quick test_machine_no_speculation_no_squash;
    Alcotest.test_case "latency tolerance" `Quick test_machine_latency_tolerance;
    Alcotest.test_case "config defaults (Table 5)" `Quick test_config_defaults;
    Alcotest.test_case "violation counting" `Quick test_violations_count;
    Alcotest.test_case "stats are per-run" `Quick test_stats_are_per_run;
    Alcotest.test_case "Cache.mssp memoizes" `Quick test_cache_mssp_memoizes;
    Alcotest.test_case "Cache.mssp concurrent requests" `Quick test_cache_mssp_concurrent;
  ]
