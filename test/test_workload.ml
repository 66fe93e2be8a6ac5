module BM = Rs_workload.Benchmark
module Adv = Rs_workload.Adversary
module MT = Rs_workload.Mistrain
module IL = Rs_workload.Interleave
module Pop = Rs_behavior.Population
module Stream = Rs_behavior.Stream
module TS = Rs_behavior.Trace_store
module Prng = Rs_util.Prng

let tau = BM.default_tau

let test_twelve_benchmarks () =
  Alcotest.(check int) "12 benchmarks" 12 (List.length BM.all);
  Alcotest.(check (list string)) "paper order"
    [ "bzip2"; "crafty"; "eon"; "gap"; "gcc"; "gzip"; "mcf"; "parser"; "perl"; "twolf";
      "vortex"; "vpr" ]
    BM.names

let test_find () =
  Alcotest.(check string) "find gcc" "gcc" (BM.find "gcc").name;
  Alcotest.check_raises "unknown" Not_found (fun () -> ignore (BM.find "nope"))

let test_paper_rows () =
  (* spot-check the transcription of Table 3 *)
  let gcc = BM.find "gcc" in
  Alcotest.(check int) "gcc touch" 7943 gcc.paper.p_touch;
  Alcotest.(check int) "gcc bias" 2068 gcc.paper.p_bias;
  let mcf = BM.find "mcf" in
  Alcotest.(check int) "mcf misspec dist" 12_896 mcf.paper.p_misspec_dist;
  let ave =
    List.fold_left (fun acc (b : BM.t) -> acc +. b.paper.p_spec_pct) 0.0 BM.all
    /. float_of_int (List.length BM.all)
  in
  Alcotest.(check bool) "Table 3 average ~44.8%" true (abs_float (ave -. 44.8) < 1.0)

let test_build_deterministic () =
  let bm = BM.find "gzip" in
  let p1, c1 = BM.build bm ~input:Ref ~seed:1 ~scale:0.05 ~tau in
  let p2, c2 = BM.build bm ~input:Ref ~seed:1 ~scale:0.05 ~tau in
  Alcotest.(check int) "same size" (Pop.size p1) (Pop.size p2);
  Alcotest.(check int) "same length" c1.length c2.length;
  for i = 0 to Pop.size p1 - 1 do
    let s1 = Pop.spec p1 i and s2 = Pop.spec p2 i in
    if s1.weight <> s2.weight then Alcotest.failf "weight mismatch at %d" i
  done

let test_build_population_size () =
  List.iter
    (fun (bm : BM.t) ->
      let pop, cfg = BM.build bm ~input:Ref ~seed:3 ~scale:0.05 ~tau in
      let expected = max 1 (int_of_float (Float.round (float_of_int bm.touch *. 0.05))) in
      (* derived background classes absorb rounding: allow slack *)
      let n = Pop.size pop in
      if abs (n - expected) > expected / 5 then
        Alcotest.failf "%s: population %d far from touch target %d" bm.name n expected;
      Alcotest.(check bool) (bm.name ^ " has positive length") true (cfg.length > 0))
    BM.all

let test_scale_validation () =
  let bm = BM.find "mcf" in
  Alcotest.check_raises "scale 0" (Invalid_argument "Benchmark.build: scale must be in (0, 1]")
    (fun () -> ignore (BM.build bm ~input:Ref ~seed:1 ~scale:0.0 ~tau));
  Alcotest.check_raises "scale 2" (Invalid_argument "Benchmark.build: scale must be in (0, 1]")
    (fun () -> ignore (BM.build bm ~input:Ref ~seed:1 ~scale:2.0 ~tau));
  Alcotest.check_raises "tau 0" (Invalid_argument "Benchmark.build: tau must be positive")
    (fun () -> ignore (BM.build bm ~input:Ref ~seed:1 ~scale:0.5 ~tau:0))

let test_train_input_differs () =
  let bm = BM.find "crafty" in
  let pr, _ = BM.build bm ~input:Ref ~seed:5 ~scale:0.1 ~tau in
  let pt, _ = BM.build bm ~input:Train ~seed:5 ~scale:0.1 ~tau in
  Alcotest.(check int) "same statics" (Pop.size pr) (Pop.size pt);
  (* the coverage gap leaves some branches unexercised on train *)
  let gap = ref 0 in
  for i = 0 to Pop.size pt - 1 do
    if (Pop.spec pt i).weight < 0.01 && (Pop.spec pr i).weight > 1.0 then incr gap
  done;
  Alcotest.(check bool) "coverage gap present" true (!gap > 0);
  (* input-dependent branches flip direction between inputs *)
  let flipped = ref 0 in
  for i = 0 to Pop.size pr - 1 do
    match ((Pop.spec pr i).behavior, (Pop.spec pt i).behavior) with
    | Rs_behavior.Behavior.Stationary a, Rs_behavior.Behavior.Stationary b
      when abs_float (a -. (1.0 -. b)) < 1e-9 && abs_float (a -. b) > 0.9 ->
      incr flipped
    | _ -> ()
  done;
  Alcotest.(check bool) "input-dependent branches flip" true (!flipped > 0)

let test_scaled_run_smoke () =
  (* tiny end-to-end run on one benchmark: the reactive controller finds a
     sizeable biased population and a low misspeculation rate *)
  let bm = BM.find "twolf" in
  let pop, cfg = BM.build bm ~input:Ref ~seed:11 ~scale:0.05 ~tau in
  let params = Rs_core.Params.compress ~factor:tau Rs_core.Params.default in
  let r = Rs_sim.Engine.run pop cfg params in
  let row = Rs_sim.Accounting.of_result r in
  Alcotest.(check bool) "speculates >20% of branches" true (row.correct_rate > 0.2);
  Alcotest.(check bool) "misspec rate below 1%" true (row.incorrect_rate < 0.01);
  Alcotest.(check bool) "some branches biased" true (row.entered_biased > 0)

let test_biased_class_size () =
  let bm = BM.find "gcc" in
  let expected = BM.biased_class_size bm ~scale:1.0 in
  (* gcc's Table 3 bias column is 2068 *)
  Alcotest.(check bool) "near the paper target" true (abs (expected - 2068) < 80)

(* ---------------------------------------------------------------------- *)
(* Adversarial scenario family                                             *)
(* ---------------------------------------------------------------------- *)

let spec_list pop = List.init (Pop.size pop) (fun i -> Pop.spec pop i)

(* Determinism in the full input tuple: identical (scenario, seed, scale,
   params) must rebuild structurally identical populations and configs —
   the registry, the trace cache and the golden snapshots all lean on
   this. *)
let qcheck_adversary_deterministic =
  QCheck.Test.make
    ~name:"Adversary/Mistrain builds deterministic in (scenario, seed, scale, params)"
    ~count:30
    QCheck.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (seed, salt) ->
      let params = Test_batch.gen_params (Prng.create (salt + 1)) in
      let scale = [| 0.05; 0.25; 1.0 |].(salt mod 3) in
      let sc = List.nth Adv.all (salt mod List.length Adv.all) in
      let p1, c1 = Adv.build sc ~params ~seed ~scale in
      let p2, c2 = Adv.build sc ~params ~seed ~scale in
      let schedule = if salt mod 2 = 0 then MT.Train_then_trigger else MT.Burst_poison in
      let strength = 0.3 +. (0.65 *. float_of_int (salt mod 7) /. 6.0) in
      let m1 = MT.build schedule ~strength ~params ~seed ~scale in
      let m2 = MT.build schedule ~strength ~params ~seed ~scale in
      c1 = c2
      && spec_list p1 = spec_list p2
      && m1.config = m2.config
      && m1.victims = m2.victims
      && spec_list m1.population = spec_list m2.population)

(* Quarantine monotonicity: under the same schedule, a stronger poison
   climbs the eviction counter faster, so the deployed code must stop
   speculating no later (small slack for stream-scheduling noise). *)
let test_quarantine_monotone () =
  let params =
    Rs_core.Params.compress ~factor:200 { Rs_core.Params.default with monitor_period = 50 }
  in
  List.iter
    (fun seed ->
      List.iter
        (fun schedule ->
          let mean_q strength =
            let b = MT.build schedule ~strength ~params ~seed ~scale:0.05 in
            let tr = TS.record b.population b.config in
            let q = Rs_sim.Quarantine.create ~n_branches:(TS.n_branches tr) in
            let (_ : Rs_sim.Engine.result) =
              Rs_sim.Engine.run
                ~observer:(Rs_sim.Quarantine.observer q)
                ~trace:tr b.population b.config params
            in
            match
              Array.to_list b.victims
              |> List.filter_map (fun v -> Rs_sim.Quarantine.time_to_quarantine q v)
            with
            | [] ->
              Alcotest.failf "%s seed %d strength %.1f: victim never quarantined"
                (MT.schedule_name schedule) seed strength
            | l ->
              List.fold_left (fun a (e, _) -> a +. float_of_int e) 0.0 l
              /. float_of_int (List.length l)
          in
          let strong = mean_q 0.9 and weak = mean_q 0.4 in
          if strong > weak +. 1.0 then
            Alcotest.failf "%s seed %d: stronger attack quarantined slower (%.0f vs %.0f)"
              (MT.schedule_name schedule) seed strong weak)
        MT.schedules)
    [ 3; 11; 42 ]

(* The merged multi-context views must preserve each context's events
   exactly — same count per context, globally non-decreasing instruction
   counts, and the shared/split views differing only in branch ids. *)
let test_interleave_merge_preserved () =
  List.iter
    (fun schedule ->
      List.iter
        (fun seed ->
          let m = IL.build schedule ~seed ~scale:0.3 in
          let n = IL.branches_per_context ~scale:0.3 in
          let per_ctx = n * IL.execs_per_branch in
          Array.iteri
            (fun c got ->
              if got <> per_ctx then
                Alcotest.failf "context %d contributed %d events, wanted %d" c got per_ctx)
            m.per_context_events;
          let _, _, split_tr = m.split in
          let counts = Array.make IL.n_contexts 0 in
          let last = ref 0 in
          let mono = ref true in
          let instr = ref 0 in
          TS.iter_packed split_tr (fun chunk len ->
              for i = 0 to len - 1 do
                let w = chunk.(i) in
                let b = TS.packed_branch w in
                instr := !instr + TS.packed_delta w;
                counts.(b / n) <- counts.(b / n) + 1;
                if !instr < !last then mono := false;
                last := !instr
              done);
          Alcotest.(check bool) "instr non-decreasing across the merge" true !mono;
          Alcotest.(check (array int))
            "split view preserves per-context event counts" m.per_context_events counts;
          let decode tr =
            let acc = ref [] in
            TS.iter_packed tr (fun chunk len ->
                for i = 0 to len - 1 do
                  let w = chunk.(i) in
                  acc := (TS.packed_taken w, TS.packed_delta w) :: !acc
                done);
            !acc
          in
          let _, _, shared_tr = m.shared in
          Alcotest.(check bool)
            "shared and split views carry the same outcome/delta sequence" true
            (decode shared_tr = decode split_tr))
        [ 3; 11 ])
    IL.schedules

let suite =
  [
    Alcotest.test_case "twelve benchmarks" `Quick test_twelve_benchmarks;
    Alcotest.test_case "find" `Quick test_find;
    Alcotest.test_case "paper rows" `Quick test_paper_rows;
    Alcotest.test_case "build deterministic" `Quick test_build_deterministic;
    Alcotest.test_case "population sizes" `Quick test_build_population_size;
    Alcotest.test_case "scale validation" `Quick test_scale_validation;
    Alcotest.test_case "train input differs" `Quick test_train_input_differs;
    Alcotest.test_case "scaled run smoke" `Slow test_scaled_run_smoke;
    Alcotest.test_case "biased class size" `Quick test_biased_class_size;
    QCheck_alcotest.to_alcotest qcheck_adversary_deterministic;
    Alcotest.test_case "quarantine monotone in mistraining strength" `Slow
      test_quarantine_monotone;
    Alcotest.test_case "interleave merge preserves per-context events" `Slow
      test_interleave_merge_preserved;
  ]
