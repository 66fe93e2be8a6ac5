module B = Rs_behavior.Behavior
module Pop = Rs_behavior.Population
module Stream = Rs_behavior.Stream
module Params = Rs_core.Params
module Static = Rs_core.Static
module Profile = Rs_sim.Profile
module Pareto = Rs_sim.Pareto
module SE = Rs_sim.Static_eval
module Engine = Rs_sim.Engine

let pop_of behaviors =
  Pop.create
    (Array.of_list (List.mapi (fun id (b, w) -> { Pop.id; behavior = b; weight = w }) behaviors))

let cfg ?(seed = 42) ?(ipb = 5.0) length = { Stream.seed; instr_per_branch = ipb; length }

(* small controller parameters used across the simulator tests *)
let small_params =
  {
    Params.default with
    monitor_period = 100;
    wait_period = 1_000;
    evict_threshold = 500;
    optimization_latency = 0;
  }

(* --- profile ------------------------------------------------------------ *)

let test_profile_counts () =
  let pop = pop_of [ (B.Stationary 1.0, 1.0); (B.Stationary 0.0, 1.0) ] in
  let p = Profile.collect pop (cfg 10_000) in
  let c0 = Profile.counts p 0 and c1 = Profile.counts p 1 in
  Alcotest.(check int) "events split" 10_000 (c0.execs + c1.execs);
  Alcotest.(check int) "branch 0 all taken" c0.execs c0.taken;
  Alcotest.(check int) "branch 1 never taken" 0 c1.taken;
  Alcotest.(check int) "events" 10_000 (Profile.total_events p);
  Alcotest.(check int) "instructions" 50_000 (Profile.total_instructions p)

let test_profile_windows () =
  let windows = [| 10; 100 |] in
  (* deterministic flip at 50: first 50 taken, rest not *)
  let pop = pop_of [ (B.Flip_at { threshold = 50; first = true }, 1.0) ] in
  let p = Profile.collect ~windows pop (cfg 1_000) in
  let w10 = Profile.counts_in_window p 0 ~window:10 in
  Alcotest.(check int) "first 10 all taken" 10 w10.taken;
  Alcotest.(check int) "window execs" 10 w10.execs;
  let w100 = Profile.counts_in_window p 0 ~window:100 in
  Alcotest.(check int) "first 100: 50 taken" 50 w100.taken;
  let after = Profile.counts_after_window p 0 ~window:100 in
  Alcotest.(check int) "rest execs" 900 after.execs;
  Alcotest.(check int) "rest never taken" 0 after.taken

let test_profile_short_branch_window () =
  (* a branch with fewer executions than the window: the window covers its
     whole life *)
  let pop = pop_of [ (B.Stationary 1.0, 1.0); (B.Stationary 1.0, 1000.0) ] in
  let p = Profile.collect ~windows:[| 1_000 |] pop (cfg 5_000) in
  let c0 = Profile.counts p 0 in
  let w = Profile.counts_in_window p 0 ~window:1_000 in
  Alcotest.(check int) "window = whole life" c0.execs w.execs;
  let after = Profile.counts_after_window p 0 ~window:1_000 in
  Alcotest.(check int) "nothing after" 0 after.execs

let test_profile_unknown_window () =
  let pop = pop_of [ (B.Stationary 1.0, 1.0) ] in
  let p = Profile.collect ~windows:[| 10 |] pop (cfg 100) in
  Alcotest.check_raises "unknown window" (Invalid_argument "Profile: unknown window length")
    (fun () -> ignore (Profile.counts_in_window p 0 ~window:99))

(* --- pareto ------------------------------------------------------------- *)

let mixed_pop () =
  pop_of
    [
      (B.Stationary 1.0, 4.0);
      (B.Stationary 0.999, 3.0);
      (B.Stationary 0.95, 2.0);
      (B.Stationary 0.6, 2.0);
      (B.Stationary 0.5, 1.0);
    ]

let test_pareto_monotone () =
  let p = Profile.collect (mixed_pop ()) (cfg 50_000) in
  let curve = Pareto.curve p in
  Alcotest.(check int) "one point per touched branch" 5 (Array.length curve);
  let ok = ref true in
  for i = 1 to Array.length curve - 1 do
    if curve.(i).correct < curve.(i - 1).correct then ok := false;
    if curve.(i).incorrect < curve.(i - 1).incorrect then ok := false;
    if curve.(i).bias > curve.(i - 1).bias then ok := false
  done;
  Alcotest.(check bool) "cumulative counts monotone, bias decreasing" true !ok;
  let last = curve.(Array.length curve - 1) in
  Alcotest.(check int) "full curve covers all events" 50_000 (last.correct + last.incorrect)

let test_pareto_threshold_consistency () =
  let p = Profile.collect (mixed_pop ()) (cfg 50_000) in
  let pt = Pareto.at_threshold p ~threshold:0.99 in
  (* must equal self-training evaluation at the same threshold *)
  let st = SE.self_training p ~threshold:0.99 in
  Alcotest.(check int) "correct matches" st.correct pt.correct;
  Alcotest.(check int) "incorrect matches" st.incorrect pt.incorrect;
  (* threshold 0 admits everything *)
  let all = Pareto.at_threshold p ~threshold:0.0 in
  Alcotest.(check int) "threshold 0 covers run" 50_000 (all.correct + all.incorrect)

let qcheck_pareto_dominates_thresholds =
  (* The Pareto curve must dominate every threshold rule: for any
     threshold point there is a curve point with >= correct and <=
     incorrect. *)
  QCheck.Test.make ~name:"pareto curve dominates threshold points" ~count:50
    QCheck.(pair small_int (float_range 0.5 1.0))
    (fun (seed, threshold) ->
      let pop = mixed_pop () in
      let p = Profile.collect pop (cfg ~seed 20_000) in
      let curve = Pareto.curve p in
      let pt = Pareto.at_threshold p ~threshold in
      Array.exists
        (fun (c : Pareto.point) -> c.correct >= pt.correct && c.incorrect <= pt.incorrect)
        curve)

(* --- static policies ---------------------------------------------------- *)

let test_offline_coverage_and_flip () =
  (* Branch 0 flips direction between train and eval; branch 1 is stable;
     branch 2 is unexercised in training. *)
  let eval_pop =
    pop_of [ (B.Stationary 1.0, 1.0); (B.Stationary 1.0, 1.0); (B.Stationary 1.0, 1.0) ]
  in
  let train_pop =
    pop_of [ (B.Stationary 0.0, 1.0); (B.Stationary 1.0, 1.0); (B.Stationary 1.0, 0.00001) ]
  in
  let eval = Profile.collect eval_pop (cfg 30_000) in
  let train = Profile.collect train_pop (cfg ~seed:7 30_000) in
  let o = SE.offline ~train ~eval ~threshold:0.99 in
  let self = SE.self_training eval ~threshold:0.99 in
  Alcotest.(check bool) "offline loses benefit" true (o.correct < self.correct);
  Alcotest.(check bool) "offline misspeculates badly" true (o.incorrect > self.incorrect);
  (* the flipped branch contributes ~1/3 of events as misspeculations *)
  let _, irate = SE.rate eval o in
  Alcotest.(check bool) "misspec rate near 1/3" true (irate > 0.25 && irate < 0.42)

let test_initial_window () =
  (* flips at 200: a 100-execution window classifies it as biased and pays
     for it on the tail *)
  let pop = pop_of [ (B.Flip_at { threshold = 200; first = true }, 1.0) ] in
  let p = Profile.collect ~windows:[| 100 |] pop (cfg 1_000) in
  let o = SE.initial_window p ~window:100 ~threshold:0.99 in
  Alcotest.(check int) "100 correct (to the flip)" 100 o.correct;
  Alcotest.(check int) "800 misspecs (after the flip)" 800 o.incorrect

let test_initial_window_skips_unbiased_start () =
  (* unbiased first 100, then perfectly biased: window policy never
     selects (the "lost opportunity" class) *)
  let pop =
    pop_of
      [ (B.Phases [| { length = 100; p_taken = 0.5 }; { length = 1; p_taken = 1.0 } |], 1.0) ]
  in
  let p = Profile.collect ~windows:[| 100 |] pop (cfg 1_000) in
  let o = SE.initial_window p ~window:100 ~threshold:0.99 in
  Alcotest.(check int) "no benefit" 0 o.correct;
  Alcotest.(check int) "no cost" 0 o.incorrect

(* --- engine ------------------------------------------------------------- *)

let test_engine_biased_branch () =
  let pop = pop_of [ (B.Stationary 1.0, 1.0) ] in
  let r = Engine.run pop (cfg 10_000) small_params in
  (* monitor costs 100 executions; everything after is correct *)
  Alcotest.(check int) "corrects = run - monitor" 9_900 r.correct;
  Alcotest.(check int) "no misspecs" 0 r.incorrect;
  Alcotest.(check (float 0.0)) "distance infinite" infinity (Engine.misspec_distance r)

let test_engine_unbiased_branch () =
  let pop = pop_of [ (B.Stationary 0.5, 1.0) ] in
  let r = Engine.run pop (cfg 10_000) small_params in
  Alcotest.(check int) "never speculates" 0 (r.correct + r.incorrect)

let test_engine_deterministic () =
  let pop = pop_of [ (B.Stationary 0.99, 1.0); (B.Stationary 0.7, 1.0) ] in
  let r1 = Engine.run pop (cfg 20_000) small_params in
  let r2 = Engine.run pop (cfg 20_000) small_params in
  Alcotest.(check int) "correct deterministic" r1.correct r2.correct;
  Alcotest.(check int) "incorrect deterministic" r1.incorrect r2.incorrect

let test_engine_observer_sees_everything () =
  let pop = pop_of [ (B.Stationary 1.0, 1.0) ] in
  let n = ref 0 in
  let speculated = ref 0 in
  let observer ~branch:_ ~taken:_ ~instr:_ ~code =
    incr n;
    (* bit 0 of the decision code: the deployed code speculates *)
    if code land 1 = 1 then incr speculated
  in
  let r = Engine.run ~observer pop (cfg 5_000) small_params in
  Alcotest.(check int) "observer saw all events" 5_000 !n;
  Alcotest.(check int) "observer agrees with scoring" r.correct !speculated

let test_engine_reversal_recovery () =
  (* perfect reversal: the closed loop evicts and re-learns the opposite
     direction; misspecs bounded by the eviction threshold dynamics *)
  let pop =
    pop_of
      [ (B.Phases [| { length = 2_000; p_taken = 1.0 }; { length = 1; p_taken = 0.0 } |], 1.0) ]
  in
  let r = Engine.run pop (cfg 10_000) small_params in
  let c = r.controller in
  Alcotest.(check int) "one eviction" 1 (Rs_core.Reactive.evictions c 0);
  Alcotest.(check int) "two selections" 2 (Rs_core.Reactive.selections c 0);
  (* eviction threshold 500 = 10 consecutive misspecs *)
  Alcotest.(check bool) "misspecs bounded" true (r.incorrect < 30);
  Alcotest.(check bool) "most of both phases exploited" true (r.correct > 9_000)

let test_engine_open_loop_pays () =
  let pop =
    pop_of
      [ (B.Phases [| { length = 2_000; p_taken = 1.0 }; { length = 1; p_taken = 0.0 } |], 1.0) ]
  in
  let closed = Engine.run pop (cfg 10_000) small_params in
  let open_loop =
    Engine.run pop (cfg 10_000) { small_params with enable_eviction = false }
  in
  Alcotest.(check bool) "open loop misspeculates ~8000 times" true
    (open_loop.incorrect > 7_500);
  Alcotest.(check bool) "closed loop is orders of magnitude better" true
    (closed.incorrect * 50 < open_loop.incorrect)

(* --- accounting --------------------------------------------------------- *)

let test_accounting () =
  let pop =
    pop_of
      [
        (B.Stationary 1.0, 1.0);
        (B.Stationary 0.5, 1.0);
        (B.Phases [| { length = 2_000; p_taken = 1.0 }; { length = 1; p_taken = 0.0 } |], 1.0);
      ]
  in
  let r = Engine.run pop (cfg 30_000) small_params in
  let row = Rs_sim.Accounting.of_result r in
  Alcotest.(check int) "touched" 3 row.touched;
  Alcotest.(check int) "entered biased" 2 row.entered_biased;
  Alcotest.(check int) "evicted statics" 1 row.evicted;
  Alcotest.(check bool) "correct rate sane" true
    (row.correct_rate > 0.5 && row.correct_rate < 0.7)

(* [capped] counts branches in the disabled phase; that equals the
   number of [Capped] transitions because only that arc enters the phase
   and nothing leaves it.  osc_flip is built to drive branches into it. *)
let test_accounting_capped () =
  let params = Params.compress ~factor:10 Params.default in
  let pop, cfg =
    Rs_workload.Adversary.build (Rs_workload.Adversary.find "osc_flip") ~params ~seed:7 ~scale:0.1
  in
  let capped_events = ref 0 in
  let on_transition (t : Rs_core.Types.transition) =
    if t.kind = Capped then incr capped_events
  in
  let row = Rs_sim.Accounting.of_result (Engine.run ~on_transition pop cfg params) in
  Alcotest.(check int) "capped = Capped transitions" !capped_events row.capped;
  Alcotest.(check bool) "some branch capped" true (row.capped > 0)

let test_accounting_average () =
  let mk c i =
    {
      Rs_sim.Accounting.touched = 10;
      entered_biased = 4;
      evicted = 1;
      total_evictions = 2;
      total_selections = 5;
      capped = 0;
      correct_rate = c;
      incorrect_rate = i;
      misspec_distance = 100.0;
    }
  in
  let avg = Rs_sim.Accounting.average [ mk 0.4 0.01; mk 0.6 0.03 ] in
  Alcotest.(check (float 1e-9)) "avg correct" 0.5 avg.correct_rate;
  Alcotest.(check (float 1e-9)) "avg incorrect" 0.02 avg.incorrect_rate;
  Alcotest.(check int) "avg touched" 10 avg.touched

(* --- eviction watch (Figure 6) and tracks (Figures 3, 9) ---------------- *)

let test_eviction_watch () =
  let pop =
    pop_of
      [
        (* perfect reversal: post-eviction original-direction fraction ~0 *)
        (B.Phases [| { length = 2_000; p_taken = 1.0 }; { length = 1; p_taken = 0.0 } |], 1.0);
        (B.Stationary 1.0, 1.0);
      ]
  in
  let w = Rs_sim.Eviction_watch.run pop (cfg 30_000) small_params in
  Alcotest.(check int) "one eviction sampled" 1 w.samples;
  Alcotest.(check (float 1e-9)) "reversed fraction" 1.0 w.fraction_reversed;
  Alcotest.(check (float 1e-9)) "below 30%" 1.0 w.fraction_below_30pct

(* Figure 6 samples static branches, not evictions: a branch evicted
   twice (taken, then not taken, then taken again) contributes one
   sample, from its first eviction. *)
let test_eviction_watch_first_only () =
  let pop =
    pop_of
      [
        ( B.Phases
            [|
              { length = 2_000; p_taken = 1.0 };
              { length = 3_000; p_taken = 0.0 };
              { length = 1; p_taken = 1.0 };
            |],
          1.0 );
        (B.Stationary 1.0, 1.0);
      ]
  in
  let evictions = ref 0 in
  let on_transition (tr : Rs_core.Types.transition) =
    if tr.branch = 0 && tr.kind = Rs_core.Types.Evicted then incr evictions
  in
  ignore (Engine.run ~on_transition pop (cfg 30_000) small_params);
  Alcotest.(check int) "branch 0 evicted twice" 2 !evictions;
  let w = Rs_sim.Eviction_watch.run pop (cfg 30_000) small_params in
  Alcotest.(check int) "one sample: the first eviction" 1 w.samples;
  Alcotest.(check (float 1e-9)) "first eviction reversed" 1.0 w.fraction_reversed

let test_exec_blocks () =
  let pop = pop_of [ (B.Flip_at { threshold = 500; first = true }, 1.0) ] in
  let t =
    Rs_sim.Tracks.Exec_blocks.collect pop (cfg 2_000) ~branches:[ 0 ] ~block:100
  in
  let series = Rs_sim.Tracks.Exec_blocks.series t 0 in
  Alcotest.(check int) "20 full blocks" 20 (List.length series);
  List.iter
    (fun (i, bias) ->
      if i < 5 then Alcotest.(check (float 0.0)) "early blocks taken" 1.0 bias
      else if i >= 5 then Alcotest.(check (float 0.0)) "late blocks not taken" 0.0 bias)
    series

let test_intervals () =
  let pop =
    pop_of
      [
        (* globally clocked: biased in the first half, unbiased after *)
        ( B.Global_phases
            [| { until_instr = 25_000; gp_taken = 1.0 };
               { until_instr = 25_001; gp_taken = 0.5 } |],
          1.0 );
        (B.Stationary 1.0, 1.0);
      ]
  in
  let t = Rs_sim.Tracks.Intervals.collect pop (cfg 10_000) ~buckets:10 ~min_execs:50 in
  let f = Rs_sim.Tracks.Intervals.flippers t ~threshold:0.99 in
  (* only branch 0 flips; branch 1 is always biased *)
  Alcotest.(check int) "one flipper" 1 (List.length f);
  let id, spans = List.hd f in
  Alcotest.(check int) "the global-phase branch" 0 id;
  Alcotest.(check bool) "biased span covers first half" true
    (match spans with (0, last) :: _ -> last >= 3 && last <= 6 | _ -> false);
  (* The reverse flip, biased in the second half, runs to the last of the
     10 buckets. *)
  let late =
    pop_of
      [
        ( B.Global_phases
            [| { until_instr = 25_000; gp_taken = 0.5 };
               { until_instr = 25_001; gp_taken = 1.0 } |],
          1.0 );
      ]
  in
  let t = Rs_sim.Tracks.Intervals.collect late (cfg 10_000) ~buckets:10 ~min_execs:50 in
  Alcotest.(check bool) "buckets" true
    (match Rs_sim.Tracks.Intervals.flippers t ~threshold:0.99 with
    | [ (0, spans) ] -> snd (List.nth spans (List.length spans - 1)) = 9
    | _ -> false)

let suite =
  [
    Alcotest.test_case "profile counts" `Quick test_profile_counts;
    Alcotest.test_case "profile windows" `Quick test_profile_windows;
    Alcotest.test_case "profile short-branch window" `Quick test_profile_short_branch_window;
    Alcotest.test_case "profile unknown window" `Quick test_profile_unknown_window;
    Alcotest.test_case "pareto monotone" `Quick test_pareto_monotone;
    Alcotest.test_case "pareto threshold consistency" `Quick test_pareto_threshold_consistency;
    QCheck_alcotest.to_alcotest qcheck_pareto_dominates_thresholds;
    Alcotest.test_case "offline coverage and flip" `Quick test_offline_coverage_and_flip;
    Alcotest.test_case "initial window" `Quick test_initial_window;
    Alcotest.test_case "initial window skips unbiased start" `Quick
      test_initial_window_skips_unbiased_start;
    Alcotest.test_case "engine biased branch" `Quick test_engine_biased_branch;
    Alcotest.test_case "engine unbiased branch" `Quick test_engine_unbiased_branch;
    Alcotest.test_case "engine deterministic" `Quick test_engine_deterministic;
    Alcotest.test_case "engine observer" `Quick test_engine_observer_sees_everything;
    Alcotest.test_case "engine reversal recovery" `Quick test_engine_reversal_recovery;
    Alcotest.test_case "engine open loop pays" `Quick test_engine_open_loop_pays;
    Alcotest.test_case "accounting" `Quick test_accounting;
    Alcotest.test_case "accounting capped = Capped transitions" `Quick test_accounting_capped;
    Alcotest.test_case "accounting average" `Quick test_accounting_average;
    Alcotest.test_case "eviction watch" `Quick test_eviction_watch;
    Alcotest.test_case "eviction watch samples first evictions" `Quick
      test_eviction_watch_first_only;
    Alcotest.test_case "exec blocks" `Quick test_exec_blocks;
    Alcotest.test_case "intervals" `Quick test_intervals;
  ]
