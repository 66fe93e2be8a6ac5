module R = Rs_core.Reactive
module P = Rs_core.Params
module T = Rs_core.Types

(* Small parameters so state transitions happen in a few hundred steps. *)
let tiny =
  {
    P.default with
    monitor_period = 10;
    selection_threshold = 0.9;
    evict_threshold = 100;
    misspec_step = 50;
    correct_step = 1;
    wait_period = 50;
    oscillation_limit = 3;
    optimization_latency = 0;
  }

(* Feed [n] outcomes of constant value [taken], advancing the instruction
   counter by [ipb] each time. *)
let feed ?(ipb = 5) c ~branch ~taken ~start n =
  for i = 0 to n - 1 do
    R.observe c ~branch ~taken ~instr:(start + (i * ipb))
  done;
  start + (n * ipb)

(* A one-branch controller whose transitions are collected through
   [on_transition]; [kinds ()] lists their kinds so far, oldest first. *)
let create_logged params =
  let log = ref [] in
  let on_transition (t : T.transition) = log := t.kind :: !log in
  (R.create ~on_transition ~n_branches:1 params, fun () -> List.rev !log)

let test_selection () =
  let c, kinds = create_logged tiny in
  Alcotest.(check bool) "not deployed initially" false (R.deployed c 0).speculate;
  let _ = feed c ~branch:0 ~taken:true ~start:0 10 in
  Alcotest.(check bool) "selected after monitor" true (R.deployed c 0).speculate;
  Alcotest.(check bool) "direction taken" true (R.deployed c 0).direction;
  Alcotest.(check int) "one selection" 1 (R.selections c 0);
  Alcotest.(check (list bool)) "transition kinds" [ true ]
    (List.map (fun k -> k = T.Selected) (kinds ()))

let test_selection_not_taken_direction () =
  let c = R.create ~n_branches:1 tiny in
  let _ = feed c ~branch:0 ~taken:false ~start:0 10 in
  Alcotest.(check bool) "selected" true (R.deployed c 0).speculate;
  Alcotest.(check bool) "direction not-taken" false (R.deployed c 0).direction

let test_unbiased_classification () =
  let c, kinds = create_logged tiny in
  (* alternate outcomes: bias 50% *)
  for i = 0 to 9 do
    R.observe c ~branch:0 ~taken:(i mod 2 = 0) ~instr:(i * 5)
  done;
  Alcotest.(check bool) "not selected" false (R.deployed c 0).speculate;
  Alcotest.(check bool) "declared unbiased" true (kinds () = [ T.Declared_unbiased ])

let test_eviction () =
  let c, kinds = create_logged tiny in
  let at = feed c ~branch:0 ~taken:true ~start:0 10 in
  (* two misspeculations saturate the threshold-100 counter *)
  let at = feed c ~branch:0 ~taken:false ~start:at 2 in
  Alcotest.(check int) "evicted once" 1 (R.evictions c 0);
  Alcotest.(check bool) "despeculated" false (R.deployed c 0).speculate;
  Alcotest.(check bool) "kinds" true (kinds () = [ T.Selected; T.Evicted ]);
  (* after eviction the branch is monitored again and can be re-selected *)
  let _ = feed c ~branch:0 ~taken:true ~start:at 10 in
  Alcotest.(check int) "re-selected" 2 (R.selections c 0);
  Alcotest.(check bool) "speculating again" true (R.deployed c 0).speculate

let test_eviction_hysteresis () =
  (* A lone misspeculation (counter 50 < 100) decays away: no eviction. *)
  let c = R.create ~n_branches:1 tiny in
  let at = feed c ~branch:0 ~taken:true ~start:0 10 in
  let at = feed c ~branch:0 ~taken:false ~start:at 1 in
  let at = feed c ~branch:0 ~taken:true ~start:at 60 in
  let at = feed c ~branch:0 ~taken:false ~start:at 1 in
  let _ = feed c ~branch:0 ~taken:true ~start:at 60 in
  Alcotest.(check int) "no eviction from isolated misspecs" 0 (R.evictions c 0);
  Alcotest.(check bool) "still speculating" true (R.deployed c 0).speculate

let test_revisit () =
  let c, kinds = create_logged tiny in
  (* unbiased monitor outcome *)
  for i = 0 to 9 do
    R.observe c ~branch:0 ~taken:(i mod 2 = 0) ~instr:(i * 5)
  done;
  (* wait period of 50 executions, then a biased phase gets picked up *)
  let at = feed c ~branch:0 ~taken:true ~start:100 50 in
  Alcotest.(check bool) "revisited" true (List.mem T.Revisited (kinds ()));
  let _ = feed c ~branch:0 ~taken:true ~start:at 10 in
  Alcotest.(check bool) "selected after revisit" true (R.deployed c 0).speculate

let test_no_revisit () =
  let c, kinds = create_logged { tiny with enable_revisit = false } in
  for i = 0 to 9 do
    R.observe c ~branch:0 ~taken:(i mod 2 = 0) ~instr:(i * 5)
  done;
  let _ = feed c ~branch:0 ~taken:true ~start:100 1_000 in
  Alcotest.(check bool) "never selected" false (R.deployed c 0).speculate;
  Alcotest.(check bool) "no revisit transition" false (List.mem T.Revisited (kinds ()))

let test_no_eviction () =
  let c = R.create ~n_branches:1 { tiny with enable_eviction = false } in
  let at = feed c ~branch:0 ~taken:true ~start:0 10 in
  let _ = feed c ~branch:0 ~taken:false ~start:at 1_000 in
  Alcotest.(check int) "never evicted" 0 (R.evictions c 0);
  Alcotest.(check bool) "still speculating (open loop)" true (R.deployed c 0).speculate

let test_oscillation_cap () =
  let c, kinds = create_logged tiny in
  let at = ref 0 in
  (* drive select/evict cycles until the cap (3) engages *)
  for _ = 1 to 5 do
    at := feed c ~branch:0 ~taken:true ~start:!at 10;
    at := feed c ~branch:0 ~taken:false ~start:!at 2
  done;
  Alcotest.(check int) "selections capped" tiny.oscillation_limit (R.selections c 0);
  Alcotest.(check bool) "capped transition" true (List.mem T.Capped (kinds ()));
  Alcotest.(check bool) "capped phase" true (R.capped c 0);
  (* a now-perfectly-biased phase must not re-select a capped branch *)
  let _ = feed c ~branch:0 ~taken:true ~start:!at 500 in
  Alcotest.(check int) "no further selection" tiny.oscillation_limit (R.selections c 0);
  Alcotest.(check bool) "not speculating" false (R.deployed c 0).speculate

let test_optimization_latency () =
  let p = { tiny with optimization_latency = 1_000 } in
  let c = R.create ~n_branches:1 p in
  let at = feed c ~branch:0 ~taken:true ~start:0 10 in
  Alcotest.(check bool) "not deployed during latency" false (R.deployed c 0).speculate;
  (* executions before the activation instruction change nothing *)
  let at = feed c ~branch:0 ~taken:true ~start:at 10 in
  Alcotest.(check bool) "still pending" false (R.deployed c 0).speculate;
  (* jump past the activation point *)
  R.observe c ~branch:0 ~taken:true ~instr:(at + 2_000);
  Alcotest.(check bool) "deployed after latency" true (R.deployed c 0).speculate

let test_eviction_latency_keeps_speculating () =
  let p = { tiny with optimization_latency = 1_000 } in
  let c = R.create ~n_branches:1 p in
  let at = feed c ~branch:0 ~taken:true ~start:0 10 in
  R.observe c ~branch:0 ~taken:true ~instr:(at + 2_000);
  Alcotest.(check bool) "deployed" true (R.deployed c 0).speculate;
  (* saturate the eviction counter *)
  let at = feed c ~branch:0 ~taken:false ~start:(at + 2_100) 2 in
  Alcotest.(check int) "evicted" 1 (R.evictions c 0);
  Alcotest.(check bool) "old code still deployed during repair latency" true
    (R.deployed c 0).speculate;
  R.observe c ~branch:0 ~taken:false ~instr:(at + 5_000);
  Alcotest.(check bool) "repair deployed" false (R.deployed c 0).speculate

let test_sampled_eviction () =
  let p =
    {
      tiny with
      eviction_mode = P.Sampled { window = 40; samples = 20 };
      evict_bias = 0.95;
    }
  in
  let c = R.create ~n_branches:1 p in
  let at = feed c ~branch:0 ~taken:true ~start:0 10 in
  (* within the 20-execution sample, 10 misses drive the sampled bias to
     50% < 95%: evict at the sample close *)
  let at = feed c ~branch:0 ~taken:true ~start:at 10 in
  let _ = feed c ~branch:0 ~taken:false ~start:at 10 in
  Alcotest.(check int) "evicted by sampling" 1 (R.evictions c 0)

let test_sampled_eviction_tolerates_good_bias () =
  let p =
    {
      tiny with
      eviction_mode = P.Sampled { window = 40; samples = 20 };
      evict_bias = 0.95;
    }
  in
  let c = R.create ~n_branches:1 p in
  let at = feed c ~branch:0 ~taken:true ~start:0 10 in
  let _ = feed c ~branch:0 ~taken:true ~start:at 400 in
  Alcotest.(check int) "no eviction" 0 (R.evictions c 0)

let test_monitor_stride () =
  let p = { tiny with monitor_stride = 2 } in
  let c = R.create ~n_branches:1 p in
  (* with stride 2 the monitor needs only 5 sampled = 10 raw executions,
     but observes every other outcome *)
  let _ = feed c ~branch:0 ~taken:true ~start:0 10 in
  Alcotest.(check bool) "selected with sampled monitor" true (R.deployed c 0).speculate

let test_independent_branches () =
  let c = R.create ~n_branches:3 tiny in
  let _ = feed c ~branch:0 ~taken:true ~start:0 10 in
  Alcotest.(check bool) "branch 0 selected" true (R.deployed c 0).speculate;
  Alcotest.(check bool) "branch 1 untouched" false (R.deployed c 1).speculate;
  Alcotest.(check bool) "branch 1 not touched" false (R.touched c 1);
  Alcotest.(check bool) "branch 0 touched" true (R.touched c 0)

let test_on_transition_callback () =
  let seen = ref [] in
  let c = R.create ~on_transition:(fun t -> seen := t.kind :: !seen) ~n_branches:1 tiny in
  let at = feed c ~branch:0 ~taken:true ~start:0 10 in
  let _ = feed c ~branch:0 ~taken:false ~start:at 2 in
  Alcotest.(check bool) "callback saw select+evict" true
    (List.rev !seen = [ T.Selected; T.Evicted ])

let test_create_validation () =
  Alcotest.check_raises "bad params"
    (Invalid_argument "Reactive.create: monitor_period must be positive") (fun () ->
      ignore (R.create ~n_branches:1 { tiny with monitor_period = 0 }));
  Alcotest.check_raises "bad n" (Invalid_argument "Reactive.create: n_branches must be positive")
    (fun () -> ignore (R.create ~n_branches:0 tiny))

(* The paper's exact Table 2 parameters on a synthetic biased branch. *)
let test_paper_params_select_and_evict () =
  let c = R.create ~n_branches:1 P.default in
  let at = ref 0 in
  let obs taken =
    R.observe c ~branch:0 ~taken ~instr:!at;
    at := !at + 6
  in
  (* 10,000 perfectly-biased executions: selected. *)
  for _ = 1 to 10_000 do
    obs true
  done;
  Alcotest.(check int) "selected at Table 2 monitor close" 1 (R.selections c 0);
  (* latency: 1M instructions at 6 instrs/exec ~ 167k executions *)
  for _ = 1 to 170_000 do
    obs true
  done;
  Alcotest.(check bool) "deployed after 1M instructions" true (R.deployed c 0).speculate;
  (* 199 misspecs leave the counter at 9950 - 0: not evicted; one more
     after a correct one saturates 10,000 *)
  for _ = 1 to 199 do
    obs false
  done;
  Alcotest.(check int) "not yet evicted" 0 (R.evictions c 0);
  obs true;
  obs false;
  obs false;
  Alcotest.(check int) "evicted at saturation" 1 (R.evictions c 0)

(* --- property tests: FSM invariants under random outcome streams -------- *)

(* legal transition sequencing for a single branch:
   Selected follows start/Evicted/Revisited/Declared? no - Selected only
   from a monitoring interval; Evicted only while biased; Revisited only
   from unbiased; Capped only from monitoring.  We check the projected
   per-branch sequences with a small automaton. *)
let legal_sequence kinds limit =
  let rec go state kinds selections =
    match (state, kinds) with
    | _, [] -> selections <= limit
    | `Mon, T.Selected :: rest -> go `Biased rest (selections + 1)
    | `Mon, T.Declared_unbiased :: rest -> go `Unbiased rest selections
    | `Mon, T.Capped :: rest -> go `Dead rest selections
    | `Biased, T.Evicted :: rest -> go `Mon rest selections
    | `Unbiased, T.Revisited :: rest -> go `Mon rest selections
    | `Dead, _ | _, _ -> false
  in
  go `Mon kinds 0

let qcheck_fsm_invariants =
  QCheck.Test.make ~name:"reactive FSM invariants on random streams" ~count:80
    QCheck.(triple small_int (float_range 0.0 1.0) (int_range 200 5_000))
    (fun (seed, p, n) ->
      let params =
        {
          P.default with
          monitor_period = 20;
          evict_threshold = 100;
          wait_period = 60;
          oscillation_limit = 3;
          optimization_latency = 40;
        }
      in
      let c, kinds = create_logged params in
      let rng = Rs_util.Prng.create seed in
      for i = 0 to n - 1 do
        R.observe c ~branch:0 ~taken:(Rs_util.Prng.bernoulli rng p) ~instr:(i * 5)
      done;
      let kinds = kinds () in
      let sel = R.selections c 0 and ev = R.evictions c 0 in
      legal_sequence kinds params.oscillation_limit
      && sel >= ev
      && sel <= params.oscillation_limit
      && sel = List.length (List.filter (fun k -> k = T.Selected) kinds)
      && ev = List.length (List.filter (fun k -> k = T.Evicted) kinds)
      && ((not (R.deployed c 0).speculate) || sel > 0))

let qcheck_fsm_biased_branch_always_selected =
  QCheck.Test.make ~name:"a perfectly biased branch is always selected once" ~count:50
    QCheck.small_int
    (fun seed ->
      let params = { P.default with monitor_period = 50; optimization_latency = 0 } in
      let c = R.create ~n_branches:1 params in
      let dir = seed mod 2 = 0 in
      for i = 0 to 199 do
        R.observe c ~branch:0 ~taken:dir ~instr:(i * 5)
      done;
      R.selections c 0 = 1 && (R.deployed c 0).speculate && (R.deployed c 0).direction = dir)

(* [import_words] refuses words the machine can never reach and leaves
   the controller as it was.  Word 0 is the cursor; branch [b]'s words
   start at [1 + 8 b]: control, execs, three phase counters, pending
   activation, selections, evictions. *)
let test_import_rejects_unreachable () =
  let c = R.create ~n_branches:2 { tiny with optimization_latency = 40 } in
  (* branch 0 selected at instr 50, its code pending until 90 *)
  ignore (feed c ~branch:0 ~taken:true ~start:5 12);
  let good = R.export_words c in
  Alcotest.(check bool) "reachable state accepted" true (R.validate_words c good = Ok ());
  let forge sets =
    let w = Array.copy good in
    List.iter (fun (i, v) -> w.(i) <- v) sets;
    w
  in
  List.iter
    (fun (what, words) ->
      (match R.import_words c words with
      | () -> Alcotest.failf "%s: imported" what
      | exception Invalid_argument m ->
        Alcotest.(check bool)
          (what ^ ": names import_words") true
          (String.starts_with ~prefix:"Reactive.import_words: " m));
      Alcotest.(check bool) (what ^ ": controller unchanged") true (R.export_words c = good))
    [
      ("wrong length", Array.sub good 0 9);
      ("biased and speculating but never selected", forge [ (9, 1 lor (1 lsl 3)); (10, 30) ]);
      ("unknown control bit", forge [ (1, good.(1) lor 128) ]);
      ("selections past the oscillation limit", forge [ (7, 4) ]);
      ("evictions past selections", forge [ (8, 2) ]);
      ("monitor count past the period", forge [ (10, 3); (11, 10) ]);
      ("activation further than the latency", forge [ (6, good.(0) + 41) ]);
      ("pending code the phase never requests", forge [ (1, good.(1) land lnot (3 lsl 5)) ]);
    ]

(* Sampled eviction keeps, next to the window position (B), a countdown
   to the position's next boundary in A: the end of the sample, then the
   end of the window.  A snapshot whose A disagrees with its position
   could never have been written, so it is refused. *)
let test_import_rejects_sampled_countdown () =
  let p = { tiny with eviction_mode = P.Sampled { window = 40; samples = 20 } } in
  let c = R.create ~n_branches:1 p in
  (* selected by the 10th execution, then 5 into the sample *)
  ignore (feed c ~branch:0 ~taken:true ~start:5 15);
  let good = R.export_words c in
  Alcotest.(check (pair int int)) "window position 5, 15 to the sample's end" (5, 15)
    (good.(4), good.(3));
  Alcotest.(check bool) "reachable state accepted" true (R.validate_words c good = Ok ());
  List.iter
    (fun a ->
      let words = Array.copy good in
      words.(3) <- a;
      (match R.import_words c words with
      | () -> Alcotest.failf "countdown %d: imported" a
      | exception Invalid_argument m ->
        Alcotest.(check string)
          (Printf.sprintf "countdown %d: refused" a)
          "Reactive.import_words: branch 0: sampled-eviction countdown disagrees with the \
           window position"
          m);
      Alcotest.(check bool) "controller unchanged" true (R.export_words c = good))
    [ 0; 14; 16; 35 ]

let suite =
  [
    Alcotest.test_case "selection" `Quick test_selection;
    Alcotest.test_case "selection direction not-taken" `Quick test_selection_not_taken_direction;
    Alcotest.test_case "unbiased classification" `Quick test_unbiased_classification;
    Alcotest.test_case "eviction" `Quick test_eviction;
    Alcotest.test_case "eviction hysteresis" `Quick test_eviction_hysteresis;
    Alcotest.test_case "revisit" `Quick test_revisit;
    Alcotest.test_case "no revisit" `Quick test_no_revisit;
    Alcotest.test_case "no eviction" `Quick test_no_eviction;
    Alcotest.test_case "oscillation cap" `Quick test_oscillation_cap;
    Alcotest.test_case "optimization latency" `Quick test_optimization_latency;
    Alcotest.test_case "eviction latency keeps speculating" `Quick
      test_eviction_latency_keeps_speculating;
    Alcotest.test_case "sampled eviction" `Quick test_sampled_eviction;
    Alcotest.test_case "sampled eviction tolerates good bias" `Quick
      test_sampled_eviction_tolerates_good_bias;
    Alcotest.test_case "monitor stride" `Quick test_monitor_stride;
    Alcotest.test_case "independent branches" `Quick test_independent_branches;
    Alcotest.test_case "on_transition callback" `Quick test_on_transition_callback;
    Alcotest.test_case "create validation" `Quick test_create_validation;
    Alcotest.test_case "import rejects unreachable states" `Quick test_import_rejects_unreachable;
    Alcotest.test_case "import rejects a sampled countdown off its window position" `Quick
      test_import_rejects_sampled_countdown;
    Alcotest.test_case "paper parameters" `Quick test_paper_params_select_and_evict;
    QCheck_alcotest.to_alcotest qcheck_fsm_invariants;
    QCheck_alcotest.to_alcotest qcheck_fsm_biased_branch_always_selected;
  ]
