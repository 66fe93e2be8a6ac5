(* Equivalence tests for the batched/packed hot path, against one
   oracle: [Rs_sim.Reference], the record-per-branch Figure 4(b) FSM.

   The packed-integer [Rs_core.Reactive] — its split [deployed] /
   [observe] calls and its batch kernel [step_chunk] — must agree with
   it decision for decision, transition for transition: on random
   parameter corners (tiny monitor periods, oscillation limits of 1,
   zero and non-zero optimization latency, sampled and continuous
   eviction), on either side of each kernel fast-path exit, on the
   adversarial workloads, through both of the engine's consumption
   paths, and exhaustively over every reachable state of small
   controllers. *)

module B = Rs_behavior.Behavior
module Pop = Rs_behavior.Population
module Stream = Rs_behavior.Stream
module TS = Rs_behavior.Trace_store
module Prng = Rs_util.Prng
module Params = Rs_core.Params
module Types = Rs_core.Types
module Reactive = Rs_core.Reactive
module Reference = Rs_sim.Reference

(* ---------------------------------------------------------------------- *)
(* Packed controller == reference, on adversarial parameter corners       *)
(* ---------------------------------------------------------------------- *)

(* Aggressive little parameter sets: tiny monitor periods and wait
   periods so a few thousand events cycle every arc, oscillation limits
   down to 1 (retirement), latencies of zero (immediate deployment) and
   a few hundred instructions (pending windows that straddle many
   events). *)
let gen_params rng =
  let sampled =
    let window = 8 + Prng.int rng 60 in
    Params.Sampled { window; samples = 1 + Prng.int rng window }
  in
  {
    Params.monitor_period = 2 + Prng.int rng 30;
    selection_threshold = 0.55 +. Prng.float rng 0.44;
    evict_threshold = 5 + Prng.int rng 60;
    misspec_step = 1 + Prng.int rng 10;
    correct_step = 1 + Prng.int rng 3;
    evict_bias = 0.55 +. Prng.float rng 0.44;
    wait_period = 5 + Prng.int rng 60;
    oscillation_limit = 1 + Prng.int rng 4;
    optimization_latency = (match Prng.int rng 3 with 0 -> 0 | 1 -> 40 | _ -> 400);
    eviction_mode = (if Prng.bool rng then Params.Continuous else sampled);
    monitor_stride = 1 + Prng.int rng 3;
    enable_eviction = Prng.int rng 6 <> 0;
    enable_revisit = Prng.int rng 6 <> 0;
  }

type fsm_case = { seed : int; params : Params.t; n : int; length : int }

let gen_fsm_case rng =
  { seed = Prng.int rng 1_000_000; params = gen_params rng; n = 1 + Prng.int rng 6; length = 4_000 }

let print_fsm_case c =
  Format.asprintf "seed=%d n=%d len=%d params=@[%a@]" c.seed c.n c.length Params.pp c.params

(* A transition log, newest first, and the [on_transition] hook that
   fills it. *)
let transition_log () =
  let log = ref [] in
  (log, fun (tr : Types.transition) -> log := tr :: !log)

(* Random events through [deployed] then [observe] on both machines:
   every decision agrees, and so do the transitions and the final
   per-branch states. *)
let fsm_equivalent { seed; params; n; length } =
  (match Params.validate params with
  | Ok () -> ()
  | Error m -> Alcotest.failf "generated invalid params: %s" m);
  let rng = Prng.create seed in
  let packed_log, on_packed = transition_log () in
  let reference_log, on_reference = transition_log () in
  let packed = Reactive.create ~on_transition:on_packed ~n_branches:n params in
  let reference = Reference.create ~on_transition:on_reference ~n_branches:n params in
  let biases = Array.init n (fun _ -> Prng.float rng 1.0) in
  let instr = ref 0 in
  let ok = ref true in
  for _ = 1 to length do
    let b = Prng.int rng n in
    (* strongly phase-dependent outcomes so monitors re-classify *)
    let taken = Prng.float rng 1.0 < biases.(b) in
    if Prng.int rng 50 = 0 then biases.(b) <- Prng.float rng 1.0;
    instr := !instr + Prng.int rng 4;
    if Reactive.deployed packed b <> Reference.deployed reference b then ok := false;
    Reactive.observe packed ~branch:b ~taken ~instr:!instr;
    Reference.observe reference ~branch:b ~taken ~instr:!instr
  done;
  !ok && !packed_log = !reference_log && Reference.agrees reference packed

(* Regression: the documented non-decreasing-instr precondition is now
   checked.  A decreasing instruction count must raise Invalid_argument
   naming the entry point; equal counts stay legal. *)
let test_observe_monotonic_guard () =
  let t = Reactive.create ~n_branches:2 Params.default in
  Reactive.observe t ~branch:0 ~taken:true ~instr:100;
  Reactive.observe t ~branch:1 ~taken:false ~instr:100;
  (* equal is fine *)
  (match Reactive.observe t ~branch:0 ~taken:true ~instr:99 with
  | () -> Alcotest.fail "observe accepted a decreasing instr"
  | exception Invalid_argument m ->
    Alcotest.(check bool) "names Reactive.observe" true
      (String.starts_with ~prefix:"Reactive.observe" m));
  (* the failed call must not have corrupted the high-water mark *)
  Reactive.observe t ~branch:0 ~taken:true ~instr:100

(* ---------------------------------------------------------------------- *)
(* Batched chunk decode == scalar replay                                  *)
(* ---------------------------------------------------------------------- *)

let mk_pop ~n seed =
  let rng = Prng.create (seed + 101) in
  Pop.create
    (Array.init n (fun id ->
         let behavior =
           match Prng.int rng 4 with
           | 0 -> B.Stationary (Prng.float rng 1.0)
           | 1 -> B.Flip_at { threshold = 1 + Prng.int rng 500; first = Prng.int rng 2 = 0 }
           | 2 -> B.Stationary 0.999
           | _ -> B.Stationary 0.5
         in
         { Pop.id; behavior; weight = 0.1 +. Prng.float rng 2.0 }))

(* Decode a trace event by event, as plain integers. *)
let replay tr f =
  let instr = ref 0 in
  TS.iter_packed tr (fun chunk len ->
      for i = 0 to len - 1 do
        let w = chunk.(i) in
        instr := !instr + TS.packed_delta w;
        f ~branch:(TS.packed_branch w) ~taken:(TS.packed_taken w) ~instr:!instr
      done)

(* The kernel against the reference FSM over a whole trace
   ([Reference.check]); the engine result is returned too. *)
let check_trace ?(label = "test") tr pop params =
  Reference.check ~label ~trace:tr pop (TS.config tr) params

(* A decision as a 2-bit code: bit 0 speculate, bit 1 direction. *)
let code_of (d : Types.decision) = Bool.to_int d.speculate lor (Bool.to_int d.direction lsl 1)

(* Per-event [deployed]/[observe] over the same trace, in lockstep with
   the reference FSM: whether every decision, the transitions and the
   final states agree, and the final words, where the kernel's fast path
   must leave every word too. *)
let split_run tr params n =
  let split_log, on_split = transition_log () in
  let reference_log, on_reference = transition_log () in
  let controller = Reactive.create ~on_transition:on_split ~n_branches:n params in
  let reference = Reference.create ~on_transition:on_reference ~n_branches:n params in
  let same = ref true in
  replay tr (fun ~branch ~taken ~instr ->
      same := !same && Reactive.deployed controller branch = Reference.deployed reference branch;
      Reactive.observe controller ~branch ~taken ~instr;
      Reference.observe reference ~branch ~taken ~instr);
  ( !same && !split_log = !reference_log && Reference.agrees reference controller,
    Reactive.export_words controller )

(* The same events as an [of_events] trace, which keeps int words: a
   cell recording's twin on the word path. *)
let words_copy tr = TS.of_events ~n_branches:(TS.n_branches tr) ~config:(TS.config tr) (replay tr)

let cell_case seed n =
  let pop = mk_pop ~n seed in
  let cfg = { Stream.seed; instr_per_branch = 5.0; length = 30_000 + (seed mod 3) } in
  (pop, cfg, gen_params (Prng.create (seed + 7)), TS.record pop cfg)

(* A recording of these streams is a cell recording, so [Reference.check]
   runs the engine's in-place cell kernel ([Reactive.step_cells]); its
   word twin runs [step_chunk] over the same events. *)
let qcheck_batch_equals_scalar =
  QCheck.Test.make ~name:"Reactive.step_chunk == scalar replay through reference FSM" ~count:40
    QCheck.(pair (int_bound 100_000) (int_range 1 10))
    (fun (seed, n) ->
      let pop, _, params, tr = cell_case seed n in
      let words = words_copy tr in
      let agree, r = check_trace tr pop params in
      let agree_words, r_words = check_trace words pop params in
      TS.bytes tr < TS.bytes words
      && agree && agree_words
      && Reactive.export_words r_words.controller = Reactive.export_words r.controller
      && split_run tr params n = (true, Reactive.export_words r.controller))

(* [step_cells] straight over a cell recording's chunks leaves the same
   score — slow events included — and state words as [step_chunk] over
   its word twin, on streams whose tiny parameter sets send events down
   the generic path and misspeculate. *)
let test_cells_kernel_slow_and_misspec () =
  List.iter
    (fun (seed, n) ->
      let pop, cfg, params, tr = cell_case seed n in
      let run step =
        let c = Reactive.create ~n_branches:n params in
        let s = Reactive.score () in
        step c s;
        (s, Reactive.export_words c)
      in
      let ((s : Reactive.score), _) as cells =
        run (fun c s ->
            TS.iter_chunks ~trace:tr
              ~cells:(Reactive.step_cells c s)
              pop cfg
              (fun _ _ -> Alcotest.fail "a cell recording handed over words"))
      in
      let name = Printf.sprintf "seed %d, %d branches" seed n in
      Alcotest.(check bool) (name ^ ": step_cells == step_chunk on words") true
        (cells = run (fun c s -> TS.iter_packed (words_copy tr) (Reactive.step_chunk c s)));
      if s.incorrect = 0 || s.slow <= s.incorrect then
        Alcotest.failf "%s: %d slow events, %d misspeculations" name s.slow s.incorrect)
    [ (1, 3); (2, 6); (3, 10); (4, 4); (5, 8) ]

(* ---------------------------------------------------------------------- *)
(* Kernel exit edges: events on either side of a fast-path boundary       *)
(* ---------------------------------------------------------------------- *)

let events_trace ~n events =
  let config = { Stream.seed = 0; instr_per_branch = 1.0; length = List.length events } in
  TS.of_events ~n_branches:n ~config (fun push ->
      List.iter (fun (branch, taken, instr) -> push ~branch ~taken ~instr) events)

(* Run hand-built [events] through the kernel and the reference FSM;
   return the kernel's score and transitions once both agree. *)
let kernel_edge name params ~n events =
  let tr = events_trace ~n events in
  let agree, r = check_trace ~label:name tr (mk_pop ~n 0) params in
  Alcotest.(check bool) (name ^ ": kernel == reference") true agree;
  Alcotest.(check bool)
    (name ^ ": split calls == reference, same words") true
    (split_run tr params n = (true, Reactive.export_words r.controller));
  let log, on_transition = transition_log () in
  ignore (Rs_sim.Engine.run ~on_transition ~trace:tr (mk_pop ~n 0) (TS.config tr) params);
  let kinds = List.rev_map (fun (tr : Types.transition) -> (tr.kind, tr.instr)) in
  ((r.correct, r.incorrect), kinds !log)

let transition =
  Alcotest.testable
    (fun ppf (k, i) -> Format.fprintf ppf "%s@@%d" (Types.transition_kind_to_string k) i)
    ( = )

let edge_params =
  {
    Params.default with
    monitor_period = 1;
    selection_threshold = 0.6;
    evict_threshold = 10;
    misspec_step = 5;
    correct_step = 1;
    optimization_latency = 100;
  }

(* Deterministic corner: oscillation retirement.  One branch, monitor
   period 1, eviction after a single misspeculation, limit 1 — the
   second selection attempt must cap the branch, and the retired branch
   never speculates again. *)
let test_oscillation_retirement () =
  let params =
    {
      edge_params with
      evict_threshold = 1;
      misspec_step = 1;
      wait_period = 3;
      oscillation_limit = 1;
      optimization_latency = 0;
    }
  in
  let score, trs =
    kernel_edge "retirement" params ~n:1
      (List.mapi (fun i taken -> (0, taken, 10 * (i + 1))) [ true; false; true; true; true ])
  in
  Alcotest.(check (list transition))
    "capped after one eviction" [ (Types.Selected, 10); (Evicted, 20); (Capped, 30) ] trs;
  Alcotest.(check (pair int int)) "one misspeculation, then nothing speculated" (0, 1) score

(* Deterministic corner: pending-deployment latency.  With latency L, a
   selection at instruction I deploys at the first observation with
   instr >= I + L — and the observation that activates it is still
   scored against the old decision.  Selected(taken) at 20, pending
   until 120: 119 does not activate it, 120 activates it under the old
   code, and only the event at 130 runs the new code. *)
let test_pending_deployment_latency () =
  let params =
    { edge_params with monitor_period = 2; enable_eviction = false; enable_revisit = false }
  in
  let events = [ (0, true, 10); (0, true, 20); (0, true, 60); (0, true, 119) ] in
  let score, trs = kernel_edge "before pend_at" params ~n:1 events in
  Alcotest.(check (list transition)) "selected" [ (Types.Selected, 20) ] trs;
  Alcotest.(check (pair int int)) "nothing deployed before pend_at" (0, 0) score;
  let score, _ = kernel_edge "pend_at" params ~n:1 (events @ [ (0, true, 120); (0, true, 130) ]) in
  Alcotest.(check (pair int int)) "only the event after activation is correct" (1, 0) score

(* The table path raises the eviction counter only while the deployed
   direction disagrees with the biased one: a branch evicted and
   reselected the other way inside the latency window.  Two such
   events land the counter exactly on the threshold (evict), or one
   short of it (stay). *)
let test_edge_evict_threshold () =
  let events =
    [
      (0, true, 1); (0, true, 101); (0, false, 102); (0, false, 103); (0, false, 104);
      (0, true, 105); (0, true, 106);
    ]
  in
  let _, trs = kernel_edge "exact" edge_params ~n:1 events in
  Alcotest.(check (list transition))
    "evicted on landing" [ (Types.Selected, 1); (Evicted, 103); (Selected, 104); (Evicted, 106) ]
    trs;
  (* 106 is a misspeculation against the deployed direction (generic,
     counter 4), then 107 climbs to 9 through the table: one short *)
  let short = List.filteri (fun i _ -> i < 6) events @ [ (0, false, 106); (0, true, 107) ] in
  let _, trs = kernel_edge "one short" edge_params ~n:1 short in
  Alcotest.(check (list transition))
    "one short stays biased" [ (Types.Selected, 1); (Evicted, 103); (Selected, 104) ] trs

(* Selected at 20 with latency 100: the event at exactly 120 activates
   the deployment (scored against the old code), 119 does not. *)
let test_edge_pending_at () =
  let params = { edge_params with monitor_period = 2; enable_eviction = false } in
  let (correct, _), _ =
    kernel_edge "pend_at" params ~n:1
      [ (0, true, 10); (0, true, 20); (0, true, 119); (0, true, 120); (0, true, 130) ]
  in
  Alcotest.(check int) "only the event after activation is correct" 1 correct;
  let (correct, _), _ =
    kernel_edge "before pend_at" params ~n:1 [ (0, true, 10); (0, true, 20); (0, true, 119) ]
  in
  Alcotest.(check int) "nothing deployed before pend_at" 0 correct

(* Declared unbiased with wait period 3: two fast decrements, then the
   event at wait = 1 revisits. *)
let test_edge_revisit () =
  let params =
    { edge_params with monitor_period = 2; selection_threshold = 0.9; wait_period = 3 }
  in
  let _, trs =
    kernel_edge "revisit" params ~n:1
      [ (0, true, 1); (0, false, 2); (0, true, 3); (0, true, 4); (0, true, 5); (0, true, 6) ]
  in
  Alcotest.(check (list transition))
    "revisit on the third event" [ (Types.Declared_unbiased, 2); (Revisited, 5) ] trs

(* Monitor period 4: three fast samples, the fourth classifies. *)
let test_edge_last_monitor_sample () =
  let params = { edge_params with monitor_period = 4 } in
  let _, trs =
    kernel_edge "classify" params ~n:2
      [ (0, true, 1); (1, false, 2); (0, true, 3); (0, true, 4); (0, true, 5); (1, false, 6) ]
  in
  Alcotest.(check (list transition)) "classified on the fourth sample" [ (Types.Selected, 5) ] trs

(* Latency 0: a selection deploys at once, the following events are
   correct through the fast path, and a misspeculation that saturates
   the counter withdraws the speculation immediately. *)
let test_edge_latency_zero () =
  let params =
    { edge_params with monitor_period = 2; optimization_latency = 0; evict_threshold = 5 }
  in
  let (correct, incorrect), trs =
    kernel_edge "latency 0" params ~n:1
      [ (0, true, 1); (0, true, 2); (0, true, 3); (0, true, 4); (0, false, 5); (0, false, 6) ]
  in
  Alcotest.(check (list int)) "correct, incorrect" [ 2; 1 ] [ correct; incorrect ];
  Alcotest.(check (list transition)) "select then evict" [ (Types.Selected, 2); (Evicted, 5) ] trs

(* Decode at the field limits: the largest delta, the last branch id,
   both outcomes. *)
let test_edge_decode_limits () =
  let n = 3 and d = (1 lsl 20) - 1 in
  let events =
    [
      (n - 1, true, d); (n - 1, false, 2 * d); (0, true, 2 * d); (n - 1, true, 3 * d);
      (n - 1, true, 4 * d); (n - 1, false, 4 * d);
    ]
  in
  let params = { edge_params with monitor_period = 2; optimization_latency = 0 } in
  ignore (kernel_edge "limits" params ~n events);
  let tr = events_trace ~n events in
  let controller = Reactive.create ~n_branches:n params in
  let s = Reactive.score () in
  TS.iter_packed tr (Reactive.step_chunk controller s);
  Alcotest.(check int) "instr after the largest deltas" (4 * d) s.instr

let raises_msg name expected f =
  match f () with
  | () -> Alcotest.failf "%s: no exception" name
  | exception Invalid_argument m -> Alcotest.(check string) name expected m

let test_kernel_guards () =
  let c = Reactive.create ~n_branches:2 Params.default in
  let s = Reactive.score () in
  let word ~branch ~delta ~taken = (branch lsl 21) lor (delta lsl 1) lor Bool.to_int taken in
  let chunk = [| word ~branch:1 ~delta:7 ~taken:true; word ~branch:2 ~delta:3 ~taken:false |] in
  raises_msg "branch >= n" "Reactive.step_chunk: branch out of range" (fun () ->
      Reactive.step_chunk c s chunk 2);
  Alcotest.(check int) "events before the bad one applied" 7 s.instr;
  Alcotest.(check bool) "and counted" true (Reactive.touched c 1);
  let c = Reactive.create ~n_branches:2 Params.default in
  Reactive.observe c ~branch:0 ~taken:true ~instr:1000;
  raises_msg "chunk below last_instr"
    "Reactive.step_chunk: instruction counts must be non-decreasing across calls" (fun () ->
      Reactive.step_chunk c (Reactive.score ()) [| word ~branch:0 ~delta:5000 ~taken:true |] 1);
  raises_msg "len past the chunk" "Reactive.step_chunk: bad chunk length" (fun () ->
      Reactive.step_chunk c (Reactive.score ()) [||] 1)

(* The cell kernel raises [step_chunk]'s messages on the same faults. *)
let test_cells_kernel_guards () =
  let cells l =
    let b = Bytes.create (2 * List.length l) in
    List.iteri
      (fun i (branch, delta, taken) ->
        Bytes.set_uint16_ne b (2 * i) ((branch lsl 4) lor (delta lsl 1) lor Bool.to_int taken))
      l;
    b
  in
  let c = Reactive.create ~n_branches:2 Params.default in
  let s = Reactive.score () in
  raises_msg "branch >= n" "Reactive.step_chunk: branch out of range" (fun () ->
      Reactive.step_cells c s (cells [ (1, 7, true); (2, 3, false) ]) 2);
  Alcotest.(check int) "events before the bad one applied" 7 s.instr;
  Alcotest.(check bool) "and counted" true (Reactive.touched c 1);
  let c = Reactive.create ~n_branches:2 Params.default in
  Reactive.observe c ~branch:0 ~taken:true ~instr:1000;
  raises_msg "chunk below last_instr"
    "Reactive.step_chunk: instruction counts must be non-decreasing across calls" (fun () ->
      Reactive.step_cells c (Reactive.score ()) (cells [ (0, 5, true) ]) 1);
  raises_msg "len past the cells" "Reactive.step_chunk: bad chunk length" (fun () ->
      Reactive.step_cells c (Reactive.score ()) (Bytes.create 3) 2)

(* ---------------------------------------------------------------------- *)
(* Adversarial corners: the workload family built to hammer the FSM's    *)
(* own thresholds must not split the batched and scalar paths            *)
(* ---------------------------------------------------------------------- *)

module Adv = Rs_workload.Adversary
module MT = Rs_workload.Mistrain
module IL = Rs_workload.Interleave

let qcheck_adversary_batch_equals_scalar =
  QCheck.Test.make
    ~name:"batched == scalar on threshold-flip adversarial populations" ~count:20
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let params = gen_params (Prng.create (seed + 17)) in
      let sc = List.nth Adv.all (seed mod List.length Adv.all) in
      let pop, cfg = Adv.build sc ~params ~seed ~scale:1.0 in
      fst (check_trace (TS.record pop cfg) pop params))

let qcheck_mistrain_batch_equals_scalar =
  QCheck.Test.make ~name:"batched == scalar on mistraining burst schedules" ~count:15
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let params = gen_params (Prng.create (seed + 23)) in
      let schedule = if seed mod 2 = 0 then MT.Train_then_trigger else MT.Burst_poison in
      let strength = 0.3 +. (0.65 *. float_of_int (seed mod 7) /. 6.0) in
      let b = MT.build schedule ~strength ~params ~seed ~scale:0.3 in
      fst (check_trace (TS.record b.population b.config) b.population params))

(* The merged traces are fabricated (Trace_store.of_events, not a
   Stream recording): the chunk decode must agree with boxed replay on
   them too. *)
let qcheck_interleave_batch_equals_scalar =
  QCheck.Test.make
    ~name:"batched chunk decode == scalar replay on interleaved multi-context traces"
    ~count:6
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let params = gen_params (Prng.create (seed + 31)) in
      let schedule = if seed mod 2 = 0 then IL.Round_robin else IL.Bursty in
      let m = IL.build schedule ~seed ~scale:0.25 in
      let check (pop, _, tr) = fst (check_trace tr pop params) in
      check m.shared && check m.split)

(* Engine.run: both paths — hookless batched and the observer loop —
   over both sources — a recorded trace and live generation — produce
   identical results and hook sequences.  The observer sees each event
   after it is scored and before the controller observes it: the code it
   is handed is the reference FSM's decision for that event, and every
   transition the event causes fires after the observer call. *)
let test_engine_paths_agree () =
  let n = 9 in
  let pop = mk_pop ~n 7 in
  let cfg = { Stream.seed = 21; instr_per_branch = 5.0; length = 30_000 } in
  let params = Params.compress ~factor:200 { Params.default with monitor_period = 50 } in
  let tr = TS.record pop cfg in
  let summary (r : Rs_sim.Engine.result) transitions =
    (r.total_events, r.total_instructions, r.correct, r.incorrect, r.last_misspec, transitions)
  in
  let batched ?trace () =
    let log, on_transition = transition_log () in
    let r = Rs_sim.Engine.run ~on_transition ?trace pop cfg params in
    summary r !log
  in
  (* the expected sequence, from the reference FSM: each event's
     decision, then the transitions its observation causes *)
  let expected = ref [] in
  let reference =
    Reference.create ~n_branches:n params ~on_transition:(fun t ->
        expected := `Transition t.kind :: !expected)
  in
  replay tr (fun ~branch ~taken ~instr ->
      let d = Reference.deployed reference branch in
      expected := `Event (branch, taken, instr, code_of d) :: !expected;
      Reference.observe reference ~branch ~taken ~instr);
  let observed ?trace () =
    let seq = ref [] in
    let log, log_transition = transition_log () in
    let r =
      Rs_sim.Engine.run
        ~observer:(fun ~branch ~taken ~instr ~code ->
          seq := `Event (branch, taken, instr, code) :: !seq)
        ~on_transition:(fun t ->
          seq := `Transition t.kind :: !seq;
          log_transition t)
        ?trace pop cfg params
    in
    (summary r !log, !seq)
  in
  let r_observed, seq_recorded = observed ~trace:tr () in
  let r_observed_live, seq_live = observed () in
  let r_batched = batched ~trace:tr () in
  let r_live = batched () in
  Alcotest.(check bool) "batched == observer result" true (r_batched = r_observed);
  Alcotest.(check bool) "live batched == observer result" true (r_live = r_observed);
  Alcotest.(check bool) "live observer == observer result" true (r_observed_live = r_observed);
  Alcotest.(check bool) "live observer sees the recorded sequence" true (seq_live = seq_recorded);
  Alcotest.(check bool) "hook order: decision, then observe" true (seq_recorded = !expected);
  Alcotest.(check bool) "observer sequence nonempty" true (seq_recorded <> [])

(* ---------------------------------------------------------------------- *)
(* Exhaustive check over every reachable state of small controllers      *)
(* ---------------------------------------------------------------------- *)

(* One branch, breadth first from the initial state.  A state is its
   export words (cursor, then the branch's 8 words) with [execs] (word
   1) reduced to touched and the pending activation (word 5) made
   relative to the cursor; equal keys behave alike on every future
   event.  Each outcome is applied with an advance just before, at and
   just past the pending activation (0, 1, 2 when none is pending).
   [replay_three] replays a path from the start through the kernel
   (one-event [step_chunk] chunks), the split [deployed]/[observe] calls
   and the reference FSM: the same decision at every event, then the
   same transitions, score and state, and the same words for the two
   packed paths.  It returns the split controller too. *)
let replay_three params events =
  let kernel_log, on_kernel = transition_log () in
  let split_log, on_split = transition_log () in
  let reference_log, on_reference = transition_log () in
  let kernel = Reactive.create ~on_transition:on_kernel ~n_branches:1 params in
  let split = Reactive.create ~on_transition:on_split ~n_branches:1 params in
  let reference = Reference.create ~on_transition:on_reference ~n_branches:1 params in
  let ks = Reactive.score () and rs = Reactive.score () in
  let step (taken, advance) =
    let instr = ks.instr + advance and code = Reactive.deployed_code kernel 0 in
    let same =
      code = Reactive.deployed_code split 0 && code = code_of (Reference.deployed reference 0)
    in
    Reactive.step_chunk kernel ks [| (advance lsl 1) lor Bool.to_int taken |] 1;
    Reactive.observe split ~branch:0 ~taken ~instr;
    Reactive.score_event rs ~taken ~instr code;
    Reference.observe reference ~branch:0 ~taken ~instr;
    same
  in
  let agree =
    List.for_all step events
    && Reactive.export_words kernel = Reactive.export_words split
    && !kernel_log = !split_log
    && !kernel_log = !reference_log
    && Reference.agrees reference kernel
    && (ks.correct, ks.incorrect) = (rs.correct, rs.incorrect)
    && ks.last_misspec = rs.last_misspec
  in
  (agree, split)

let state_key words =
  let cursor = words.(0) in
  Array.init 8 (fun i ->
      let v = words.(i + 1) in
      match i with 1 -> Bool.to_int (v > 0) | 5 -> if v < 0 then -1 else v - cursor | _ -> v)

(* The number of reachable states; each is checked under six events. *)
let explore name params =
  let seen = Hashtbl.create 1024 and queue = Queue.create () in
  let visit path words =
    let key = state_key words in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      Queue.add (key.(5), path) queue
    end
  in
  visit [] (Reactive.export_words (Reactive.create ~n_branches:1 params));
  while not (Queue.is_empty queue) do
    let pending, path = Queue.pop queue in
    let advances = if pending > 0 then [ pending - 1; pending; pending + 1 ] else [ 0; 1; 2 ] in
    List.iter
      (fun event ->
        let path = path @ [ event ] in
        let agree, split = replay_three params path in
        let words = Reactive.export_words split in
        let trail () =
          let show (t, a) = Printf.sprintf "%c+%d" (if t then 'T' else 'N') a in
          String.concat " " (List.map show path)
        in
        if not agree then Alcotest.failf "%s: machines disagree after %s" name (trail ());
        (match Reactive.validate_words split words with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "%s: rejected after %s: %s" name (trail ()) msg);
        visit path words)
      (List.concat_map (fun taken -> List.map (fun a -> (taken, a)) advances) [ true; false ])
  done;
  Hashtbl.length seen

let test_exhaustive_reachable_states () =
  let small =
    {
      Params.default with
      monitor_period = 3;
      selection_threshold = 0.7;
      evict_threshold = 4;
      misspec_step = 2;
      correct_step = 1;
      evict_bias = 0.6;
      wait_period = 2;
      oscillation_limit = 2;
      optimization_latency = 0;
    }
  in
  let sampled window samples = Params.Sampled { window; samples } in
  List.iter
    (fun (name, params) ->
      let states = explore name params in
      Printf.printf "%-40s %4d reachable states, %5d (state, event) pairs\n%!" name states
        (6 * states);
      Alcotest.(check bool) (name ^ ": leaves the initial state") true (states > 1))
    [
      ("continuous, latency 0", small);
      ("continuous, latency 3", { small with optimization_latency = 3 });
      ("sampled 2 of 4, latency 0", { small with eviction_mode = sampled 4 2 });
      ( "sampled 3 of 3, latency 2",
        { small with eviction_mode = sampled 3 3; optimization_latency = 2 } );
      ( "no eviction, no revisit, latency 2",
        { small with enable_eviction = false; enable_revisit = false; optimization_latency = 2 } );
      ( "monitor stride 2, latency 1",
        { small with monitor_period = 4; monitor_stride = 2; optimization_latency = 1 } );
    ]

(* ---------------------------------------------------------------------- *)
(* Fast-path coverage                                                     *)
(* ---------------------------------------------------------------------- *)

(* Every Figure 5 / Table 4 configuration replays almost every event
   through the kernel's call-free loop: on each benchmark's Ref stream,
   the events sent to the generic machine, misspeculations aside, stay
   within 5% of the stream.  Misspeculations are left out because they
   always take the generic path and some configurations (no eviction)
   make many of them. *)
let test_fast_path_coverage () =
  let worst = ref (0.0, "") in
  List.iter
    (fun (bm : Rs_workload.Benchmark.t) ->
      let pop, cfg = Rs_workload.Benchmark.build bm ~input:Ref ~seed:7 ~scale:0.02 ~tau:10 in
      let tr = TS.record pop cfg in
      List.iter
        (fun (v : Rs_core.Variants.t) ->
          let params = Params.compress ~factor:10 v.params in
          let c = Reactive.create ~n_branches:(Pop.size pop) params in
          let s = Reactive.score () in
          TS.iter_chunks ~trace:tr pop cfg (Reactive.step_chunk c s);
          let share = float_of_int (s.slow - s.incorrect) /. float_of_int cfg.length in
          let name = Printf.sprintf "%s on %s" v.key bm.name in
          if share > fst !worst then worst := (share, name);
          if share > 0.05 then
            Alcotest.failf "%s: %.2f%% of events left the fast path (%d slow, %d misspeculated)"
              name (100.0 *. share) s.slow s.incorrect)
        Rs_core.Variants.all)
    Rs_workload.Benchmark.all;
  Printf.printf "worst fast-path exit share: %.2f%% (%s)\n%!" (100.0 *. fst !worst) (snd !worst)

let suite =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"packed Reactive == reference record FSM" ~count:120
         (QCheck.make (fun st ->
              gen_fsm_case (Prng.create (QCheck.Gen.int_bound 0x3FFFFFFF st)))
            ~print:print_fsm_case)
         fsm_equivalent);
    Alcotest.test_case "oscillation retirement (packed == reference)" `Quick
      test_oscillation_retirement;
    Alcotest.test_case "pending-deployment latency edge" `Quick test_pending_deployment_latency;
    Alcotest.test_case "observe validates non-decreasing instr" `Quick
      test_observe_monotonic_guard;
    QCheck_alcotest.to_alcotest qcheck_batch_equals_scalar;
    Alcotest.test_case "kernel edge: eviction counter on the threshold" `Quick
      test_edge_evict_threshold;
    Alcotest.test_case "kernel edge: event at instr = pend_at" `Quick test_edge_pending_at;
    Alcotest.test_case "kernel edge: revisit at wait = 1" `Quick test_edge_revisit;
    Alcotest.test_case "kernel edge: classify on the last monitor sample" `Quick
      test_edge_last_monitor_sample;
    Alcotest.test_case "kernel edge: optimization latency 0" `Quick test_edge_latency_zero;
    Alcotest.test_case "kernel edge: decode at the field limits" `Quick test_edge_decode_limits;
    Alcotest.test_case "kernel guards: branch range, monotonic instr, length" `Quick
      test_kernel_guards;
    QCheck_alcotest.to_alcotest qcheck_adversary_batch_equals_scalar;
    QCheck_alcotest.to_alcotest qcheck_mistrain_batch_equals_scalar;
    QCheck_alcotest.to_alcotest qcheck_interleave_batch_equals_scalar;
    Alcotest.test_case "engine paths agree (batched/raw/both sources)" `Quick
      test_engine_paths_agree;
    Alcotest.test_case "exhaustive reachable states: kernel == split calls == reference" `Quick
      test_exhaustive_reachable_states;
    Alcotest.test_case "fast path covers every Figure 5 configuration" `Quick
      test_fast_path_coverage;
    Alcotest.test_case "cell kernel guards: step_chunk's messages" `Quick
      test_cells_kernel_guards;
    Alcotest.test_case "cell kernel == word kernel through slow events and misspeculations"
      `Quick test_cells_kernel_slow_and_misspec;
  ]
