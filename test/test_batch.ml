(* Equivalence tests for the batched/packed hot path.

   Two independent oracles:

   - [Reference]: the original record-per-branch implementation of the
     Figure 4(b) controller, kept here verbatim as an executable spec.
     The packed-integer [Rs_core.Reactive] must agree with it decision
     for decision, transition for transition, on adversarial parameter
     corners (tiny monitor periods, oscillation limits of 1, zero and
     non-zero optimization latency, sampled and continuous eviction).

   - The engine's two consumption paths: the chunked batch decode and
     the scalar observer loop must produce the same results and hook
     sequences, from a recorded trace and from live generation alike.

   The batch kernel [Reactive.step_chunk] is held to the reference FSM
   over random parameter shapes and, event by event, on either side of
   each of its fast-path exits. *)

module B = Rs_behavior.Behavior
module Pop = Rs_behavior.Population
module Stream = Rs_behavior.Stream
module TS = Rs_behavior.Trace_store
module Prng = Rs_util.Prng
module Params = Rs_core.Params
module Types = Rs_core.Types
module Reactive = Rs_core.Reactive

(* ---------------------------------------------------------------------- *)
(* Reference controller: the record-based FSM, as an executable spec      *)
(* ---------------------------------------------------------------------- *)

module Reference = struct
  type phase = Monitoring | Biased | Unbiased | Disabled

  type bstate = {
    mutable phase : phase;
    mutable execs : int;
    mutable mon_seen : int;
    mutable mon_taken : int;
    mutable stride_pos : int;
    mutable direction : bool;
    mutable counter : int;
    mutable smp_pos : int;
    mutable smp_misses : int;
    mutable wait_left : int;
    mutable dep_spec : bool;
    mutable dep_dir : bool;
    mutable pend_at : int;
    mutable pend_spec : bool;
    mutable pend_dir : bool;
    mutable selections : int;
    mutable evictions : int;
  }

  type t = {
    params : Params.t;
    monitor_samples : int;
    states : bstate array;
    mutable transitions_rev : Types.transition list;
  }

  let fresh_state () =
    {
      phase = Monitoring;
      execs = 0;
      mon_seen = 0;
      mon_taken = 0;
      stride_pos = 0;
      direction = false;
      counter = 0;
      smp_pos = 0;
      smp_misses = 0;
      wait_left = 0;
      dep_spec = false;
      dep_dir = false;
      pend_at = -1;
      pend_spec = false;
      pend_dir = false;
      selections = 0;
      evictions = 0;
    }

  let create ~n_branches params =
    {
      params;
      monitor_samples = Params.monitor_samples params;
      states = Array.init n_branches (fun _ -> fresh_state ());
      transitions_rev = [];
    }

  let deployed t b =
    let st = t.states.(b) in
    { Types.speculate = st.dep_spec; direction = st.dep_dir }

  let transitions t = List.rev t.transitions_rev
  let selections t b = t.states.(b).selections
  let evictions t b = t.states.(b).evictions
  let touched t b = t.states.(b).execs > 0

  let record t branch st instr kind =
    t.transitions_rev <- { Types.branch; instr; exec_index = st.execs; kind } :: t.transitions_rev

  let request t st ~instr ~speculate ~direction =
    if t.params.Params.optimization_latency = 0 then begin
      st.dep_spec <- speculate;
      st.dep_dir <- direction;
      st.pend_at <- -1
    end
    else begin
      st.pend_at <- instr + t.params.optimization_latency;
      st.pend_spec <- speculate;
      st.pend_dir <- direction
    end

  let enter_monitor st =
    st.phase <- Monitoring;
    st.mon_seen <- 0;
    st.mon_taken <- 0;
    st.stride_pos <- 0

  let enter_unbiased t st =
    st.phase <- Unbiased;
    st.wait_left <- t.params.wait_period

  let enter_biased t st ~direction ~instr =
    st.phase <- Biased;
    st.direction <- direction;
    st.counter <- 0;
    st.smp_pos <- 0;
    st.smp_misses <- 0;
    st.selections <- st.selections + 1;
    request t st ~instr ~speculate:true ~direction

  let evict t branch st ~instr =
    st.evictions <- st.evictions + 1;
    record t branch st instr Types.Evicted;
    enter_monitor st;
    request t st ~instr ~speculate:false ~direction:false

  let classify t branch st ~instr =
    let taken = st.mon_taken and seen = st.mon_seen in
    let majority = max taken (seen - taken) in
    let bias = float_of_int majority /. float_of_int seen in
    if bias >= t.params.selection_threshold then begin
      if st.selections >= t.params.oscillation_limit then begin
        st.phase <- Disabled;
        record t branch st instr Types.Capped;
        if st.dep_spec || st.pend_at >= 0 then
          request t st ~instr ~speculate:false ~direction:false
      end
      else begin
        let direction = taken * 2 >= seen in
        enter_biased t st ~direction ~instr;
        record t branch st instr Types.Selected
      end
    end
    else begin
      enter_unbiased t st;
      record t branch st instr Types.Declared_unbiased
    end

  let observe_biased t branch st ~taken ~instr =
    if not st.dep_spec then ()
    else begin
      match t.params.eviction_mode with
      | Params.Continuous ->
        if t.params.enable_eviction then begin
          let c =
            if taken <> st.direction then st.counter + t.params.misspec_step
            else st.counter - t.params.correct_step
          in
          st.counter <- (if c < 0 then 0 else c);
          if st.counter >= t.params.evict_threshold then evict t branch st ~instr
        end
      | Params.Sampled { window; samples } ->
        if t.params.enable_eviction then begin
          if st.smp_pos < samples && taken <> st.direction then
            st.smp_misses <- st.smp_misses + 1;
          st.smp_pos <- st.smp_pos + 1;
          if st.smp_pos = samples then begin
            let bias = float_of_int (samples - st.smp_misses) /. float_of_int samples in
            if bias < t.params.evict_bias then evict t branch st ~instr
            else st.smp_misses <- 0
          end
          else if st.smp_pos >= window then begin
            st.smp_pos <- 0;
            st.smp_misses <- 0
          end
        end
    end

  let observe_state t branch st ~taken ~instr =
    if st.pend_at >= 0 && instr >= st.pend_at then begin
      st.dep_spec <- st.pend_spec;
      st.dep_dir <- st.pend_dir;
      st.pend_at <- -1
    end;
    (match st.phase with
    | Monitoring ->
      st.stride_pos <- st.stride_pos + 1;
      if st.stride_pos >= t.params.monitor_stride then begin
        st.stride_pos <- 0;
        st.mon_seen <- st.mon_seen + 1;
        if taken then st.mon_taken <- st.mon_taken + 1;
        if st.mon_seen >= t.monitor_samples then classify t branch st ~instr
      end
    | Biased -> observe_biased t branch st ~taken ~instr
    | Unbiased ->
      if t.params.enable_revisit then begin
        st.wait_left <- st.wait_left - 1;
        if st.wait_left <= 0 then begin
          enter_monitor st;
          record t branch st instr Types.Revisited
        end
      end
    | Disabled -> ());
    st.execs <- st.execs + 1

  let step t ~branch ~taken ~instr =
    let st = t.states.(branch) in
    let d = { Types.speculate = st.dep_spec; direction = st.dep_dir } in
    observe_state t branch st ~taken ~instr;
    d
end

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

let fsm_equivalent { seed; params; n; length } =
  (match Params.validate params with
  | Ok () -> ()
  | Error m -> Alcotest.failf "generated invalid params: %s" m);
  let rng = Prng.create seed in
  let packed = Reactive.create ~n_branches:n params in
  let reference = Reference.create ~n_branches:n params in
  let biases = Array.init n (fun _ -> Prng.float rng 1.0) in
  let instr = ref 0 in
  let ok = ref true in
  for _ = 1 to length do
    let b = Prng.int rng n in
    (* strongly phase-dependent outcomes so monitors re-classify *)
    let taken = Prng.float rng 1.0 < biases.(b) in
    if Prng.int rng 50 = 0 then biases.(b) <- Prng.float rng 1.0;
    instr := !instr + Prng.int rng 4;
    let d_packed = Reactive.step packed ~branch:b ~taken ~instr:!instr in
    let d_ref = Reference.step reference ~branch:b ~taken ~instr:!instr in
    if d_packed <> d_ref then ok := false
  done;
  !ok
  && Reactive.transitions packed = Reference.transitions reference
  && List.init n (fun b ->
         ( Reactive.deployed packed b,
           Reactive.selections packed b,
           Reactive.evictions packed b,
           Reactive.touched packed b ))
     = List.init n (fun b ->
           ( Reference.deployed reference b,
             Reference.selections reference b,
             Reference.evictions reference b,
             Reference.touched reference b ))

(* Deterministic corner: oscillation retirement.  One branch, monitor
   period 1, eviction after a single misspeculation, limit 1 — the
   second selection attempt must cap the branch, and both
   implementations must agree on the exact transition list. *)
let test_oscillation_retirement () =
  let params =
    {
      Params.default with
      monitor_period = 1;
      selection_threshold = 0.6;
      evict_threshold = 1;
      misspec_step = 1;
      correct_step = 1;
      wait_period = 3;
      oscillation_limit = 1;
      optimization_latency = 0;
      monitor_stride = 1;
    }
  in
  let packed = Reactive.create ~n_branches:1 params in
  let reference = Reference.create ~n_branches:1 params in
  (* taken -> Selected(taken); not-taken -> Evicted; taken -> Capped *)
  let feed taken instr =
    let d1 = Reactive.step packed ~branch:0 ~taken ~instr in
    let d2 = Reference.step reference ~branch:0 ~taken ~instr in
    Alcotest.(check bool) "step agrees" true (d1 = d2)
  in
  List.iteri (fun i taken -> feed taken (10 * (i + 1))) [ true; false; true; true; true ];
  let kinds t = List.map (fun (tr : Types.transition) -> tr.kind) t in
  Alcotest.(check bool)
    "capped after one eviction" true
    (kinds (Reactive.transitions packed) = [ Types.Selected; Types.Evicted; Types.Capped ]);
  Alcotest.(check bool)
    "reference agrees" true
    (Reactive.transitions packed = Reference.transitions reference);
  Alcotest.(check bool)
    "retired branch never speculates" true
    (not (Reactive.deployed packed 0).speculate)

(* Deterministic corner: pending-deployment latency.  With latency L, a
   selection at instruction I deploys at the first observation with
   instr >= I + L — and the observation that activates it is still
   scored against the old decision. *)
let test_pending_deployment_latency () =
  let params =
    {
      Params.default with
      monitor_period = 2;
      selection_threshold = 0.6;
      optimization_latency = 100;
      enable_eviction = false;
      enable_revisit = false;
    }
  in
  let packed = Reactive.create ~n_branches:1 params in
  let reference = Reference.create ~n_branches:1 params in
  let feed taken instr =
    let d1 = Reactive.step packed ~branch:0 ~taken ~instr in
    let d2 = Reference.step reference ~branch:0 ~taken ~instr in
    Alcotest.(check bool) "step agrees" true (d1 = d2);
    d1
  in
  (* two monitored executions at instr 10, 20: Selected(taken) at 20,
     pending until instr 120 *)
  ignore (feed true 10);
  ignore (feed true 20);
  let d = feed true 60 in
  Alcotest.(check bool) "not deployed during latency" false d.Types.speculate;
  (* the activating event itself is scored against the old decision *)
  let d = feed true 120 in
  Alcotest.(check bool) "activation event scored against old code" false d.Types.speculate;
  let d = feed true 130 in
  Alcotest.(check bool) "deployed after latency" true d.Types.speculate;
  Alcotest.(check bool) "deployed direction" true d.Types.direction

(* Regression: the documented non-decreasing-instr precondition is now
   checked.  A decreasing instruction count must raise Invalid_argument
   naming the entry point; equal counts stay legal. *)
let test_observe_monotonic_guard () =
  let t = Reactive.create ~n_branches:2 Params.default in
  Reactive.observe t ~branch:0 ~taken:true ~instr:100;
  Reactive.observe t ~branch:1 ~taken:false ~instr:100;
  (* equal is fine *)
  let raised_observe =
    try
      Reactive.observe t ~branch:0 ~taken:true ~instr:99;
      None
    with Invalid_argument m -> Some m
  in
  (match raised_observe with
  | Some m ->
    Alcotest.(check bool) "names Reactive.observe" true
      (String.length m >= 16 && String.sub m 0 16 = "Reactive.observe")
  | None -> Alcotest.fail "observe accepted a decreasing instr");
  let raised_step =
    try
      ignore (Reactive.step t ~branch:0 ~taken:true ~instr:3 : Types.decision);
      None
    with Invalid_argument m -> Some m
  in
  (match raised_step with
  | Some m ->
    Alcotest.(check bool) "names Reactive.step" true
      (String.length m >= 13 && String.sub m 0 13 = "Reactive.step")
  | None -> Alcotest.fail "step accepted a decreasing instr");
  (* the failed calls must not have corrupted the high-water mark *)
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

(* The event-for-event scalar oracle: replay decoded events through the
   reference FSM with the engine's scoring rule. *)
let scalar_run tr params n =
  let reference = Reference.create ~n_branches:n params in
  let correct = ref 0 in
  let incorrect = ref 0 in
  let last = ref 0 in
  let gap_count = ref 0 in
  let gap_sum = ref 0 in
  replay tr (fun ~branch ~taken ~instr ->
      let d = Reference.step reference ~branch ~taken ~instr in
      if d.Types.speculate then begin
        if taken = d.direction then incr correct
        else begin
          incr incorrect;
          incr gap_count;
          gap_sum := !gap_sum + (instr - !last);
          last := instr
        end
      end);
  (!correct, !incorrect, !gap_count, !gap_sum, Reference.transitions reference)

(* The kernel under test: whole packed chunks through
   [Reactive.step_chunk]. *)
let kernel_run tr params n =
  let controller = Reactive.create ~n_branches:n params in
  let s = Reactive.score () in
  TS.iter_packed tr (Reactive.step_chunk controller s);
  ( ( s.correct,
      s.incorrect,
      Rs_util.Running_stats.count s.gaps,
      int_of_float (Rs_util.Running_stats.sum s.gaps +. 0.5),
      Reactive.transitions controller ),
    controller )

let batch_run tr params n = fst (kernel_run tr params n)

(* The packed controller's final state words after per-event
   [Reactive.step] over the same trace: the kernel's fast path must
   leave every word exactly where the generic machine would. *)
let stepped_words tr params n =
  let controller = Reactive.create ~n_branches:n params in
  replay tr (fun ~branch ~taken ~instr ->
      ignore (Reactive.step controller ~branch ~taken ~instr : Types.decision));
  Reactive.export_words controller

let qcheck_batch_equals_scalar =
  QCheck.Test.make ~name:"Reactive.step_chunk == scalar replay through reference FSM" ~count:40
    QCheck.(pair (int_bound 100_000) (int_range 1 10))
    (fun (seed, n) ->
      let pop = mk_pop ~n seed in
      let cfg = { Stream.seed; instr_per_branch = 5.0; length = 30_000 + (seed mod 3) } in
      let params = gen_params (Prng.create (seed + 7)) in
      let tr = TS.record pop cfg in
      let c1, i1, g1, s1, trs1 = scalar_run tr params n in
      let (c2, i2, g2, s2, trs2), controller = kernel_run tr params n in
      c1 = c2 && i1 = i2 && g1 = g2 && abs (s1 - s2) <= 1 && trs1 = trs2
      && Reactive.export_words controller = stepped_words tr params n)

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
  let c1, i1, g1, s1, trs1 = scalar_run tr params n in
  let (c2, i2, g2, s2, trs2), controller = kernel_run tr params n in
  Alcotest.(check (list int)) (name ^ ": scores") [ c1; i1; g1; s1 ] [ c2; i2; g2; s2 ];
  Alcotest.(check bool) (name ^ ": transitions") true (trs1 = trs2);
  Alcotest.(check bool)
    (name ^ ": state words") true
    (Reactive.export_words controller = stepped_words tr params n);
  ((c2, i2), List.map (fun (tr : Types.transition) -> (tr.kind, tr.instr)) trs2)

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
  raises_msg "branch >= n" "Reactive.step: branch out of range" (fun () ->
      Reactive.step_chunk c s chunk 2);
  Alcotest.(check int) "events before the bad one applied" 7 s.instr;
  Alcotest.(check bool) "and counted" true (Reactive.touched c 1);
  let c = Reactive.create ~n_branches:2 Params.default in
  Reactive.observe c ~branch:0 ~taken:true ~instr:1000;
  raises_msg "chunk below last_instr"
    "Reactive.step: instruction counts must be non-decreasing across calls" (fun () ->
      Reactive.step_chunk c (Reactive.score ()) [| word ~branch:0 ~delta:5000 ~taken:true |] 1);
  raises_msg "len past the chunk" "Reactive.step_chunk: bad chunk length" (fun () ->
      Reactive.step_chunk c (Reactive.score ()) [||] 1)

(* ---------------------------------------------------------------------- *)
(* Adversarial corners: the workload family built to hammer the FSM's    *)
(* own thresholds must not split the batched and scalar paths            *)
(* ---------------------------------------------------------------------- *)

module Adv = Rs_workload.Adversary
module MT = Rs_workload.Mistrain
module IL = Rs_workload.Interleave

let paths_agree tr params n =
  let c1, i1, g1, s1, t1 = scalar_run tr params n in
  let c2, i2, g2, s2, t2 = batch_run tr params n in
  c1 = c2 && i1 = i2 && g1 = g2 && abs (s1 - s2) <= 1 && t1 = t2

let qcheck_adversary_batch_equals_scalar =
  QCheck.Test.make
    ~name:"batched == scalar on threshold-flip adversarial populations" ~count:20
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let params = gen_params (Prng.create (seed + 17)) in
      let sc = List.nth Adv.all (seed mod List.length Adv.all) in
      let pop, cfg = Adv.build sc ~params ~seed ~scale:1.0 in
      let tr = TS.record pop cfg in
      paths_agree tr params (Pop.size pop))

let qcheck_mistrain_batch_equals_scalar =
  QCheck.Test.make ~name:"batched == scalar on mistraining burst schedules" ~count:15
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let params = gen_params (Prng.create (seed + 23)) in
      let schedule = if seed mod 2 = 0 then MT.Train_then_trigger else MT.Burst_poison in
      let strength = 0.3 +. (0.65 *. float_of_int (seed mod 7) /. 6.0) in
      let b = MT.build schedule ~strength ~params ~seed ~scale:0.3 in
      let tr = TS.record b.population b.config in
      paths_agree tr params (Pop.size b.population))

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
      let check (_, _, tr) = paths_agree tr params (TS.n_branches tr) in
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
  let summary (r : Rs_sim.Engine.result) =
    ( r.total_events,
      r.total_instructions,
      r.correct,
      r.incorrect,
      Rs_util.Running_stats.count r.misspec_gap,
      Reactive.transitions r.controller )
  in
  let code_of (d : Types.decision) =
    (if d.speculate then 1 else 0) lor if d.direction then 2 else 0
  in
  (* the expected sequence, from the reference FSM: each event's
     decision, then the transitions its observation causes *)
  let reference = Reference.create ~n_branches:n params in
  let expected = ref [] in
  let seen = ref [] in
  replay tr (fun ~branch ~taken ~instr ->
      let d = Reference.step reference ~branch ~taken ~instr in
      expected := `Event (branch, taken, instr, code_of d) :: !expected;
      (* the transitions this step added: the newest prefix of the
         reversed list, up to the previous head *)
      let rec fresh l =
        if l == !seen then [] else match l with t :: r -> t :: fresh r | [] -> []
      in
      let now = reference.Reference.transitions_rev in
      List.iter
        (fun (t : Types.transition) -> expected := `Transition t.kind :: !expected)
        (List.rev (fresh now));
      seen := now);
  let observed ?trace () =
    let seq = ref [] in
    let r =
      Rs_sim.Engine.run
        ~observer:(fun ~branch ~taken ~instr ~code ->
          seq := `Event (branch, taken, instr, code) :: !seq)
        ~on_transition:(fun t -> seq := `Transition t.kind :: !seq)
        ?trace pop cfg params
    in
    (r, !seq)
  in
  let r_observed, seq_recorded = observed ~trace:tr () in
  let r_observed_live, seq_live = observed () in
  let r_batched = Rs_sim.Engine.run ~trace:tr pop cfg params in
  let r_live = Rs_sim.Engine.run pop cfg params in
  Alcotest.(check bool) "batched == observer result" true (summary r_batched = summary r_observed);
  Alcotest.(check bool) "live batched == observer result" true
    (summary r_live = summary r_observed);
  Alcotest.(check bool) "live observer == observer result" true
    (summary r_observed_live = summary r_observed);
  Alcotest.(check bool) "live observer sees the recorded sequence" true (seq_live = seq_recorded);
  Alcotest.(check bool) "hook order: decision, then observe" true (seq_recorded = !expected);
  Alcotest.(check bool) "observer sequence nonempty" true (seq_recorded <> [])

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
  ]
