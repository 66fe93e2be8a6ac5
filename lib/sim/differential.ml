module TS = Rs_behavior.Trace_store
module Reactive = Rs_core.Reactive
module Stats = Rs_util.Running_stats

type report = {
  events : int;
  counters_ok : bool;
  gaps_ok : bool;
  transitions_ok : bool;
  branches_ok : bool;
  per_event_ok : bool;
  first_divergence : int option;
  agree : bool;
}

let check ?(label = "differential") ~trace pop cfg params =
  (* Per-event pass: two fresh controllers fed the same decoded events,
     one through the fused integer [step_code], one through the boxed
     [step]; the decisions must match event-for-event.  Reading the trace
     through [iter_chunks] checks it against (population, config) before
     either engine run. *)
  let n_branches = TS.n_branches trace in
  let c_code = Reactive.create ~n_branches params in
  let c_dec = Reactive.create ~n_branches params in
  let idx = ref 0 in
  let instr = ref 0 in
  let first_divergence = ref None in
  TS.iter_chunks ~caller:"Differential.check" ~trace pop cfg (fun chunk len ->
      for i = 0 to len - 1 do
        let w = Array.unsafe_get chunk i in
        let branch = TS.packed_branch w in
        let taken = TS.packed_taken w in
        instr := !instr + TS.packed_delta w;
        let code = Reactive.step_code c_code ~branch ~taken ~instr:!instr in
        let d = Reactive.step c_dec ~branch ~taken ~instr:!instr in
        if Reactive.decision_of_code code <> d && !first_divergence = None then
          first_divergence := Some !idx;
        incr idx
      done);
  (* Hookless with an explicit trace: the batched step_chunk kernel. *)
  let r_batched = Engine.run ~label:(label ^ ":batched") ~trace pop cfg params in
  (* An observer forces the scalar observer loop over the same trace. *)
  let r_scalar =
    Engine.run
      ~label:(label ^ ":scalar")
      ~observer:(fun ~branch:_ ~taken:_ ~instr:_ ~code:_ -> ())
      ~trace pop cfg params
  in
  let counters_ok =
    r_batched.Engine.total_events = r_scalar.Engine.total_events
    && r_batched.total_instructions = r_scalar.total_instructions
    && r_batched.correct = r_scalar.correct
    && r_batched.incorrect = r_scalar.incorrect
  in
  let gaps_ok =
    Stats.count r_batched.misspec_gap = Stats.count r_scalar.misspec_gap
    && Float.abs (Stats.sum r_batched.misspec_gap -. Stats.sum r_scalar.misspec_gap) <= 1.0
  in
  let transitions_ok =
    Reactive.transitions r_batched.controller = Reactive.transitions r_scalar.controller
  in
  let branches_ok =
    Reactive.export_words r_batched.controller = Reactive.export_words r_scalar.controller
  in
  let per_event_ok =
    !first_divergence = None
    && Reactive.transitions c_code = Reactive.transitions c_dec
    && Reactive.export_words c_code = Reactive.export_words c_dec
  in
  let agree = counters_ok && gaps_ok && transitions_ok && branches_ok && per_event_ok in
  ( {
      events = !idx;
      counters_ok;
      gaps_ok;
      transitions_ok;
      branches_ok;
      per_event_ok;
      first_divergence = !first_divergence;
      agree;
    },
    r_batched )
