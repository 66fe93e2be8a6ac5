module Reactive = Rs_core.Reactive
module Types = Rs_core.Types

type result = {
  total_events : int;
  total_instructions : int;
  correct : int;
  incorrect : int;
  last_misspec : int;
  controller : Reactive.t;
}

let m_runs = Rs_obs.Metrics.counter "engine.runs"
let m_events = Rs_obs.Metrics.counter "engine.events"
let m_instructions = Rs_obs.Metrics.counter "engine.instructions"
let m_correct = Rs_obs.Metrics.counter "engine.correct"
let m_incorrect = Rs_obs.Metrics.counter "engine.incorrect"
let m_slow = Rs_obs.Metrics.counter "engine.slow_events"

let h_wall =
  Rs_obs.Metrics.histogram "engine.wall_seconds" ~bounds:[| 0.01; 0.1; 1.0; 10.0; 60.0 |]

let run ?(label = "") ?observer ?on_transition ?trace pop config params =
  let t0 = Rs_obs.Trace.now () in
  let n = Rs_behavior.Population.size pop in
  (* Compose the tracing hook outside the event loop; enabled() is
     sampled once per run. *)
  let on_transition =
    if not (Rs_obs.Trace.enabled ()) then on_transition
    else begin
      let inner = match on_transition with Some f -> f | None -> fun _ -> () in
      Some
        (fun (tr : Types.transition) ->
          Rs_obs.Trace.emit "transition"
            [
              S ("label", label);
              I ("branch", tr.branch);
              S ("kind", Types.transition_kind_to_string tr.kind);
              I ("instr", tr.instr);
              I ("exec_index", tr.exec_index);
            ];
          inner tr)
    end
  in
  let controller = Reactive.create ?on_transition ~n_branches:n params in
  let s = Reactive.score () in
  (* Without an observer, a cell recording is stepped in place. *)
  let cells = match observer with None -> Some (Reactive.step_cells controller s) | Some _ -> None in
  Rs_behavior.Trace_store.iter_chunks ~caller:"Engine.run" ?trace ?cells pop config
    (Reactive.step_chunk ?observer controller s);
  let total_instructions = Rs_behavior.Stream.total_instructions config in
  let wall = Rs_obs.Trace.now () -. t0 in
  Rs_obs.Metrics.incr m_runs;
  Rs_obs.Metrics.add m_events config.length;
  Rs_obs.Metrics.add m_instructions total_instructions;
  Rs_obs.Metrics.add m_correct s.correct;
  Rs_obs.Metrics.add m_incorrect s.incorrect;
  Rs_obs.Metrics.add m_slow s.slow;
  Rs_obs.Metrics.observe h_wall wall;
  if Rs_obs.Trace.enabled () then
    Rs_obs.Trace.emit "engine_run"
      [
        S ("label", label);
        I ("events", config.length);
        I ("instructions", total_instructions);
        I ("correct", s.correct);
        I ("incorrect", s.incorrect);
        F ("wall_s", wall);
      ];
  {
    total_events = config.length;
    total_instructions;
    correct = s.correct;
    incorrect = s.incorrect;
    last_misspec = s.last_misspec;
    controller;
  }

let correct_rate r = float_of_int r.correct /. float_of_int r.total_events
let incorrect_rate r = float_of_int r.incorrect /. float_of_int r.total_events

let misspec_distance r =
  if r.incorrect = 0 then infinity
  else float_of_int r.total_instructions /. float_of_int r.incorrect
