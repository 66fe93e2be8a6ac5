(** The functional simulator (Section 3.2's experimental vehicle).

    Replays a stream against a reactive controller: each event is scored
    against the decision the {e deployed} code embodies at that moment
    (which lags the controller by the optimization latency), then handed
    to the controller as an observation.

    Events arrive as packed chunks from
    {!Rs_behavior.Trace_store.iter_chunks} — a recorded trace, or the
    generator packing live — and are never materialized as values.
    Every run hands each chunk to {!Rs_core.Reactive.step_chunk} — or,
    for a cell recording, with or without an observer, each cell chunk
    to {!Rs_core.Reactive.step_cells}, which decodes the cells in
    place — so the per-event work is integer decode, the controller
    step and integer scoring in one loop — nothing the minor heap ever
    sees — with the observer closure, when there is one, the only call
    in it.  Each run
    adds the events that left the kernel's fast path to the
    [engine.slow_events] counter. *)

type result = {
  total_events : int;
  total_instructions : int;
  correct : int;  (** Correct speculations (eliminated branches). *)
  incorrect : int;  (** Misspeculations. *)
  last_misspec : int;
      (** Instruction count of the last misspeculation, 0 if there was
          none: the distances between consecutive misspeculations, the
          first measured from 0, sum to it. *)
  controller : Rs_core.Reactive.t;  (** Post-run controller state. *)
}

val run :
  ?label:string ->
  ?observer:(branch:int -> taken:bool -> instr:int -> code:int -> unit) ->
  ?on_transition:(Rs_core.Types.transition -> unit) ->
  ?trace:Rs_behavior.Trace_store.t ->
  Rs_behavior.Population.t ->
  Rs_behavior.Stream.config ->
  Rs_core.Params.t ->
  result
(** Run to completion.  [observer] sees every event before it is
    scored and before the controller observes it, as plain integers with
    the decision it is scored against in {!Rs_core.Reactive.deployed_code}'s
    2-bit [code] (bit 0 speculate, bit 1 direction); [on_transition]
    fires at every controller transition.  Both default to no-ops.
    [label] (default empty) tags this run's {!Rs_obs.Trace} events —
    transitions and the end-of-run [engine_run] summary — and costs
    nothing when tracing is off.

    [trace] replays a prerecorded {!Rs_behavior.Trace_store} trace of
    the same (population, config) instead of generating the stream live:
    the result — counters, last misspeculation, controller state,
    observer/transition hook sequence — is identical, since both sources
    yield the same packed chunks.
    @raise Invalid_argument if the trace does not match the
    (population, config) pair. *)

val correct_rate : result -> float
val incorrect_rate : result -> float
val misspec_distance : result -> float
(** Mean instructions between misspeculations ([infinity] if none). *)
