(** The functional simulator (Section 3.2's experimental vehicle).

    Replays a stream against a reactive controller: each event is scored
    against the decision the {e deployed} code embodies at that moment
    (which lags the controller by the optimization latency), then handed
    to the controller as an observation.

    Hookless runs never materialize per-event values: an explicit trace
    (or, absent one, a recording made once through
    {!Rs_behavior.Trace_store.auto}) is consumed whole packed chunks at
    a time by {!Rs_core.Reactive.step_chunk}, so the per-event work is
    integer decode, the controller step and integer scoring in one
    call-free loop — nothing the minor heap ever sees. *)

type result = {
  total_events : int;
  total_instructions : int;
  correct : int;  (** Correct speculations (eliminated branches). *)
  incorrect : int;  (** Misspeculations. *)
  misspec_gap : Rs_util.Running_stats.t;
      (** Instruction distances between consecutive misspeculations. *)
  controller : Rs_core.Reactive.t;  (** Post-run controller state. *)
}

val run :
  ?label:string ->
  ?observer:(Rs_behavior.Stream.event -> Rs_core.Types.decision -> unit) ->
  ?observer_raw:(branch:int -> taken:bool -> instr:int -> code:int -> unit) ->
  ?on_transition:(Rs_core.Types.transition -> unit) ->
  ?trace:Rs_behavior.Trace_store.t ->
  Rs_behavior.Population.t ->
  Rs_behavior.Stream.config ->
  Rs_core.Params.t ->
  result
(** Run to completion.  [observer] sees every event with the decision it
    was scored against; [on_transition] fires at every controller
    transition.  Both default to no-ops.  [label] (default empty) tags
    this run's {!Rs_obs.Trace} events — transitions and the end-of-run
    [engine_run] summary — and costs nothing when tracing is off.

    [observer_raw] is the allocation-free variant of [observer]: the
    same hook point and ordering (after scoring, before the controller's
    observation), but the event arrives as plain integers and the
    decision as a {!Rs_core.Reactive.step_code}-style 2-bit [code].
    At most one of the two observers may be given.

    [trace] replays a prerecorded {!Rs_behavior.Trace_store} trace of
    the same (population, config) instead of regenerating the stream:
    the result — counters, misspeculation gaps, controller state,
    observer/transition hook sequence — is identical, the hot loop just
    iterates packed chunks at memory speed.  Without [trace], hookless
    and [observer_raw] runs go through {!Rs_behavior.Trace_store.auto}
    (record once, replay thereafter — also identical); a boxed
    [observer] keeps the event-record path.
    @raise Invalid_argument if the trace does not match the
    (population, config) pair, or both observers are given. *)

val correct_rate : result -> float
val incorrect_rate : result -> float
val misspec_distance : result -> float
(** Mean instructions between misspeculations ([infinity] if none). *)
