(** The Figure 4(b) controller written for reading, not for speed: one
    record per branch whose phase carries its own counters, and the
    Table 2 parameters used by name.  It is the oracle the packed
    production controller ({!Rs_core.Reactive}) is held to, by the
    adversarial experiments through {!check} and by the tests.

    Same contract as {!Rs_core.Reactive}: score each event against
    {!deployed}, then {!observe} it.  Nothing is validated. *)

type t

val create :
  ?on_transition:(Rs_core.Types.transition -> unit) -> n_branches:int -> Rs_core.Params.t -> t

val deployed : t -> int -> Rs_core.Types.decision
val observe : t -> branch:int -> taken:bool -> instr:int -> unit

val agrees : t -> Rs_core.Reactive.t -> bool
(** The same [deployed]/[selections]/[evictions]/[touched]/[capped] for
    every branch.  Transitions are not part of a controller's state:
    compare them by collecting both machines' [on_transition] events. *)

val check :
  label:string ->
  trace:Rs_behavior.Trace_store.t ->
  Rs_behavior.Population.t ->
  Rs_behavior.Stream.config ->
  Rs_core.Params.t ->
  bool * Engine.result
(** Run [trace] once through the batched {!Engine.run} (tagged [label])
    and once through the reference scored by the engine's rule
    ({!Rs_core.Reactive.score_event}): [true] when both give the same
    event, correct and incorrect counts, the same last misspeculation,
    the same transitions in the same order (the engine's collected
    through its [on_transition] hook), and their final states
    {!agrees}.  Returns the engine's result alongside.
    @raise Invalid_argument if the trace does not match the
    (population, config) pair. *)
