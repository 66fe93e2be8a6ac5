(** Differential check: batched packed decode vs scalar stepping.

    The engine has two ways to consume packed chunks — the hookless
    batched path ({!Rs_core.Reactive.step_chunk} over whole chunks) and
    the scalar observer loop taken whenever an observer is installed.
    The adversarial experiments lean on both, so this module runs a
    trace through each and checks they agree:

    - {e summary}: event/instruction/correct/incorrect counters,
      misspeculation-gap statistics, the full transition list and the
      final controllers' complete state words
      ({!Rs_core.Reactive.export_words});
    - {e per event}: two fresh controllers replay the decoded events
      side by side, one through [Reactive.step_code] and one through
      [Reactive.step], and every decision pair must match — the first
      index that differs is reported.

    The check is pure observation: it never mutates the trace, and the
    batched result is returned so callers pay for exactly one extra
    scalar pass (plus the cheap dual-controller decode). *)

type report = {
  events : int;  (** Events compared in the per-event pass. *)
  counters_ok : bool;
  gaps_ok : bool;
  transitions_ok : bool;
  branches_ok : bool;
  per_event_ok : bool;
  first_divergence : int option;
      (** Event index of the first decision mismatch, if any. *)
  agree : bool;  (** Conjunction of all the above checks. *)
}

val check :
  ?label:string ->
  trace:Rs_behavior.Trace_store.t ->
  Rs_behavior.Population.t ->
  Rs_behavior.Stream.config ->
  Rs_core.Params.t ->
  report * Engine.result
(** Run the trace through the batched and scalar paths and compare.
    [label] (default ["differential"]) tags the two engine runs'
    [Rs_obs.Trace] events as [label:batched] / [label:scalar].  Returns
    the report and the batched run's result.
    @raise Invalid_argument if the trace does not match the
    (population, config) pair. *)
