(** Figure 6: behaviour in the vicinity of an eviction.

    When a branch leaves the biased state, what do its next executions
    look like?  The paper observes (up to 64 executions after each
    eviction) that over half of evicted branches show a bias below 30 % in
    the transition period — i.e. they softened or reversed — and about
    20 % become perfectly biased in the opposite direction.

    This module runs a reactive simulation, and after the {e first}
    eviction of each static branch records the fraction of the branch's
    next 64 executions that still go in the {e original} (pre-eviction)
    direction — the paper's Figure 6 reports fractions of static
    branches, not of evictions. *)

type t = {
  samples : int;
      (** Branches whose first eviction was watched for at least 16
          post-eviction executions. *)
  histogram : Rs_util.Histogram.t;
      (** Distribution over sampled branches of the post-eviction
          original-direction fraction, in [0, 1]. *)
  fraction_below_30pct : float;
  fraction_reversed : float;  (** Post-eviction bias below 5 %. *)
}

val run :
  ?trace:Rs_behavior.Trace_store.t ->
  Rs_behavior.Population.t ->
  Rs_behavior.Stream.config ->
  Rs_core.Params.t ->
  t
(** [trace] is forwarded to {!Engine.run} (replay instead of
    regeneration; identical results). *)
