(** Registry entry [interleave]: multi-context merged streams
    ({!Rs_workload.Interleave}) run against one shared controller table
    and against per-context tables, every merged trace checked against
    the reference FSM ({!Rs_sim.Reference.check}). *)

type row = {
  schedule : string;
  table : string;  (** ["shared"] or ["per_context"]. *)
  events : int;
  selections : int;
  evictions : int;
  capped : int;
  correct_rate : float;
  incorrect_rate : float;
  differential_ok : bool;  (** {!Rs_sim.Reference.check} agreed. *)
}

type t = {
  contexts : int;
  per_context_events : int array;
  rows : row list;
  verdicts : Verdict.t list;
}

val params : Context.t -> Rs_core.Params.t
(** The shortened-clock controller parameters the merged streams run
    with (same ratios as the context's Table 2 parameters, scaled to
    {!Rs_workload.Interleave.execs_per_branch}). *)

val run : Context.t -> t
val render : t -> string
