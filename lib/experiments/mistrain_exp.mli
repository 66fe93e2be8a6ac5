(** Registry entry [mistrain]: Spectre-style mistraining schedules
    ({!Rs_workload.Mistrain}) with measured quarantine times
    ({!Rs_sim.Quarantine}), a static-policy damage baseline, and every
    run checked against the reference FSM ({!Rs_sim.Reference.check}). *)

type row = {
  schedule : string;
  strength : float;
  victims : int;
  quarantined : int;
  mean_q_execs : float;  (** Mean quarantine time in victim executions (nan if none). *)
  mean_q_instrs : float;
  predicted_evict_execs : int;
  reactive_damage : int;  (** Misspeculations of deployed code across all victims. *)
  static_damage : int;  (** Poisoned outcomes a static always-speculate policy eats. *)
  differential_ok : bool;  (** {!Rs_sim.Reference.check} agreed. *)
}

type t = { rows : row list; verdicts : Verdict.t list }

val run : Context.t -> t
val render : t -> string
