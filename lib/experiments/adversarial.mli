(** Registry entry [adversarial]: the {!Rs_workload.Adversary} scenarios
    driven through the engine, every run checked against the reference
    FSM ({!Rs_sim.Reference.check}). *)

type row = {
  scenario : string;
  summary : string;
  events : int;
  selections : int;
  evictions : int;
  capped : int;
  correct_rate : float;
  incorrect_rate : float;
  differential_ok : bool;  (** {!Rs_sim.Reference.check} agreed. *)
}

type t = { rows : row list; verdicts : Verdict.t list }

val run : Context.t -> t
val render : t -> string
