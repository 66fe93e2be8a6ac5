(** A paper claim checked against a run: the row type of the [verdicts]
    sheet that [claims] and the three adversarial entries publish. *)

type t = {
  claim : string;  (** The statement checked, paraphrased. *)
  measured : string;  (** What this run measured. *)
  pass : bool;
}

val render : Buffer.t -> t list -> unit
(** Append one [  [PASS] claim] / [measured: ...] block per verdict. *)
