(** The paper's findings as executable checks.

    Runs the abstract and MSSP experiments and verdicts each headline
    claim of the paper against the measured shapes — a one-command answer
    to "does this reproduction actually reproduce the paper?".  The
    thresholds are deliberately loose: they encode the claim's {e shape}
    (ordering, factor, sign), not the paper's absolute numbers, which a
    synthetic scaled substrate cannot and should not match exactly. *)

type t = { verdicts : Verdict.t list }

val run : Context.t -> t
val render : t -> string
