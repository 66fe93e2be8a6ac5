(** Figure 3: static branches with initially invariant behaviour.

    The paper plots five gap branches whose bias, averaged over blocks of
    1,000 executions, is essentially 100 % for at least the first 20,000
    executions and then changes — softening, reversing, or flipping on an
    induction variable.  We find such branches in the synthetic gap
    workload by measurement (initially biased, whole-run bias below the
    selection threshold) and print their block-bias series. *)

type track = { branch : int; series : (int * float) list }

type t = { benchmark : string; block : int; tracks : track list }

val run : Context.t -> t

val render : t -> string
