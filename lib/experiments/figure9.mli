(** Figure 9: correlated behaviour changes in vortex.

    Plots, one track per static branch that has significant periods of
    both behaviours, the intervals during which the branch is highly
    biased (>99 %).  Groups of branches change together because their
    behaviour is driven by a shared global-phase schedule — exactly the
    correlation the paper observes. *)

type t = {
  benchmark : string;
  buckets : int;
  flippers : (int * (int * int) list) list;  (** (branch, biased spans). *)
}

val run : Context.t -> t
val render : t -> string
