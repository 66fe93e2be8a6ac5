(** Static branch populations.

    A population is the set of static conditional branches of one
    synthetic benchmark run: each branch has an outcome model and a
    relative execution weight.  A stream samples branches in proportion
    to their weights through Vose's alias method ({!Stream.Alias}), so
    per-event cost is O(1) regardless of population size. *)

type spec = {
  id : int;  (** Dense static branch id, [0 .. size-1]. *)
  behavior : Behavior.t;
  weight : float;  (** Relative dynamic execution frequency; must be > 0. *)
}

type t

val create : spec array -> t
(** Build a population.  Branch ids must equal their array index.
    @raise Invalid_argument on a non-dense id, a non-positive weight or an
    empty array. *)

val size : t -> int
val spec : t -> int -> spec
