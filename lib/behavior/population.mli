(** Static branch populations.

    A population is the set of static conditional branches of one
    synthetic benchmark run: each branch has an outcome model and a
    relative execution weight.  Dynamic interleaving samples branches in
    proportion to their weights through Vose's alias method, so per-event
    cost is O(1) regardless of population size. *)

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

(** O(1) weighted sampling (Vose's alias method). *)
module Alias : sig
  type sampler

  val of_weights : float array -> sampler
  (** A sampler over indices [0 .. n-1] of [n] weights, each of which
      must be positive and finite (the check {!create} makes). *)

  val prepare : t -> sampler
  (** [of_weights] over the branches' weights. *)

  val draw : sampler -> Rs_util.Prng.t -> int
  (** Sample a branch id with probability proportional to its weight. *)
end
