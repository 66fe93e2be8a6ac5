(** Streaming summary statistics: count, running mean, extremes and sum. *)

type t

val create : unit -> t

val add : t -> float -> unit
(** Record one observation. *)

val count : t -> int
val mean : t -> float
(** Mean of the observations; 0 when empty. *)

val min : t -> float
(** Smallest observation; [infinity] when empty. *)

val max : t -> float
(** Largest observation; [neg_infinity] when empty. *)

val sum : t -> float
val merge : t -> t -> t
(** [merge a b] is a fresh accumulator equivalent to observing both
    streams (Chan et al. parallel combination). *)
