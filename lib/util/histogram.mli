(** Fixed-bin histograms over a float range.

    Used for Figure 6 (distribution of post-eviction biases). *)

type t

val create : ?lo:float -> ?hi:float -> bins:int -> unit -> t
(** [create ~bins ()] covers [\[lo, hi)] (defaults 0..1) with [bins] equal
    bins.  Values outside the range are clamped into the end bins.
    @raise Invalid_argument if [bins <= 0] or [hi <= lo]. *)

val add : t -> float -> unit
val add_many : t -> float -> int -> unit
(** [add_many t x k] records [x] with multiplicity [k]. *)

val count : t -> int
(** Total observations. *)

val bin_count : t -> int -> int
(** Observations in bin [i].  @raise Invalid_argument when out of range. *)

val bins : t -> int

val merge : t -> t -> t
(** Bin-wise sum of two histograms over the same range and bin count (the
    inputs are untouched).  Total count is the sum of the inputs' counts.
    @raise Invalid_argument if the shapes differ. *)

val to_list : t -> ((float * float) * int) list
(** All bins with their bounds and counts, in order. *)
