(** Saturating counters.

    The paper's eviction hysteresis (Section 3.1) is a saturating counter
    that moves up by a large step on a misspeculation and down by a small
    step on a correct speculation, triggering eviction when it reaches a
    threshold.  This module provides that primitive in a reusable form. *)

type t
(** A mutable counter clamped to [\[0, max\]]. *)

val create : ?initial:int -> max:int -> unit -> t
(** [create ~max ()] builds a counter saturating at [max], starting at
    [initial] (default 0).  @raise Invalid_argument if [max <= 0] or
    [initial] falls outside [\[0, max\]]. *)

val value : t -> int
(** Current value. *)

val max_value : t -> int
(** Saturation bound. *)

val add : t -> int -> unit
(** [add t delta] moves the counter by [delta] (possibly negative),
    clamping to [\[0, max\]]. *)

val is_saturated : t -> bool
(** [is_saturated t] is [value t = max_value t]. *)

val reset : t -> unit
(** Return the counter to 0. *)
