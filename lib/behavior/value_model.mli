(** Load-value sequences.

    The paper evaluates branches but notes its results hold qualitatively
    for other behaviours, notably loads that produce invariant values
    (the [x.d == 32] assumption of Figure 1).  These models generate the
    value sequences a static load site produces; the value-speculation
    extension maps them onto the same reactive controller by observing
    "did the load produce the value the speculative code assumes". *)

type t =
  | Constant of int  (** Always the same value. *)
  | Noisy_constant of { value : int; other : int; p_other : float }
      (** Almost always [value]. *)
  | Sticky of { values : int array; p_stay : float }
      (** Categorical with inertia: repeats the previous value with
          probability [p_stay], otherwise resamples uniformly. *)
  | Counter of { start : int; stride : int }  (** Never repeats. *)
  | Phase_constant of { first : int; second : int; switch_at : int }
      (** Invariantly [first], then invariantly [second] — the value
          analogue of a branch reversal. *)

val initial : t -> int
(** The value of execution 0. *)

val next : t -> rng:Rs_util.Prng.t -> exec_index:int -> prev:int -> int
(** The value of the given execution, given the previous one. *)

val pp : Format.formatter -> t -> unit
