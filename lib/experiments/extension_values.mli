(** Extension: reactive control of load-value speculation.

    Section 2 of the paper: "We have confirmed that these results are
    qualitatively consistent with other program behaviors (e.g., loads
    that produce invariant values...)".  This experiment demonstrates the
    controller's behaviour-agnosticism: the same FSM, fed "did the load
    produce the value the speculative code assumes", controls constant
    substitution (the [x.d == 32] assumption of Figure 1).

    The oracle comparison is self-training with the modal value: for each
    load site, the best single constant over the whole run. *)

type row = {
  label : string;  (** Policy. *)
  correct : float;  (** Fraction of loads correctly replaced by constants. *)
  incorrect : float;
  selections : int;
  evictions : int;
}

type t = { rows : row list  (** Oracle, reactive, and no-eviction. *) }

val run : Context.t -> t
(** 160 load sites, 4M loads, whatever the context's scale. *)

val render : t -> string
