(** Deterministic pseudo-random number generation.

    All stochastic behaviour in the library flows through this module so
    that every experiment is reproducible from a single root seed.  The
    generator is xorshift64* (Marsaglia's xorshift with a multiplicative
    output scramble) on OCaml's native 63-bit integers, so a draw never
    allocates; seeds pass through a SplitMix64-style bit mixer.
    Generators are splittable: [split t] seeds a child from the parent's
    next output through the same mixer, which lets each static branch own
    a private stream regardless of interleaving. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from a root seed.  Equal seeds yield
    equal streams. *)

val copy : t -> t
(** [copy t] duplicates the current state; the copy evolves independently. *)

val split : t -> t
(** [split t] advances [t] and returns a child generator whose stream is
    statistically independent of the parent's subsequent output. *)

val bits62 : t -> int
(** Next raw output masked to a non-negative native int (62 bits). *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  @raise Invalid_argument if
    [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val unit_bits : t -> int
(** The 53 random bits behind one {!float} draw, as an integer in
    [\[0, 2^53)]: [float t bound] is
    [float_of_int (unit_bits t) /. 2^53 *. bound]. *)

val threshold : float -> int
(** [threshold p] is the [k] for which [unit_bits t < k] decides exactly
    as [float t 1.0 < p]: [ceil (p *. 2^53)], and 0 for NaN.  The
    probabilities {!bernoulli} decides without a draw get [max_int]
    ([p >= 1]) and -1 ([p <= 0]). *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p] (clamped to [0,1]). *)

(** {2 Raw states} *)

val state : t -> int
(** [t]'s raw state: what a hot loop that keeps generator states in
    locals or flat [int array]s starts from ([Rs_behavior.Stream]'s
    generator, whose inlined copy of the per-draw arithmetic steps it
    exactly as the draws above do). *)
