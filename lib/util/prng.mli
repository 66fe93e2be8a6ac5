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

val bits64 : t -> int64
(** Next raw output as an int64 (63 significant bits). *)

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
    [float_of_int (unit_bits t) /. two53 *. bound].  Hot loops that only
    need a uniform comparison use this with {!two53} to keep every float
    temporary inside their own function body, where the non-flambda
    compiler leaves them unboxed — a cross-module [float] call would box
    its result. *)

val two53 : float
(** [2.0 ** 53.0], the scale of {!unit_bits}. *)

val below : t -> float -> bool
(** [below t p] consumes one draw and is [float t 1.0 < p], decided
    bit-for-bit identically but without boxing the comparand.  Unlike
    {!bernoulli} it {e always} advances the generator, even for [p]
    outside [(0, 1)]. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p] (clamped to [0,1]). *)

val geometric : t -> float -> int
(** [geometric t p] samples the number of failures before the first success
    of a Bernoulli(p) process; returns 0 when [p >= 1.0].
    @raise Invalid_argument if [p <= 0.]. *)

val exponential : t -> float -> float
(** [exponential t mean] samples an exponential with the given mean. *)

val zipf : t -> n:int -> s:float -> int
(** [zipf t ~n ~s] samples ranks in [\[1, n\]] with probability proportional
    to [1 / rank**s], by inversion over a precomputed table-free scheme
    (rejection-inversion of Hörmann and Derflinger). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
