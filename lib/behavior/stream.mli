(** Dynamic branch-event streams.

    A stream interleaves executions of the branches in a population
    (weighted sampling), samples each outcome from the branch's behaviour
    model, and maintains a global instruction counter (branches are one
    out of every [instr_per_branch] instructions, matching the paper's
    SPECint rates of roughly one conditional branch per 5-8
    instructions).

    Streams are fully deterministic in the seed: the same
    [(population, seed, instr_per_branch)] triple always produces the same
    event sequence.  The seed's generator is split once for the branch
    draws ({!Alias}) and then once per branch, in id order, for that
    branch's outcomes ({!Sampler}), so a branch's outcomes do not depend
    on how the others interleave.  Consumers read streams as packed
    chunks through {!Trace_store.iter_chunks}, which runs the one
    generator loop live or iterates a recording of it. *)

type config = {
  seed : int;
  instr_per_branch : float;  (** Mean instructions per branch event; finite and >= 1. *)
  length : int;  (** Number of branch events to generate. *)
}

val total_instructions : config -> int
(** Instruction count the stream reaches, [length * instr_per_branch]
    rounded. *)

(** O(1) weighted sampling (Vose's alias method): the stream's branch
    draws, and the MSSP model's region draws. *)
module Alias : sig
  type t

  val of_weights : float array -> t
  (** A sampler over indices [0 .. n-1] of [n] weights, each of which
      must be positive and finite (the check {!Population.create}
      makes). *)

  val draw : t -> Rs_util.Prng.t -> int
  (** Sample an index with probability proportional to its weight. *)

  val pick : i:int -> alias:int -> threshold:int -> int -> int
  (** The acceptance step of a draw: [pick ~i ~alias ~threshold u] is
      [if u < threshold then i else alias], computed without a branch on
      the comparison, for uniform bits [u] in [\[0, 2^53)] and a
      {!Rs_util.Prng.threshold} in [\[-1, max_int\]]. *)
end

(** The one path every branch outcome is drawn through, the stream's and
    the MSSP model's.  It keeps each branch's generator state, execution
    count, probability (as a {!Rs_util.Prng.threshold}) and next change
    points ({!Behavior.exec_change}, {!Behavior.instr_change}) in one
    flat [int array], and consults {!Behavior.p_taken} only at a change
    point.  Its outcomes are those of [Prng.bernoulli] of [p_taken] on
    each branch's own generator, draw for draw. *)
module Sampler : sig
  type t

  val create : Behavior.t array -> Rs_util.Prng.t -> t
  (** [create models root]: branch [b]'s generator is the [b]-th
      {!Rs_util.Prng.split} of [root]. *)

  val next : t -> int -> instr:int -> bool
  (** [next s b ~instr] is the outcome of branch [b]'s next execution
      (its execution index counts the earlier calls for [b]) at global
      instruction [instr], which must not decrease from call to call.
      @raise Invalid_argument if [b] is not a branch of [s]. *)

  val rng_state : t -> int -> int
  (** The raw {!Rs_util.Prng.state} of branch [b]'s generator. *)
end

(**/**)

val validate : caller:string -> config -> unit
(** Shared entry-point guard: raises [Invalid_argument] naming [caller]
    on a non-positive length or an [instr_per_branch] that is not finite,
    is below 1, or makes instruction deltas too wide to pack.  For
    in-library consumers ({!Trace_store}) that front the generator under
    their own name. *)

(** The event word {!Trace_store} documents. *)

val max_delta : int
val branch_shift : int
val pack : branch:int -> delta:int -> taken:bool -> int
val packed_branch : int -> int
val packed_taken : int -> bool
val packed_delta : int -> int

val generate :
  Population.t -> config -> buf:int array -> emit:(int array -> int -> int array) -> unit
(** The one generator loop: packs [config.length] events into [buf],
    handing each full buffer, and the partial rest, to [emit], which
    returns the buffer to fill next.  It checks no event: the config
    must have passed {!validate}. *)
