(** Dynamic branch-event streams.

    A stream interleaves executions of the branches in a population
    (weighted sampling), samples each outcome from the branch's behaviour
    model, and maintains a global instruction counter (branches are one
    out of every [instr_per_branch] instructions, matching the paper's
    SPECint rates of roughly one conditional branch per 5-8
    instructions).

    Streams are fully deterministic in the seed: the same
    [(population, seed, instr_per_branch)] triple always produces the same
    event sequence.  Consumers read streams as packed chunks through
    {!Trace_store.iter_chunks}, which packs this generator's events live
    or iterates a recording of them. *)

type config = {
  seed : int;
  instr_per_branch : float;  (** Mean instructions per branch event; >= 1. *)
  length : int;  (** Number of branch events to generate. *)
}

val iter_raw :
  Population.t ->
  config ->
  (branch:int -> taken:bool -> exec_index:int -> instr:int -> unit) ->
  int array
(** Generate [config.length] events in order, delivering each as plain
    integers, and return the per-branch execution totals.  The loop
    allocates nothing per event — no event record, no boxed float.
    @raise Invalid_argument on a non-positive length or an
    [instr_per_branch < 1]; the message names [Stream.iter_raw]. *)

val total_instructions : config -> int
(** Instruction count the stream reaches, [length * instr_per_branch]
    rounded. *)

(**/**)

val validate : caller:string -> config -> unit
(** Shared entry-point guard: raises [Invalid_argument] naming [caller]
    on a config the generator rejects.  For in-library consumers
    ({!Trace_store}) that front the generator under their own name. *)
