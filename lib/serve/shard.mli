(** One shard of the online service's controller state.

    Branch [b] is owned by shard [b mod shards] with local id
    [b / shards]: a dense, independent
    {!Rs_core.Reactive} state table per shard.  The controller FSM for a
    branch reads only that branch's own packed state words, so the
    partition is exact — the deployed decision for a branch depends only
    on the (order-preserved) subsequence of events at that branch — and
    shards need no cross-shard locks: QUERY answers are byte-identical
    at any shard count.

    The per-shard mutex serialises [apply] (the owning worker, one
    bounded batch at a time) against [query]/[export]/[import] (the I/O
    loop), which is what bounds query latency under ingest load to at
    most one 32k-event batch. *)

type t

val create : params:Rs_core.Params.t -> n_branches:int -> shards:int -> index:int -> t
(** @raise Invalid_argument if the index is out of range or the shard
    would own no branches (callers clamp [shards <= n_branches]). *)

val apply : t -> ev:int array -> instr:int array -> len:int -> int
(** Apply the first [len] demultiplexed events: [ev.(i)] packs
    [local_branch lsl 1 lor taken], [instr.(i)] is the absolute global
    instruction count.  Events must arrive in stream order.  Returns the
    batch's busy time in nanoseconds, by the monotonic clock, which is
    also added to {!busy_ns}. *)

val query : t -> local:int -> int
(** Deployed 2-bit decision code for a local branch id. *)

val export : t -> int array
(** {!Rs_core.Reactive.export_words} under the shard lock. *)

val import : t -> int array -> unit

val index : t -> int
val owned : t -> int

(** Worker-written stats, read racily by the stats renderer. *)

val events : t -> int
val batches : t -> int
val busy_ns : t -> int
