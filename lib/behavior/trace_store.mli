(** Packed branch traces: the one event format every consumer reads.

    Events are packed one per immediate integer — branch id, taken bit
    and instruction delta — into fixed-size [int array] chunks with no
    per-event boxing.  Every consumer (the simulator, the profilers, the
    track collectors) reads a stream through {!iter_chunks}, which
    either iterates a recorded trace or runs the {!Stream} generator and
    packs its events into one reused chunk buffer.  Both hand the
    consumer the same chunks, word for word, so a consumer's result does
    not depend on which source fed it; a live pass holds one chunk at a
    time, a recording the whole stream.

    A recording of a generated stream stores each event in a 2-byte
    cell when the population has at most 4,096 branches and
    [ceil instr_per_branch] is at most 7 (every benchmark at every
    scale the experiments run): a quarter of the word's 8 bytes.  Any
    other recording, and every {!of_events} trace, keeps the words.
    The cells are a storage format, not a second event format: word
    consumers get each cell chunk decoded into one reused buffer, and
    only a consumer that asks for cells ({!iter_chunks}'s [cells], the
    batched engine's) reads them in place.

    A recording ({!record}) pays off when the same stream is evaluated
    under many controller parameters (the figure5/table3/table4 sweeps,
    the ablations): the generator runs once and every later pass decodes
    flat memory.  A stream read only once (the experiments' Train
    streams) is cheaper generated live: recording it costs the
    generation plus the memory, and in the LRU it would crowd out
    recordings that are read again.  A process-global, capacity-bounded LRU ({!cached})
    shares recordings across consumers, keyed on a caller-supplied
    population key plus the stream config.  It is one
    {!Rs_util.Memo} named ["trace_store"], so it shares that module's
    in-flight sharing, bounded retry, parked waits and
    [trace_store.*] metrics with the experiment cache's memos.  Capacity
    defaults to {!default_capacity_mb} MB and is set with
    {!set_capacity_bytes} (the CLI's [--trace-cache-mb]); a stream whose
    recording cannot fit — every stream, at capacity 0 — is not
    recorded, and its consumers generate it live.

    Recording consults the ["trace_store.record"] fault-injection site
    through {!Rs_obs.Fault_hook}. *)

type t
(** An immutable packed trace. *)

val record : Population.t -> Stream.config -> t
(** Run the stream generator once and keep every packed chunk, as
    cells when the population and config are narrow enough (above),
    as words otherwise.  @raise
    Invalid_argument on a config the generator rejects, or on one whose
    events cannot be packed (a [ceil instr_per_branch] of 2^20 or more),
    before any chunk is allocated. *)

val of_events :
  n_branches:int ->
  config:Stream.config ->
  ((branch:int -> taken:bool -> instr:int -> unit) -> unit) ->
  t
(** Pack an explicit event sequence that did {e not} come from a
    {!Stream} generator — merged multi-context streams, hand-built
    schedules.  [of_events ~n_branches ~config emit] calls [emit] once
    with a push function the caller must invoke exactly [config.length]
    times, in stream order, with non-decreasing [instr]; consumers
    reconstruct [exec_index] per branch while decoding, exactly as for
    a recording.  The result feeds every consumer of packed traces
    (including the batched engine path) like a recorded trace whose
    population has [n_branches] branches.
    @raise Invalid_argument on an out-of-range branch id, a decreasing
    or >= 2^20 instruction delta, an event count different from
    [config.length], or a config the generator would reject. *)

val config : t -> Stream.config
val n_branches : t -> int
val length : t -> int
(** Number of events; equals [(config t).length]. *)

val bytes : t -> int
(** Heap footprint of the recorded chunks, cells or words (the unit of
    LRU accounting): about 2 bytes per event for a cell recording, 8
    for a word one. *)

(** {2 Chunked access}

    Events are packed one per integer: bit 0 is the taken flag, bits
    1-20 the instruction delta, the remaining bits the branch id.  A
    chunk consumer [f chunk len] is called for each chunk in order; only
    the first [len] entries of a chunk are live.  Every chunk but the
    last holds exactly {!chunk_size} events.  The chunk array belongs to
    the source: a consumer must not keep it past the call (a live
    source and a cell recording both refill one buffer).

    A cell chunk is a [Bytes.t] whose event [i] is the native-endian
    16-bit value at byte [2 * i]: bits 0-3 are the word's bits 0-3 (the
    taken flag and a delta below 8), bits 4-15 its branch id. *)

val chunk_size : int

val iter_chunks :
  ?caller:string ->
  ?trace:t ->
  ?cells:(Bytes.t -> int -> unit) ->
  Population.t ->
  Stream.config ->
  (int array -> int -> unit) ->
  unit
(** The one chunk source.  With [trace], iterate its recorded chunks;
    without, run the generator for [(population, config)] and hand over
    its events packed into one reused buffer of at most {!chunk_size}
    words, so memory stays bounded by one chunk.  The chunks are
    identical word for word either way.  When [trace] is a cell
    recording and [cells] is given, [cells] gets each recorded cell
    chunk in place of [f]: the same events, undecoded.  [caller] (default
    ["Trace_store.iter_chunks"]) names the entry point in errors.
    @raise Invalid_argument if [trace] was recorded for a different
    config or population size, or on a config the generator rejects or
    whose events cannot be packed. *)

val iter_packed : t -> (int array -> int -> unit) -> unit
(** The recorded chunks of a trace, in order, as words: a cell
    recording's chunks decoded one at a time into one reused buffer. *)

val packed_branch : int -> int
val packed_taken : int -> bool
val packed_delta : int -> int

(** {2 The process-global LRU}

    A {!Rs_util.Memo} whose values weigh their recorded {!bytes} and whose
    budget is the capacity.  A recording is a compute body of that memo:
    concurrent requests for one key record it once, a failed recording
    (an injected [trace_store.record] fault, say) is retried in place up
    to {!Rs_util.Memo.retry_limit} attempts, and a latecomer parks until
    the recording publishes.  Recording waits on nothing, as the memo
    wait rule requires (see {!Rs_util.Memo}). *)

val cached : key:string -> Population.t -> Stream.config -> t option
(** The trace for [(key, config)], recording it on a miss, or [None]
    without recording when a recording of [config] would exceed the
    capacity (always, at capacity 0; the size is known before recording,
    cells or words): the caller then passes no trace and its
    consumers generate the stream live.  [key] must identify the
    population (equal keys with equal configs must mean identical
    streams — the caller's contract).  Entries are evicted
    least-recently-used first whenever the recorded bytes held exceed the
    capacity.
    @raise the recording's exception once every retry has failed. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;  (** traces currently held *)
  bytes : int;  (** recorded bytes currently held *)
}

val stats : unit -> stats

val default_capacity_mb : int

val set_capacity_bytes : int -> unit
(** Negative values are clamped to 0; shrinking evicts immediately. *)

val clear : unit -> unit
(** Drop every cached trace and zero the hit/miss/eviction counters
    ({!Rs_util.Memo.clear}). *)
