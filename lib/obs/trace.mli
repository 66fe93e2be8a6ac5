(** Structured run tracing: one JSON object per line (JSONL).

    A process has at most one sink.  With no sink installed every [emit]
    is a no-op behind a single atomic load, and the instrumented layers
    additionally guard with {!enabled} so no event (or field list) is
    even allocated — tracing costs nothing when off.

    Event schema: every line is a flat JSON object with an ["ev"] tag
    first, then the fields the emitting layer passed, in order.  The
    suite emits:

    - ["transition"] — controller state-machine transitions:
      [label] (benchmark), [branch], [kind] (selected / declared-unbiased
      / evicted / revisited / capped), [instr], [exec_index].  These
      carry no wall-clock so equal-seed runs produce byte-identical
      transition streams.
    - ["engine_run"] — one per simulator run: [label], [events],
      [instructions], [correct], [incorrect], [wall_s].
    - ["task"] — pool task lifecycle: [event] (start/stop), [domain],
      [index].
    - ["cache"] — artifact-cache lookups: [kind] (build / profile / run),
      [outcome] (hit / miss / retry), [bench].
    - ["build"] — population builds: [bench], [input], [seed], [scale],
      [tau].
    - ["fault"] — injected faults ({!Rs_fault}): [site], [key],
      [attempt], [action] (raise / delay).
    - ["experiment"] — an experiment of [rspec all] that failed and was
      isolated: [name], [error]. *)

type field =
  | I of string * int
  | F of string * float  (** non-finite values are emitted as [null] *)
  | S of string * string
  | B of string * bool

exception Error of string
(** Raised by {!to_file} when the path cannot be opened, carrying a
    human-readable message (the CLI turns it into a clean error instead
    of an uncaught [Sys_error] backtrace). *)

val to_file : string -> unit
(** Open [path] (truncating) and route events to it, replacing any
    previous sink.  Raises {!Error} if the path cannot be opened.
    Installing a sink registers one [at_exit] flush, so even a run that
    dies of an uncaught exception keeps the tail of its trace. *)

val enabled : unit -> bool
(** Whether a sink is installed.  Call sites check this before building
    an event so disabled tracing allocates nothing. *)

val emit : string -> field list -> unit
(** [emit ev fields] writes [{"ev":ev, ...fields}] as one line.  Lines
    from concurrent domains never interleave.  A write failure (real or
    injected) drops the whole line — never a partial one — and bumps
    the [trace.dropped] metric.  No-op when disabled. *)

val stop : unit -> unit
(** Flush, close and uninstall the sink.  Idempotent. *)

val add_json_string : Buffer.t -> string -> unit
(** Append [s] as a JSON string literal: quoted, with quotes,
    backslashes and control characters escaped.  The trace sink, the
    registry's JSON export and the bench harness's JSON share it. *)

val now : unit -> float
(** Wall-clock seconds (epoch); the one clock the suite stamps
    [engine_run] events with. *)
