(** Shared-queue domain pool.

    A pool owns [jobs - 1] worker domains and one queue of open maps.
    Each {!map_range} call is a job: an atomic cursor over its elements
    that hands out one per claim.  The caller of
    {!map_range}/{!map_ordered} is the remaining executor — it claims its
    own elements first, then helps — so a pool sized [jobs] computes
    with exactly [jobs]-way parallelism and a pool sized 1 never spawns a
    domain at all (maps degenerate to strict left-to-right [Array.map],
    byte-for-byte).  Idle domains take the next element of the newest open
    job: open maps are the pool's one source of work.

    Results are always joined in input order: a pure element function
    makes any map equivalent to its sequential form regardless of
    [jobs], the property the experiment layer relies on for its
    [--jobs]-independence guarantee.

    Nested use is supported: a task may itself map on the same pool.
    While a caller waits for its results it helps — running elements of
    the newest open map — so nesting adds no deadlock and wastes no
    worker.  That join is the pool's only help-while-waiting: a task
    that waits on anything else (a {!Memo} key another domain is
    computing) parks its domain.

    Lifecycle: a pool is live from {!create} until {!close} completes.
    Mapping on a closed pool raises {!Closed} rather than silently
    running caller-only; closing a pool with maps in flight defers the
    shutdown until the last of them finishes.

    Fault injection: each {!map_ordered} element consults the
    ["pool.task"] site and
    each starting worker ["pool.worker_start"] through
    {!Rs_obs.Fault_hook}.  An injected raise fails the element
    (re-raised by the map like any task error) or kills the starting
    worker (the pool degrades to fewer helpers, counted in
    [pool.worker_failures]). *)

type t

exception Closed
(** Raised by the mapping functions on a pool whose {!close} has
    completed. *)

val create : ?jobs:int -> unit -> t
(** [create ~jobs ()] spawns [jobs - 1] worker domains.  [jobs] defaults
    to {!Domain.recommended_domain_count}; values below 1 are clamped to
    1.  Pools are independent; prefer {!shared} for the process-wide
    one. *)

val map_range : t -> lo:int -> hi:int -> (int -> 'a) -> 'a array
(** [map_range t ~lo ~hi f] computes [[| f lo; …; f (hi - 1) |]],
    handing [lo, hi) out to the pool's domains one element at a time.
    Every element run counts in the [pool.tasks] metric, on every pool
    including [jobs = 1].  Returns
    [[||]] when [hi <= lo].  On a [jobs = 1] pool the range runs
    strictly left to right in the calling domain.

    Error aggregation: if any application raises, the exception of the
    {e lowest-indexed} failing element is re-raised in the caller after
    all scheduled work settles (deterministic regardless of which
    executor failed first), with the {e original} backtrace preserved
    via [Printexc.raise_with_backtrace].  Additional failures are
    counted in the [pool.suppressed_failures] metric rather than
    silently discarded.  The pool remains usable after a failed map.
    Raises {!Closed} if the pool has been shut down and the range is
    not empty. *)

val map_ordered : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map_ordered t f arr] applies [f] to every element through
    {!map_range} and returns the results in input order.
    Adds the per-element observability of the experiment runner, on
    every pool including [jobs = 1]: a [pool.task] fault-injection site
    keyed by index and task start/stop trace events.  Same error
    contract as {!map_range}. *)

val close : t -> unit
(** Shut the workers down and join their domains.  Called while maps are
    in flight, it retires the pool instead: those maps (and their nested
    maps) run to completion, the last one's epilogue performs the
    shutdown, and only then do new maps raise {!Closed}.  Idempotent. *)

val shared : jobs:int -> t
(** The process-wide pool, created on first use.  Asking for a different
    [jobs] than the live shared pool has closes it (deferring while it
    still has maps in flight, so a caller holding the old pool keeps a
    working one) and creates a fresh pool, so a long-lived process
    follows the most recent request. *)

(** {1 Observability} *)

type stats = {
  tasks : int;  (** map elements run *)
  shared : int;  (** elements run by a domain other than their map's caller *)
  worker_failures : int;
  suppressed_failures : int;
}

val stats : unit -> stats
(** Process-wide scheduler counters (the [pool.*] metrics of
    {!Rs_obs.Metrics}, summed over every pool). *)

