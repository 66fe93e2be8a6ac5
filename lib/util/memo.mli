(** Domain-safe memo tables for shared artifacts.

    One module memoises everything the experiment suite shares: built
    populations, profiles, engine runs, MSSP runs and their tapes
    ([Rs_experiments.Cache]) and packed branch traces
    ([Rs_behavior.Trace_store]).  A memo maps keys to values computed
    at most once each:

    - {b In-flight sharing.}  Concurrent requests for one key run its
      compute body once; latecomers wait until it publishes.
    - {b Bounded retry.}  A body that raises is run again in place, up
      to {!retry_limit} attempts in all (each retry counted in
      [<name>.retries]), so a transient failure — an I/O blip, an
      injected fault whose plan lets retries succeed — never poisons a
      key.  Only an exhausted failure is published; later lookups, and
      waiters, re-raise it without recomputing.
    - {b A byte budget.}  Each value weighs [size v] bytes; whenever the
      published values weigh more than the budget, the least recently
      used are evicted.  The default budget is unbounded.
    - {b Safe clearing.}  {!clear} bumps a generation the compute
      bodies check before publishing, so a value computed before a
      clear serves its own caller but never lands in the cleared table.

    {b Waiting.}  Every latecomer, on whatever domain, parks on the
    memo's condition until the key publishes; it runs nothing else
    meanwhile.  Parking cannot deadlock as long as every memo's compute
    bodies keep one rule: {e no body waits on its own layer or a higher
    one, and no body maps on a pool.}  The layers, lowest first:
    builds, traces and MSSP tapes wait on nothing; profiles and engine
    runs wait only on builds and traces; MSSP runs wait only on MSSP
    tapes.  A parked domain therefore waits on a body that waits only
    on lower layers, and the chain ends.

    {b Observability.}  A memo named [name] feeds the
    [<name>.hits] / [.misses] / [.retries] / [.evictions] / [.waits]
    (latecomers parked on an in-flight key) counters and
    the [<name>.bytes] / [.entries] gauges of {!Rs_obs.Metrics}, and,
    when tracing is on, emits a ["memo"] {!Rs_obs.Trace} event per
    lookup, retry and eviction, tagged with the memo's name, the
    outcome and the caller's label. *)

type ('k, 'v) t

val create : ?budget:int -> ?size:('v -> int) -> string -> ('k, 'v) t
(** [create name] is an empty memo whose metrics are prefixed [name].
    [size] (default [fun _ -> 0]) weighs a published value; [budget]
    (default unbounded) caps the bytes held. *)

val find_or_compute : ('k, 'v) t -> label:string -> 'k -> (unit -> 'v) -> 'v
(** The value for [key], computing it with [f] on a miss.  [label]
    names the lookup in trace events.  A published value is final: it
    stays until evicted or {!clear}ed.
    @raise the exception of the body's last attempt once
    {!retry_limit} attempts have failed, and on every later lookup of
    that key until {!clear}. *)

val find_if_fits :
  ('k, 'v) t -> label:string -> bytes:int -> 'k -> (unit -> 'v) -> 'v option
(** {!find_or_compute} for a value known to weigh [bytes]: [None],
    counted as a miss and without running [f], when [bytes] exceeds the
    budget and [key] holds no published value. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;  (** values currently published *)
  bytes : int;  (** their total [size] *)
}

val stats : ('k, 'v) t -> stats
(** Counters since the last {!clear} (or creation). *)

val set_budget : ('k, 'v) t -> int -> unit
(** Negative values are clamped to 0; shrinking evicts immediately. *)

val clear : ('k, 'v) t -> unit
(** Drop every entry and zero the counters.  Bodies in flight complete
    for their own callers but publish nothing; their waiters wake,
    find the key gone and compute it afresh. *)

(** {1 Retry} *)

val retry_limit : unit -> int
(** Total attempts, the first included, that {!find_or_compute} and
    {!retry} give a body.  Default 3. *)

val set_retry_limit : int -> unit
(** Change {!retry_limit}; values below 1 are clamped to 1. *)

val retry : (unit -> 'a) -> 'a
(** [retry f] runs [f] up to {!retry_limit} times, until one attempt
    returns, and re-raises the last attempt's exception otherwise: the
    retry rule of {!find_or_compute} for work that is not memoised. *)
