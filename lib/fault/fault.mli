(** Deterministic, seed-driven fault injection.

    The paper's thesis is that reactive control beats assuming good
    behaviour; the same applies to the runner that reproduces it.  This
    module turns named injection {e sites} threaded through the
    concurrency layer — the artifact cache's compute bodies
    (["cache.build"], ["cache.profile"], ["cache.run"]), the domain pool
    (["pool.task"], ["pool.worker_start"]), the trace sink
    (["trace.write"]), the packed trace store's recorder
    (["trace_store.record"]), the distiller's pipeline passes
    (["distill.pass"]) and the online service ({!Rs_serve},
    ["serve.accept"], ["serve.read"], ["serve.apply"]) — into raises
    and delays scheduled by a {!plan}.

    The action at a site is a pure function of
    [(plan seed, site, key, attempt)], where [attempt] counts how many
    times that [(site, key)] pair has been consulted: a failure schedule
    is therefore replayable — the same spec injects the same faults at
    the same attempts regardless of how domains interleave or what
    [--jobs] is — and a bug found under seed S reproduces under seed S.

    With no plan configured (the default) a site costs one atomic load.

    Dependency note: every site — the pool, the trace sink, the trace
    store, the distiller, the artifact cache and the service — consults
    {!Rs_obs.Fault_hook}, which {!configure} points at {!hit}, so this
    library depends on nothing above {!Rs_util} and {!Rs_obs}, and none
    of those layers depends on it. *)

type plan = {
  seed : int;  (** root of the per-[(site, key, attempt)] decision streams *)
  rate : float;  (** probability an eligible consult raises *)
  delay : float;  (** probability an eligible consult sleeps instead *)
  delay_us : int;  (** maximum sleep, microseconds *)
  sites : string list;
      (** site prefixes eligible to raise; [[]] means all sites *)
  delay_sites : string list;
      (** site prefixes eligible to delay; [[]] means all sites *)
  max_raises : int;
      (** per-[(site, key)] raise budget; once spent, further raise draws
          pass.  Every memo compute body ({!Rs_util.Memo}) consults
          one raising site, so a plan with
          [max_raises < Rs_util.Memo.retry_limit ()] lets every retry
          eventually succeed *)
}

exception Injected of { site : string; key : string; attempt : int }
(** Raised by {!hit} when the plan schedules a fault at this consult. *)

val parse_spec : string -> (plan, string) result
(** Parse a comma-separated [key=value] spec, e.g.
    ["seed=7,rate=0.4,max_raises=2,sites=cache,delay=0.2,delay_sites=pool:trace"].
    Site lists are colon-separated prefixes.  Unknown keys and malformed
    values are reported, not ignored.  A key left out keeps its
    default: seed 1, every site eligible, [rate] and [delay] 0,
    unlimited raises. *)

val configure : plan -> unit
(** Install [plan], clear the attempt/raise history and point
    {!Rs_obs.Fault_hook} at {!hit}. *)

val configure_spec : string -> (unit, string) result
(** {!parse_spec} then {!configure}. *)

val env_var : string
(** ["RS_FAULTS"]. *)

val configure_from_env : unit -> (unit, string) result
(** {!configure_spec} on [$RS_FAULTS] when set and non-empty; [Ok ()]
    otherwise. *)

val disable : unit -> unit
(** Stop injecting and restore the no-op {!Rs_obs.Fault_hook}.  The attempt history is
    kept until the next {!configure} or {!reset}. *)

val enabled : unit -> bool

val reset : unit -> unit
(** Forget every [(site, key)] attempt and raise count, so a subsequent
    run replays the plan's schedule from the start. *)

val hit : site:string -> key:string -> unit
(** Consult the plan at [site] for [key]: pass, sleep, or raise
    {!Injected}.  Each consult bumps the [(site, key)] attempt counter;
    injected raises and delays feed the [fault.injected] /
    [fault.delayed] metrics and, when tracing is on, emit a ["fault"]
    trace event (except at ["trace.write"] itself, which would recurse).
    No-op when disabled. *)

val injected : unit -> int
(** Total faults raised since the metrics registry was last reset. *)
