(** The one fault-injection point of the layers below [Rs_fault].

    The pool, the trace sink, the trace store and the distiller sit
    below [Rs_fault] in the dependency graph, so they consult its
    injection sites through this hook, which [Rs_fault.Fault.configure]
    points at [Rs_fault.Fault.hit] and [disable] points back at a no-op.
    Sites keep their names (["pool.task"], ["pool.worker_start"],
    ["trace.write"], ["trace_store.record"], ["distill.pass"]), so a
    plan's schedule is the same whichever layer consults it. *)

val hook : (site:string -> key:string -> unit) ref
(** The current consult function; the default is a no-op.  Not for
    general use — install [Rs_fault.Fault] plans via its [configure]. *)

val hit : site:string -> key:string -> unit
(** [!hook ~site ~key]: pass, sleep, or raise as the installed plan
    schedules. *)
