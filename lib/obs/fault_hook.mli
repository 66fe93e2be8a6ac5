(** The one fault-injection point.

    Every injection site — the pool, the trace sink, the trace store,
    the distiller, the artifact cache and the service — consults
    [Rs_fault]'s plan through this hook, which [Rs_fault.Fault.configure]
    points at [Rs_fault.Fault.hit] and [disable] points back at a no-op,
    so none of those layers depends on [Rs_fault].  Sites keep their
    names (["pool.task"], ["cache.build"], ["serve.read"], ...), so a
    plan's schedule is the same whichever layer consults it. *)

val hook : (site:string -> key:string -> unit) ref
(** The current consult function; the default is a no-op.  Not for
    general use — install [Rs_fault.Fault] plans via its [configure]. *)

val hit : site:string -> key:string -> unit
(** [!hook ~site ~key]: pass, sleep, or raise as the installed plan
    schedules. *)
