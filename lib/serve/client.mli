(** Blocking client for the speculation-control service.

    Events frames are fire-and-forget (the server only replies to them
    on error, by closing the connection), so ingest pipelines at socket
    bandwidth; {!flush} is the barrier that waits until everything sent
    so far has been applied.  All other requests are synchronous
    request/reply. *)

type t

val connect : string -> t
(** Connect to a server's Unix-domain socket path. *)

val of_fd : Unix.file_descr -> t
(** Wrap an already-connected descriptor (e.g. one end of a
    [socketpair] facing an {!Server.Fd_pair} server). *)

val close : t -> unit
(** Close the descriptor.  Idempotent. *)

val fd : t -> Unix.file_descr

val send_events : t -> int array -> unit
(** Ship packed {!Rs_behavior.Trace_store} event words, split into
    frames of at most {!Protocol.max_frame_words}.  No reply is read. *)

val send_trace : t -> Rs_behavior.Trace_store.t -> unit
(** Ship a recorded trace chunk-by-chunk — the packed chunks go over
    the wire verbatim, no per-event re-encoding. *)

val flush : t -> int
(** Barrier: returns the server's total ingested-event count once every
    previously sent event is applied.
    @raise Failure on a server error reply. *)

val query : t -> int -> (int, string) result
(** Deployed 2-bit decision code for a branch, or the server's error
    message (out-of-range branch). *)

val stats : t -> string
(** Server counters as a JSON document. *)

val snapshot : t -> string
(** The server's full serialized state ({!Snapshot} bytes); also
    written to the server's [--snapshot] path when configured. *)

val shutdown : t -> int
(** Graceful server stop; returns the final ingested-event count. *)
