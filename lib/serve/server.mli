(** The long-lived speculation-control service.

    A single-threaded I/O loop owns one {!Rs_core.Reactive} controller.
    Each events frame is validated (every branch id in range) and then
    handed to {!Rs_core.Reactive.step_chunk} as the decoder delivered
    it, so a bad frame changes nothing and requests are answered in
    arrival order: a QUERY sees every frame sent before it applied.

    Fault sites consulted through {!Rs_obs.Fault_hook}: [serve.accept]
    (key: connection id; an injected raise drops the new connection),
    [serve.read] (key: connection id; disconnects the client exactly
    like a peer dying mid-frame), and [serve.apply] (key: the frame's
    offset in the event stream; consulted once per events frame before
    it is stepped, a raise stalls the frame, which is retried — events
    are applied exactly once, so chaos plans perturb timing but never
    results). *)

type transport =
  | Unix_socket of string
      (** Listen on a Unix-domain socket at this path (unlinked first if
          present, and on shutdown). *)
  | Fd_pair of Unix.file_descr * Unix.file_descr
      (** Serve one connection reading the first fd (closed when the
          connection ends), writing the second: [rspec serve --stdio]
          passes stdin and stdout, the tests a [socketpair]. *)

type config = {
  params : Rs_core.Params.t;
  n_branches : int;
  transport : transport;
  snapshot_path : string option;
      (** When set: restored from at startup if the file exists (the
          snapshot's branch count must match), and rewritten atomically
          on every [Snapshot] request. *)
}

val run : config -> unit
(** Serve until a [Shutdown] request arrives — or, on a single-connection
    transport, until the peer closes its end.  Ignores [SIGPIPE]
    process-wide.  Raises [Invalid_argument] on nonpositive
    [n_branches], and [Failure] if a configured snapshot exists but
    cannot be restored: unreadable, of another version, failing its
    checksum, taken with another branch count, or holding a controller
    state that {!Rs_core.Reactive.validate_words} rejects. *)
