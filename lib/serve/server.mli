(** The long-lived speculation-control service.

    A single-threaded I/O loop demultiplexes validated event frames to
    one worker domain per shard; shard [i] owns branches
    [b mod shards = i] with its own packed {!Rs_core.Reactive} table, so
    there are no cross-shard locks and QUERY answers are byte-identical
    at any shard count (see {!Shard}).

    Fault sites consulted through {!Rs_obs.Fault_hook}: [serve.accept]
    (key: connection id; an injected raise drops the new connection),
    [serve.read] (key: connection id; disconnects the client exactly
    like a peer dying mid-frame), and [serve.shard] (key: shard index;
    stalls a batch, which is retried — events are applied exactly once,
    so chaos plans perturb timing but never results). *)

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
  shards : int;  (** Clamped to [n_branches]. *)
  transport : transport;
  snapshot_path : string option;
      (** When set: restored from at startup if the file exists (the
          snapshot's branch and shard counts must match), and rewritten
          atomically on every [Snapshot] request. *)
}

val run : config -> unit
(** Serve until a [Shutdown] request arrives — or, on a single-connection
    transport, until the peer closes its end.  Ignores [SIGPIPE]
    process-wide.  Raises [Invalid_argument] on nonpositive [n_branches]
    or [shards], and [Failure] if a configured snapshot exists but
    cannot be restored: unreadable, taken with other branch or shard
    counts, or holding a controller state that
    {!Rs_core.Reactive.validate_words} rejects. *)
