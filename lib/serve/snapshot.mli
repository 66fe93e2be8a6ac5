(** Version-tagged service snapshots: the events ingested plus the
    controller's {!Rs_core.Reactive.export_words}, closed by an FNV-1a
    checksum of every byte before it.

    A server restored from a snapshot and fed the remaining event
    suffix reaches a state byte-identical to one that ingested the
    whole stream; in particular, re-encoding its state yields the same
    bytes.  Version 2 holds one controller; a version-1 snapshot (one
    table per shard, from the sharded server) is refused. *)

type t = {
  n_branches : int;
  events : int;  (** Events ingested when the snapshot was taken. *)
  words : int array;
      (** {!Rs_core.Reactive.export_words} of the controller; [words.(0)],
          its cursor, is the stream position (instruction count), or
          [min_int] before the first event. *)
}

val version : int

val encode : t -> string

val decode : string -> (t, string) result
(** Refuses a wrong magic or version, a checksum mismatch (so any one
    changed byte), and a length that disagrees with the word count.
    The words themselves are checked by
    {!Rs_core.Reactive.import_words} at restore. *)

val save : path:string -> t -> unit
(** Atomic and durable: writes [path ^ ".tmp"], fsyncs it, then renames
    it over [path].  On failure the exception is re-raised and the
    [.tmp] file is removed. *)

val load : path:string -> (t, string) result
