(** Version-tagged service snapshots: packed stream position plus the
    int-encoded controller state table of every shard.

    A server restored from a snapshot and fed the remaining event
    suffix reaches a state byte-identical to one that ingested the
    whole stream; in particular, re-encoding its state yields the same
    bytes.  Snapshots record the shard count they were taken at and can
    only be restored into a server with the same [--shards] (re-sharding
    would need a full replay, which the wire protocol already covers). *)

type t = {
  n_branches : int;
  shards : int;
  events : int;  (** Events ingested when the snapshot was taken. *)
  last_instr : int;  (** Global stream position (instruction count). *)
  shard_state : int array array;
      (** Per shard, {!Rs_core.Reactive.export_words} of its table. *)
}

val version : int

val encode : t -> string
val decode : string -> (t, string) result

val save : path:string -> t -> unit
(** Atomic and durable: writes [path ^ ".tmp"], fsyncs it, then renames
    it over [path].  On failure the exception is re-raised and the
    [.tmp] file is removed. *)

val load : path:string -> (t, string) result
