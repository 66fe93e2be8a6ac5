(** Small filesystem helpers for the export paths. *)

val write_file : string -> string -> string -> string
(** [write_file dir filename contents] creates [dir] and any missing
    parents, like [mkdir -p], writes [contents] to [dir/filename]
    (replacing any previous file) and returns that path.  Every
    [rspec run --out] export goes through it.  Creating the directory
    tolerates concurrent creation: losing a [mkdir] race to another
    domain or process is not an error as long as the directory exists
    afterwards.
    @raise Sys_error when creation genuinely fails (permissions, or a
    path component exists as a regular file). *)
