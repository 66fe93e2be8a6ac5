(** The C allocator under the OCaml heap. *)

external trim : unit -> unit = "rs_util_malloc_trim" [@@noalloc]
(** Hand the free memory of every malloc arena back to the operating
    system ([malloc_trim(0)] on glibc; a no-op elsewhere).  glibc keeps
    freed memory in per-thread arenas, so after a large release — the
    artifacts a {!Memo.clear} dropped, once collected — a domain that
    next allocates in another arena would grow the process's resident
    set instead of reusing it. *)
