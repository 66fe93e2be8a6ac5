external trim : unit -> unit = "rs_util_malloc_trim" [@@noalloc]
