(** Hot-path extraction under branch assumptions.

    Materializes the single path the speculated execution is expected to
    follow: from the entry, assumed branches go their assumed way,
    unassumed branches follow the taken edge (static prediction), jumps
    and call continuations are followed, and the walk stops at a return,
    a tail call, or the first revisited block (a loop back-edge — the
    path covers one unrolling).  Everything off this path is cold. *)

type t = {
  blocks : Func.label array;  (** Path blocks in order, entry first. *)
  assumed_sites : int list;  (** Assumed branch sites crossed, in order. *)
  predicted_sites : int list;
      (** Unassumed sites crossed on static prediction — the residual
          branches the distilled code must keep. *)
  complete : bool;  (** The path reached a [Ret]/[TailCall]. *)
}

val extract : Cfg.t -> assume:(int -> bool option) -> t
(** [assume site] is the assumed direction of a branch site, if any
    (e.g. [Assumptions.direction a] partially applied). *)

val mem : t -> Func.label -> bool

val pp : Format.formatter -> t -> unit
