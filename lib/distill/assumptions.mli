(** Speculation assumptions fed to the distiller.

    MSSP's approximations (Figure 1) come in two forms here:
    - a {e branch assumption} removes a conditional branch, assuming it
      always goes one way;
    - a {e load-value assumption} replaces a load with the constant value
      profiles say it almost always produces.

    The distilled code contains no checks — MSSP's trailing verification
    catches violations — so the distiller is free to delete everything
    the assumptions make dead. *)

type t = {
  branches : (int * bool) list;  (** (site id, assumed direction). *)
  loads : (Rs_ir.Func.label * int * int) list;
      (** (block label, instruction index, assumed value) of a [Load]. *)
}

val empty : t
val branches : (int * bool) list -> t
val direction : t -> int -> bool option
(** Assumed direction of a site, if any. *)

val pp : Format.formatter -> t -> unit
