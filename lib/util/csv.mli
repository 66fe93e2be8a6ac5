(** Minimal CSV emission for experiment series.

    Each figure reproduction can dump its raw series next to the rendered
    text so downstream plotting is trivial. *)

type t

val create : header:string list -> t
val add_row : t -> string list -> unit
(** @raise Invalid_argument on arity mismatch. *)

val render : t -> string
(** RFC-4180-style quoting of fields containing commas, quotes or
    newlines. *)

val float_field : float -> string
(** The canonical numeric-field format shared by every machine-readable
    emitter (CSV and JSON): six decimals for finite values, and the
    literals ["inf"], ["-inf"], ["nan"] otherwise (JSON maps those to
    [null]).  Using one helper keeps the two formats bit-for-bit in
    agreement on precision. *)
