(** ASCII table rendering for experiment output.

    Every experiment renders its tables with these helpers so that every
    reproduction has a uniform, diffable text form. *)

type align = Left | Right | Center

type t

val create : title:string -> columns:(string * align) list -> t
(** A table with a title row and typed column headers. *)

val add_row : t -> string list -> unit
(** Append a row.  @raise Invalid_argument if the arity differs from the
    header. *)

val add_sep : t -> unit
(** Append a horizontal separator (e.g. before an averages row). *)

val render : t -> string
(** Render with box-drawing in plain ASCII. *)

val fmt_float : ?decimals:int -> float -> string
(** Fixed-point formatting helper (default 2 decimals). *)

val fmt_pct : ?decimals:int -> float -> string
(** [fmt_pct x] renders the fraction [x] as a percentage string. *)

val fmt_int : int -> string
(** Thousands-separated integer. *)

val fmt_rate_pair :
  ?decimals:int -> ?parens:bool -> correct:float -> incorrect:float -> unit -> string
(** The "correct% @ misspec%" pair every rate table prints:
    [%5.<decimals>f%% @ %8.5f%%] over the two fractions scaled to
    percentages, optionally parenthesised.  [decimals] defaults to 1. *)
