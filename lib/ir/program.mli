(** Whole programs: a set of functions wired by call edges.

    [Call]/[TailCall] terminators refer to functions by index into
    [funcs]; execution starts at [funcs.(entry)].  A single-function
    program (no calls) is exactly the old [Func.t] world — {!of_func}
    embeds one. *)

type t = {
  name : string;
  funcs : Func.t array;  (** Indexed by the callee ids in terminators. *)
  entry : int;  (** Index of the entry function. *)
}

val of_func : Func.t -> t
(** The one-function program; entry is that function. *)

val entry_func : t -> Func.t
val n_funcs : t -> int

val map_funcs : (int -> Func.t -> Func.t) -> t -> t
val with_entry_func : t -> Func.t -> t
(** Replace the entry function, keeping everything else. *)

val validate : t -> (unit, string) result
(** Per-function {!Func.validate}, plus: callee indices in range and no
    call passes more arguments than its callee has registers. *)

val static_size : t -> int
(** Sum of {!Func.static_size} over all functions. *)

val pp : Format.formatter -> t -> unit
