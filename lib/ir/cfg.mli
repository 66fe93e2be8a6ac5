(** Edge-aware control-flow graph over one function.

    Built once per function, it gives the distiller what the raw block
    array does not: predecessor lists, explicit edge objects carrying the
    branch-site id that created them (so a branch assumption maps to the
    {e edge} it prunes), reverse postorder for dataflow iteration, and
    immediate dominators (Cooper–Harvey–Kennedy). *)

type edge_kind =
  | Ejump
  | Etaken of int  (** branch taken; carries the branch-site id *)
  | Enot_taken of int
  | Efallthru  (** call continuation *)

type edge = { src : Func.label; dst : Func.label; kind : edge_kind }

type t

val build : Func.t -> t

val func : t -> Func.t
(** The function the graph was built from. *)

val preds : t -> Func.label -> Func.label list
val succs : t -> Func.label -> Func.label list

val edges : t -> edge array
(** All edges, in block order. *)

val rpo : t -> Func.label array
(** Reverse postorder of the blocks reachable from the entry. *)

val reachable : t -> Func.label -> bool

val idom : t -> Func.label -> Func.label option
(** Immediate dominator; [None] for the entry and unreachable blocks. *)

val dominates : t -> Func.label -> Func.label -> bool
(** [dominates t a b]: every path from the entry to [b] passes [a].
    False when [b] is unreachable. *)
