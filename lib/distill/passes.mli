(** The distiller's optimization passes.

    The intraprocedural passes are [Func.t -> Func.t] transformations;
    the interprocedural ones (inlining, dead-function pruning) work on a
    {!Rs_ir.Program.t}.  They compose into {!Distill.distill}; they are
    exposed individually for tests and for ablation benches. *)

val apply_assumptions : Assumptions.t -> Rs_ir.Func.t -> Rs_ir.Func.t
(** Branch assumptions turn conditional branches into jumps — pruning the
    assumed-dead CFG edge — and load-value assumptions turn loads into
    immediates.  Purely speculative: the result is only equivalent when
    the assumptions hold. *)

val constant_fold : Rs_ir.Func.t -> Rs_ir.Func.t
(** Forward constant propagation over the CFG (meet-over-preds lattice,
    entry registers unknown).  Folds ALU operations and compares with
    constant operands into immediates ([Cmp] with one constant operand
    becomes [Cmpi]); folds conditional branches whose condition is a
    known constant into jumps.  A call's return register is unknown at
    its continuation. *)

val dead_code_elimination : Rs_ir.Func.t -> Rs_ir.Func.t
(** Global liveness-based DCE.  Stores, return values, call arguments
    and live branch conditions are roots; a call's return register is a
    terminator def; loads are treated as pure (removable when dead),
    matching MSSP's unchecked speculative code. *)

val simplify_cfg : Rs_ir.Func.t -> Rs_ir.Func.t
(** Remove unreachable blocks, thread trivial jump chains (through jump,
    branch and call-continuation edges), and renumber labels. *)

val local_cse : Rs_ir.Func.t -> Rs_ir.Func.t
(** Local common-subexpression elimination: within a block, a pure
    instruction recomputing an already-available expression becomes a
    [Mov] from the earlier result.  Loads are available until the next
    store (no aliasing information, so any store kills all loads). *)

val optimize : Rs_ir.Func.t -> Rs_ir.Func.t
(** CSE / constant folding / DCE / block merging / CFG simplification
    iterated to a (bounded) fixpoint. *)

val pipeline : Assumptions.t -> Rs_ir.Func.t -> Rs_ir.Func.t
(** [apply_assumptions] then {!optimize}. *)

val inline_calls :
  assume:(int -> bool option) -> Rs_ir.Program.t -> Rs_ir.Program.t * int
(** Path-directed call inlining on the entry function: repeatedly
    extract the hot path under [assume] (see {!Rs_ir.Path.extract}) and
    inline the first call it crosses, up to 8 call sites.  Callee
    registers are renamed above the caller's frame; a callee [Ret]
    becomes a move plus jump to the continuation; a callee tail call
    inherits the call's return register and continuation — becoming a
    plain call a later round can inline in turn.  Returns the
    program and the number of calls inlined. *)

val prune_dead_funcs : Rs_ir.Program.t -> Rs_ir.Program.t
(** Drop functions unreachable in the call graph from the entry,
    compacting callee indices. *)

type split = { hot_blocks : int; cold_blocks : int; cold_entries : int }

val hot_cold_split :
  assume:(int -> bool option) -> Rs_ir.Func.t -> Rs_ir.Func.t * split
(** Reorder the function hot-path-first: path blocks (under [assume]) in
    path order, off-path blocks after them as the cold region.  Purely a
    layout change.  [cold_entries] counts the distinct cold blocks
    directly reachable from hot code — the misspeculation entry stubs
    priced by the MSSP recovery model. *)
