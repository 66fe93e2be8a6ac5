(** Basic blocks, control flow and whole functions.

    A function is one node of a {!Program}: its [Call]/[TailCall]
    terminators name other functions of the program by index.  Arguments
    and the return value travel in registers — a call copies the values
    of its argument registers into the callee's [r0..rk-1]; [Ret (Some r)]
    hands the value back into the caller's designated return register. *)

type label = int
(** Block index within its function. *)

type terminator =
  | Jump of label
  | Branch of { cond : Instr.reg; site : int; taken : label; not_taken : label }
      (** Conditional branch: taken when the register is non-zero.
          [site] is the static branch-site id the speculation controller
          tracks. *)
  | Call of { callee : int; args : Instr.reg list; ret : Instr.reg option; next : label }
      (** Call function [callee] of the enclosing program with the values
          of [args] (copied into the callee's [r0..]); its return value
          lands in [ret]; execution continues at [next]. *)
  | TailCall of { callee : int; args : Instr.reg list }
      (** Like [Call] but the callee's return value becomes this
          function's return value; no continuation block. *)
  | Ret of Instr.reg option

type block = { body : Instr.t array; term : terminator }

type t = {
  name : string;
  entry : label;
  blocks : block array;  (** Indexed by label. *)
  nregs : int;  (** Registers used are in [0, nregs). *)
}

val validate : t -> (unit, string) result
(** Check: entry and all jump/branch/call-continuation targets in range;
    registers (bodies and terminators) in range; at least one block.
    Callee {e indices} are checked by {!Program.validate}, which knows
    how many functions exist. *)

val block : t -> label -> block

val calls : t -> int list
(** Callee indices of every [Call]/[TailCall], in block order. *)

val static_size : t -> int
(** Instructions in the function, terminators included (a jump, branch,
    call or [Ret] counts 1). *)

val map_blocks : (label -> block -> block) -> t -> t

val map_regs : (Instr.reg -> Instr.reg) -> t -> t
(** Rename every register occurrence, bodies and terminators both (the
    inliner's renaming step; compose with a larger [nregs]). *)

val successors : block -> label list
(** Intraprocedural successors: a [Call]'s continuation counts, the
    callee's body does not; [TailCall] has none. *)

val term_uses : terminator -> Instr.reg list
(** Registers the terminator reads (branch condition, call arguments,
    return value). *)

val term_def : terminator -> Instr.reg option
(** The register the terminator writes: a [Call]'s return register. *)

val map_term_labels : (label -> label) -> terminator -> terminator
(** Rewrite every block-label reference of the terminator. *)

val callee : terminator -> int option
(** The called function of a [Call]/[TailCall]. *)

val reachable : t -> bool array
(** Blocks reachable from the entry. *)

val pp : Format.formatter -> t -> unit
(** Assembly-style listing with block labels. *)
