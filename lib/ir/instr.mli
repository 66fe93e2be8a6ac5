(** Instructions of the small register IR.

    The IR is deliberately Alpha-flavoured (the paper's Figure 1 uses
    Alpha assembly): a load/store machine with integer ALU operations,
    compares into registers, and conditional branches on a register.
    It exists so the distiller performs {e real} program transformations
    — branch-assumption substitution, constant folding, dead-code
    elimination — whose instruction savings feed the MSSP timing model,
    rather than assumed percentages. *)

type reg = int
(** Register index, [0 .. nregs-1]. *)

type binop = Add | Sub | Mul | And | Or | Xor | Shl | Shr

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type t =
  | Li of reg * int  (** [rd <- imm] *)
  | Mov of reg * reg  (** [rd <- rs] *)
  | Binop of binop * reg * reg * reg  (** [rd <- rs1 op rs2] *)
  | Addi of reg * reg * int  (** [rd <- rs + imm] *)
  | Cmp of cmp * reg * reg * reg  (** [rd <- rs1 cmp rs2 ? 1 : 0] *)
  | Cmpi of cmp * reg * reg * int  (** [rd <- rs cmp imm ? 1 : 0] *)
  | Load of reg * reg * int  (** [rd <- mem\[rs + off\]] *)
  | Store of reg * reg * int  (** [mem\[rs1 + off\] <- rs2] *)

val def : t -> reg option
(** The register written, if any. *)

val uses : t -> reg list
(** Registers read. *)

val eval_binop : binop -> int -> int -> int
val eval_cmp : cmp -> int -> int -> bool

val map_regs : (reg -> reg) -> t -> t
(** Rename every register occurrence. *)

val pp : Format.formatter -> t -> unit
(** Alpha-ish assembly rendering, e.g. [ldq r1, 4(r16)]. *)
