type reg = int

type binop = Add | Sub | Mul | And | Or | Xor | Shl | Shr

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type t =
  | Li of reg * int
  | Mov of reg * reg
  | Binop of binop * reg * reg * reg
  | Addi of reg * reg * int
  | Cmp of cmp * reg * reg * reg
  | Cmpi of cmp * reg * reg * int
  | Load of reg * reg * int
  | Store of reg * reg * int

let def = function
  | Li (rd, _) | Mov (rd, _) | Binop (_, rd, _, _) | Addi (rd, _, _)
  | Cmp (_, rd, _, _) | Cmpi (_, rd, _, _) | Load (rd, _, _) ->
    Some rd
  | Store _ -> None

let uses = function
  | Li _ -> []
  | Mov (_, rs) | Addi (_, rs, _) | Cmpi (_, _, rs, _) | Load (_, rs, _) -> [ rs ]
  | Binop (_, _, rs1, rs2) | Cmp (_, _, rs1, rs2) | Store (rs1, rs2, _) -> [ rs1; rs2 ]

let eval_binop op a b =
  match op with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Shl -> a lsl (b land 63)
  | Shr -> a asr (b land 63)

let eval_cmp c a b =
  match c with
  | Eq -> a = b
  | Ne -> a <> b
  | Lt -> a < b
  | Le -> a <= b
  | Gt -> a > b
  | Ge -> a >= b

let map_regs f = function
  | Li (rd, i) -> Li (f rd, i)
  | Mov (rd, rs) -> Mov (f rd, f rs)
  | Binop (op, rd, rs1, rs2) -> Binop (op, f rd, f rs1, f rs2)
  | Addi (rd, rs, i) -> Addi (f rd, f rs, i)
  | Cmp (c, rd, rs1, rs2) -> Cmp (c, f rd, f rs1, f rs2)
  | Cmpi (c, rd, rs, i) -> Cmpi (c, f rd, f rs, i)
  | Load (rd, rs, off) -> Load (f rd, f rs, off)
  | Store (rs1, rs2, off) -> Store (f rs1, f rs2, off)

let binop_name = function
  | Add -> "addq"
  | Sub -> "subq"
  | Mul -> "mulq"
  | And -> "and"
  | Or -> "bis"
  | Xor -> "xor"
  | Shl -> "sll"
  | Shr -> "sra"

let cmp_name = function
  | Eq -> "cmpeq"
  | Ne -> "cmpne"
  | Lt -> "cmplt"
  | Le -> "cmple"
  | Gt -> "cmpgt"
  | Ge -> "cmpge"

let pp ppf = function
  | Li (rd, i) -> Format.fprintf ppf "lda   r%d, %d" rd i
  | Mov (rd, rs) -> Format.fprintf ppf "mov   r%d, r%d" rd rs
  | Binop (op, rd, rs1, rs2) ->
    Format.fprintf ppf "%-5s r%d, r%d, r%d" (binop_name op) rs1 rs2 rd
  | Addi (rd, rs, i) -> Format.fprintf ppf "lda   r%d, %d(r%d)" rd i rs
  | Cmp (c, rd, rs1, rs2) -> Format.fprintf ppf "%s r%d, r%d, r%d" (cmp_name c) rs1 rs2 rd
  | Cmpi (c, rd, rs, i) -> Format.fprintf ppf "%s r%d, %d, r%d" (cmp_name c) rs i rd
  | Load (rd, rs, off) -> Format.fprintf ppf "ldq   r%d, %d(r%d)" rd off rs
  | Store (rs1, rs2, off) -> Format.fprintf ppf "stq   r%d, %d(r%d)" rs2 off rs1
