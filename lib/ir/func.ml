type label = int

type terminator =
  | Jump of label
  | Branch of { cond : Instr.reg; site : int; taken : label; not_taken : label }
  | Call of { callee : int; args : Instr.reg list; ret : Instr.reg option; next : label }
  | TailCall of { callee : int; args : Instr.reg list }
  | Ret of Instr.reg option

type block = { body : Instr.t array; term : terminator }

type t = { name : string; entry : label; blocks : block array; nregs : int }

let block t l = t.blocks.(l)

let successors b =
  match b.term with
  | Jump l -> [ l ]
  | Branch { taken; not_taken; _ } -> [ taken; not_taken ]
  | Call { next; _ } -> [ next ]
  | TailCall _ | Ret _ -> []

let term_uses = function
  | Jump _ -> []
  | Branch { cond; _ } -> [ cond ]
  | Call { args; _ } | TailCall { args; _ } -> args
  | Ret (Some r) -> [ r ]
  | Ret None -> []

let term_def = function Call { ret; _ } -> ret | _ -> None

let map_term_labels f = function
  | Jump l -> Jump (f l)
  | Branch b -> Branch { b with taken = f b.taken; not_taken = f b.not_taken }
  | Call c -> Call { c with next = f c.next }
  | (TailCall _ | Ret _) as t -> t

let map_term_regs f = function
  | Jump _ as t -> t
  | Branch b -> Branch { b with cond = f b.cond }
  | Call c ->
    Call { c with args = List.map f c.args; ret = Option.map f c.ret }
  | TailCall c -> TailCall { c with args = List.map f c.args }
  | Ret r -> Ret (Option.map f r)

let callee = function Call { callee; _ } | TailCall { callee; _ } -> Some callee | _ -> None

let validate t =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let n = Array.length t.blocks in
  if n = 0 then err "function %s has no blocks" t.name
  else if t.entry < 0 || t.entry >= n then err "entry label %d out of range" t.entry
  else begin
    let ok = ref (Ok ()) in
    let check_label l =
      if (l < 0 || l >= n) && !ok = Ok () then ok := err "label %d out of range" l
    in
    let check_reg r =
      if (r < 0 || r >= t.nregs) && !ok = Ok () then ok := err "register %d out of range" r
    in
    Array.iter
      (fun b ->
        Array.iter
          (fun i ->
            List.iter check_reg (Instr.uses i);
            Option.iter check_reg (Instr.def i))
          b.body;
        List.iter check_reg (term_uses b.term);
        Option.iter check_reg (term_def b.term);
        List.iter check_label (successors b))
      t.blocks;
    !ok
  end

let calls t =
  Array.fold_right
    (fun b acc -> match callee b.term with Some c -> c :: acc | None -> acc)
    t.blocks []

let static_size t =
  Array.fold_left (fun acc b -> acc + Array.length b.body + 1) 0 t.blocks

let map_blocks f t = { t with blocks = Array.mapi f t.blocks }

let map_regs f t =
  map_blocks
    (fun _ b ->
      { body = Array.map (Instr.map_regs f) b.body; term = map_term_regs f b.term })
    t

let reachable t =
  let seen = Array.make (Array.length t.blocks) false in
  let rec go l =
    if not seen.(l) then begin
      seen.(l) <- true;
      List.iter go (successors t.blocks.(l))
    end
  in
  go t.entry;
  seen

let pp_args ppf args =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
    (fun ppf r -> Format.fprintf ppf "r%d" r)
    ppf args

let pp ppf t =
  Format.fprintf ppf "%s:  (entry L%d, %d regs)@." t.name t.entry t.nregs;
  Array.iteri
    (fun l b ->
      Format.fprintf ppf "L%d:@." l;
      Array.iter (fun i -> Format.fprintf ppf "    %a@." Instr.pp i) b.body;
      match b.term with
      | Jump l' -> Format.fprintf ppf "    br    L%d@." l'
      | Branch { cond; site; taken; not_taken } ->
        Format.fprintf ppf "    bne   r%d, L%d  ; site %d (else L%d)@." cond taken site
          not_taken
      | Call { callee; args; ret; next } ->
        Format.fprintf ppf "    jsr   f%d(%a)%s, cont L%d@." callee pp_args args
          (match ret with Some r -> Printf.sprintf " -> r%d" r | None -> "")
          next
      | TailCall { callee; args } ->
        Format.fprintf ppf "    jmp   f%d(%a)  ; tail call@." callee pp_args args
      | Ret None -> Format.fprintf ppf "    ret@."
      | Ret (Some r) -> Format.fprintf ppf "    ret   r%d@." r)
    t.blocks
