module Func = Rs_ir.Func
module Instr = Rs_ir.Instr
module Program = Rs_ir.Program
module Cfg = Rs_ir.Cfg
module Path = Rs_ir.Path

(* --- assumption substitution -------------------------------------------- *)

let apply_assumptions (a : Assumptions.t) (f : Func.t) =
  Func.map_blocks
    (fun label b ->
      let body =
        Array.mapi
          (fun i instr ->
            match instr with
            | Instr.Load (rd, _, _) ->
              (match
                 List.find_opt (fun (bl, idx, _) -> bl = label && idx = i) a.loads
               with
              | Some (_, _, v) -> Instr.Li (rd, v)
              | None -> instr)
            | _ -> instr)
          b.body
      in
      let term =
        match b.term with
        | Func.Branch { site; taken; not_taken; _ } as t ->
          (match Assumptions.direction a site with
          | Some true -> Func.Jump taken
          | Some false -> Func.Jump not_taken
          | None -> t)
        | t -> t
      in
      { Func.body; term })
    f

(* --- constant folding ----------------------------------------------------

   A classic forward dataflow: each register is Unknown (top) or Const.
   Block in-states meet over predecessors; the entry block's registers
   are all Unknown (the interpreter may seed them).  One caveat keeps the
   transfer monotone: re-running a block's transfer from a meet state is
   always sound because the lattice has height 2. *)

type cval = Unknown | Const of int

let meet a b =
  match (a, b) with Const x, Const y when x = y -> Const x | _ -> Unknown

let transfer_instr state (i : Instr.t) =
  let get r = state.(r) in
  let set r v = state.(r) <- v in
  match i with
  | Li (rd, v) -> set rd (Const v)
  | Mov (rd, rs) -> set rd (get rs)
  | Binop (op, rd, rs1, rs2) ->
    (match (get rs1, get rs2) with
    | Const a, Const b -> set rd (Const (Instr.eval_binop op a b))
    | _ -> set rd Unknown)
  | Addi (rd, rs, v) ->
    (match get rs with Const a -> set rd (Const (a + v)) | Unknown -> set rd Unknown)
  | Cmp (c, rd, rs1, rs2) ->
    (match (get rs1, get rs2) with
    | Const a, Const b -> set rd (Const (if Instr.eval_cmp c a b then 1 else 0))
    | _ -> set rd Unknown)
  | Cmpi (c, rd, rs, v) ->
    (match get rs with
    | Const a -> set rd (Const (if Instr.eval_cmp c a v then 1 else 0))
    | Unknown -> set rd Unknown)
  | Load (rd, _, _) -> set rd Unknown
  | Store _ -> ()

let block_out f in_state label =
  let state = Array.copy in_state in
  Array.iter (transfer_instr state) (Func.block f label).body;
  state

let analyze (f : Func.t) =
  let n = Array.length f.blocks in
  let preds = Array.make n [] in
  Array.iteri
    (fun l b -> List.iter (fun s -> preds.(s) <- l :: preds.(s)) (Func.successors b))
    f.blocks;
  let unknowns () = Array.make f.nregs Unknown in
  let in_states = Array.init n (fun _ -> unknowns ()) in
  (* blocks not yet reached contribute nothing to the meet *)
  let reached = Array.make n false in
  reached.(f.entry) <- true;
  let changed = ref true in
  let iter_guard = ref 0 in
  while !changed && !iter_guard < 4 * (n + 1) do
    changed := false;
    incr iter_guard;
    for l = 0 to n - 1 do
      if reached.(l) then begin
        let out = block_out f in_states.(l) l in
        (* a call's return register is defined by the terminator, so the
           value flowing to the continuation is unknown *)
        (match Func.term_def f.blocks.(l).term with
        | Some rd -> out.(rd) <- Unknown
        | None -> ());
        List.iter
          (fun s ->
            if not reached.(s) then begin
              reached.(s) <- true;
              Array.blit out 0 in_states.(s) 0 f.nregs;
              changed := true
            end
            else
              for r = 0 to f.nregs - 1 do
                let m = meet in_states.(s).(r) out.(r) in
                if m <> in_states.(s).(r) then begin
                  in_states.(s).(r) <- m;
                  changed := true
                end
              done)
          (Func.successors f.blocks.(l))
      end
    done
  done;
  in_states

let constant_fold (f : Func.t) =
  let in_states = analyze f in
  Func.map_blocks
    (fun label b ->
      let state = Array.copy in_states.(label) in
      let rewrite (i : Instr.t) =
        let const r = match state.(r) with Const v -> Some v | Unknown -> None in
        let folded =
          match i with
          | Li _ | Store _ | Load _ -> i
          | Mov (rd, rs) -> (match const rs with Some v -> Li (rd, v) | None -> i)
          | Binop (op, rd, rs1, rs2) ->
            (match (const rs1, const rs2) with
            | Some a, Some b -> Li (rd, Instr.eval_binop op a b)
            | _ -> i)
          | Addi (rd, rs, v) ->
            (match const rs with Some a -> Li (rd, a + v) | None -> i)
          | Cmp (c, rd, rs1, rs2) ->
            (match (const rs1, const rs2) with
            | Some a, Some b -> Li (rd, if Instr.eval_cmp c a b then 1 else 0)
            | Some _, None | None, Some _ ->
              (* fold one side into an immediate compare *)
              (match (const rs1, const rs2) with
              | None, Some b -> Cmpi (c, rd, rs1, b)
              | Some a, None ->
                let swapped =
                  match c with
                  | Instr.Eq -> Instr.Eq
                  | Ne -> Ne
                  | Lt -> Gt
                  | Le -> Ge
                  | Gt -> Lt
                  | Ge -> Le
                in
                Cmpi (swapped, rd, rs2, a)
              | _ -> i)
            | None, None -> i)
          | Cmpi (c, rd, rs, v) ->
            (match const rs with
            | Some a -> Li (rd, if Instr.eval_cmp c a v then 1 else 0)
            | None -> i)
        in
        transfer_instr state folded;
        folded
      in
      let body = Array.map rewrite b.body in
      let term =
        match b.term with
        | Func.Branch { cond; taken; not_taken; _ } as t ->
          (match state.(cond) with
          | Const v -> Func.Jump (if v <> 0 then taken else not_taken)
          | Unknown -> t)
        | t -> t
      in
      { Func.body; term })
    f

(* --- dead code elimination ----------------------------------------------- *)

let dead_code_elimination (f : Func.t) =
  let n = Array.length f.blocks in
  (* live-out sets per block, as boolean arrays over registers *)
  let live_out = Array.init n (fun _ -> Array.make f.nregs false) in
  let succs = Array.map Func.successors f.blocks in
  (* terminator effect on liveness: a call's return register is a def
     (killed before its argument uses are added) *)
  let seed_term live (b : Func.block) =
    (match Func.term_def b.term with Some rd -> live.(rd) <- false | None -> ());
    List.iter (fun r -> live.(r) <- true) (Func.term_uses b.term)
  in
  (* live-in of a block given its live-out *)
  let live_in_of label out =
    let live = Array.copy out in
    seed_term live f.blocks.(label);
    let body = f.blocks.(label).body in
    for i = Array.length body - 1 downto 0 do
      let instr = body.(i) in
      (match Instr.def instr with
      | Some rd when not (Instr.is_store instr) ->
        if live.(rd) then begin
          live.(rd) <- false;
          List.iter (fun r -> live.(r) <- true) (Instr.uses instr)
        end
        (* stores handled below; dead defs add no uses *)
      | _ -> List.iter (fun r -> live.(r) <- true) (Instr.uses instr));
      if Instr.is_store instr then
        List.iter (fun r -> live.(r) <- true) (Instr.uses instr)
    done;
    live
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for l = n - 1 downto 0 do
      let out = live_out.(l) in
      List.iter
        (fun s ->
          let s_in = live_in_of s live_out.(s) in
          for r = 0 to f.nregs - 1 do
            if s_in.(r) && not out.(r) then begin
              out.(r) <- true;
              changed := true
            end
          done)
        succs.(l)
    done
  done;
  (* rewrite each block, dropping dead pure definitions *)
  Func.map_blocks
    (fun label b ->
      let live = Array.copy live_out.(label) in
      seed_term live b;
      let keep = Array.make (Array.length b.body) true in
      for i = Array.length b.body - 1 downto 0 do
        let instr = b.body.(i) in
        if Instr.is_store instr then
          List.iter (fun r -> live.(r) <- true) (Instr.uses instr)
        else begin
          match Instr.def instr with
          | Some rd ->
            if live.(rd) then begin
              live.(rd) <- false;
              List.iter (fun r -> live.(r) <- true) (Instr.uses instr)
            end
            else keep.(i) <- false
          | None -> List.iter (fun r -> live.(r) <- true) (Instr.uses instr)
        end
      done;
      let body =
        Array.of_list
          (List.filteri (fun i _ -> keep.(i)) (Array.to_list b.body))
      in
      { b with Func.body })
    f

(* --- CFG simplification -------------------------------------------------- *)

let simplify_cfg (f : Func.t) =
  (* thread jump chains through empty blocks *)
  let rec resolve seen l =
    if List.mem l seen then l
    else
      let b = f.blocks.(l) in
      if Array.length b.body = 0 then
        match b.term with Func.Jump l' -> resolve (l :: seen) l' | _ -> l
      else l
  in
  let f =
    Func.map_blocks
      (fun _ b ->
        let term =
          match b.Func.term with
          | Func.Jump l -> Func.Jump (resolve [] l)
          | Func.Branch br ->
            Func.Branch
              { br with taken = resolve [] br.taken; not_taken = resolve [] br.not_taken }
          | Func.Call c -> Func.Call { c with next = resolve [] c.next }
          | t -> t
        in
        { b with Func.term })
      f
  in
  let f = { f with entry = resolve [] f.entry } in
  (* drop unreachable blocks and renumber *)
  let reach = Func.reachable f in
  let n = Array.length f.blocks in
  let remap = Array.make n (-1) in
  let next = ref 0 in
  for l = 0 to n - 1 do
    if reach.(l) then begin
      remap.(l) <- !next;
      incr next
    end
  done;
  let relabel l = remap.(l) in
  let blocks =
    Array.of_list
      (List.filteri
         (fun l _ -> reach.(l))
         (Array.to_list
            (Array.map
               (fun b -> { b with Func.term = Func.map_term_labels relabel b.Func.term })
               f.blocks)))
  in
  { f with blocks; entry = relabel f.entry }

(* --- local common-subexpression elimination -------------------------------

   Within a block: available pure expressions are keyed on their opcode
   and the {e versions} of their source registers (versions bump on every
   redefinition, so stale entries invalidate themselves); loads also key
   on a store era that bumps at every store (no aliasing information).
   A recomputation becomes a [Mov] from the holding register, later uses
   are rewritten to the original register, and global DCE removes the
   [Mov] when nothing downstream needs the duplicate name. *)

type cse_key =
  | Kbin of Instr.binop * int * int * int * int  (** op, r1, v1, r2, v2 *)
  | Kaddi of int * int * int
  | Kcmp of Instr.cmp * int * int * int * int
  | Kcmpi of Instr.cmp * int * int * int
  | Kload of int * int * int * int  (** base, version, offset, store era *)

let local_cse (f : Func.t) =
  Func.map_blocks
    (fun _ b ->
      let version = Array.make f.nregs 0 in
      let avail : (cse_key, int * int) Hashtbl.t = Hashtbl.create 16 in
      let subst : (int * int) option array = Array.make f.nregs None in
      let era = ref 0 in
      let resolve r =
        match subst.(r) with
        | Some (s, sv) when version.(s) = sv -> s
        | _ -> r
      in
      let defined rd =
        version.(rd) <- version.(rd) + 1;
        subst.(rd) <- None
      in
      let rewrite (i : Instr.t) : Instr.t =
        match i with
        | Li _ -> i
        | Mov (rd, rs) -> Mov (rd, resolve rs)
        | Binop (op, rd, r1, r2) -> Binop (op, rd, resolve r1, resolve r2)
        | Addi (rd, rs, v) -> Addi (rd, resolve rs, v)
        | Cmp (c, rd, r1, r2) -> Cmp (c, rd, resolve r1, resolve r2)
        | Cmpi (c, rd, rs, v) -> Cmpi (c, rd, resolve rs, v)
        | Load (rd, rs, off) -> Load (rd, resolve rs, off)
        | Store (r1, r2, off) -> Store (resolve r1, resolve r2, off)
      in
      let key_of (i : Instr.t) =
        match i with
        | Binop (op, _, r1, r2) -> Some (Kbin (op, r1, version.(r1), r2, version.(r2)))
        | Addi (_, rs, v) -> Some (Kaddi (rs, version.(rs), v))
        | Cmp (c, _, r1, r2) -> Some (Kcmp (c, r1, version.(r1), r2, version.(r2)))
        | Cmpi (c, _, rs, v) -> Some (Kcmpi (c, rs, version.(rs), v))
        | Load (_, rs, off) -> Some (Kload (rs, version.(rs), off, !era))
        | Li _ | Mov _ | Store _ -> None
      in
      let body =
        Array.map
          (fun instr ->
            let instr = rewrite instr in
            match Instr.def instr with
            | None ->
              if Instr.is_store instr then incr era;
              instr
            | Some rd ->
              (match key_of instr with
              | Some key ->
                (match Hashtbl.find_opt avail key with
                | Some (src, sv) when version.(src) = sv && src <> rd ->
                  defined rd;
                  subst.(rd) <- Some (src, version.(src));
                  Instr.Mov (rd, src)
                | _ ->
                  defined rd;
                  Hashtbl.replace avail key (rd, version.(rd));
                  instr)
              | None ->
                defined rd;
                instr))
          b.body
      in
      let term =
        match b.term with
        | Func.Branch br -> Func.Branch { br with cond = resolve br.cond }
        | Func.Ret (Some r) -> Func.Ret (Some (resolve r))
        | Func.Call c -> Func.Call { c with args = List.map resolve c.args }
        | Func.TailCall c -> Func.TailCall { c with args = List.map resolve c.args }
        | t -> t
      in
      { Func.body; term })
    f

(* Merge each block into its unique jump-predecessor. *)
let merge_blocks (f : Func.t) =
  let n = Array.length f.blocks in
  let preds = Array.make n 0 in
  Array.iter
    (fun b -> List.iter (fun s -> preds.(s) <- preds.(s) + 1) (Func.successors b))
    f.blocks;
  let bodies = Array.map (fun b -> b.Func.body) f.blocks in
  let terms = Array.map (fun b -> b.Func.term) f.blocks in
  let merged = Array.make n false in
  let changed = ref true in
  while !changed do
    changed := false;
    for a = 0 to n - 1 do
      if not merged.(a) then
        match terms.(a) with
        | Func.Jump b when b <> a && b <> f.entry && preds.(b) = 1 && not merged.(b) ->
          bodies.(a) <- Array.append bodies.(a) bodies.(b);
          terms.(a) <- terms.(b);
          merged.(b) <- true;
          changed := true
        | _ -> ()
    done
  done;
  let blocks =
    Array.init n (fun l ->
        if merged.(l) then { Func.body = [||]; term = Func.Ret None } (* unreachable *)
        else { Func.body = bodies.(l); term = terms.(l) })
  in
  { f with blocks }

let optimize f =
  let rec fix f budget =
    if budget = 0 then f
    else begin
      let f' =
        simplify_cfg
          (merge_blocks
             (dead_code_elimination (constant_fold (local_cse f))))
      in
      if Func.static_size f' = Func.static_size f && Array.length f'.blocks = Array.length f.blocks
      then f'
      else fix f' (budget - 1)
    end
  in
  fix f 4

let pipeline assumptions f = optimize (apply_assumptions assumptions f)

(* --- path-directed call inlining ------------------------------------------

   Inlining is speculative and path-directed: each round extracts the hot
   path of the entry function under the branch assumptions and inlines
   the first call the path crosses.  The callee's blocks are spliced
   after the caller's with registers renamed above the caller's frame
   (via [Func.map_regs]); since an interpreter frame starts zeroed, the
   graft first zeroes the callee's renamed registers, then moves the
   argument values in — dead zeroing folds away in the later passes.  A
   callee [Ret] becomes a move into the call's return register plus a
   jump to the continuation; a callee tail call inherits the call's
   return register and continuation, becoming a plain call the next
   round can inline in turn. *)

let max_inline_blocks = 1024

let inline_once (p : Program.t) ~assume =
  let f = Program.entry_func p in
  let cfg = Cfg.build f in
  let path = Path.extract cfg ~assume in
  let call_block =
    Array.fold_left
      (fun acc l ->
        match acc with
        | Some _ -> acc
        | None -> (
          match f.Func.blocks.(l).Func.term with
          | Func.Call { callee; _ } when callee <> p.Program.entry -> Some l
          | _ -> None))
      None path.Path.blocks
  in
  match call_block with
  | None -> None
  | Some l -> (
    match f.Func.blocks.(l).Func.term with
    | Func.Call { callee; args; ret; next } ->
      let g = p.Program.funcs.(callee) in
      let nb = Array.length f.Func.blocks in
      if nb + Array.length g.Func.blocks > max_inline_blocks then None
      else begin
        let shift = f.Func.nregs in
        let g = Func.map_regs (fun r -> r + shift) g in
        let frame_init =
          Array.append
            (Array.init g.Func.nregs (fun j -> Instr.Li (shift + j, 0)))
            (Array.of_list (List.mapi (fun i a -> Instr.Mov (shift + i, a)) args))
        in
        let caller_blocks =
          Array.mapi
            (fun bl (b : Func.block) ->
              if bl = l then
                {
                  Func.body = Array.append b.body frame_init;
                  term = Func.Jump (nb + g.Func.entry);
                }
              else b)
            f.Func.blocks
        in
        let splice (b : Func.block) =
          match b.term with
          | Func.Ret r ->
            let body =
              match (ret, r) with
              | Some rd, Some rs -> Array.append b.body [| Instr.Mov (rd, rs) |]
              | _ -> b.body
            in
            { Func.body; term = Func.Jump next }
          | Func.TailCall { callee = c2; args = a2 } ->
            { b with Func.term = Func.Call { callee = c2; args = a2; ret; next } }
          | _ ->
            { b with Func.term = Func.map_term_labels (fun x -> x + nb) b.term }
        in
        let blocks = Array.append caller_blocks (Array.map splice g.Func.blocks) in
        let f' = { f with Func.blocks; nregs = shift + g.Func.nregs } in
        Some (Program.with_entry_func p f')
      end
    | _ -> None)

(* Call sites inlined per distillation, at most. *)
let inline_budget = 8

let inline_calls ~assume (p : Program.t) =
  let count = ref 0 in
  let cur = ref p in
  let continue = ref true in
  while !continue && !count < inline_budget do
    match inline_once !cur ~assume with
    | Some p' ->
      cur := p';
      incr count
    | None -> continue := false
  done;
  (!cur, !count)

(* Functions no longer referenced from the entry's call graph (everything
   inlined) are dropped, with callee indices compacted. *)
let prune_dead_funcs (p : Program.t) =
  let n = Array.length p.Program.funcs in
  let keep = Array.make n false in
  let rec mark i =
    if not keep.(i) then begin
      keep.(i) <- true;
      List.iter mark (Func.calls p.Program.funcs.(i))
    end
  in
  mark p.Program.entry;
  if Array.for_all Fun.id keep then p
  else begin
    let remap = Array.make n (-1) in
    let next = ref 0 in
    for i = 0 to n - 1 do
      if keep.(i) then begin
        remap.(i) <- !next;
        incr next
      end
    done;
    let fix_callees f =
      Func.map_blocks
        (fun _ (b : Func.block) ->
          {
            b with
            Func.term =
              (match b.term with
              | Func.Call c -> Func.Call { c with callee = remap.(c.callee) }
              | Func.TailCall c -> Func.TailCall { c with callee = remap.(c.callee) }
              | t -> t);
          })
        f
    in
    let funcs =
      Array.of_list (List.filteri (fun i _ -> keep.(i)) (Array.to_list p.Program.funcs))
    in
    { p with Program.funcs = Array.map fix_callees funcs; entry = remap.(p.Program.entry) }
  end

(* --- hot/cold splitting ---------------------------------------------------

   Lay the entry function out hot-path-first: path blocks in path order,
   every off-path block after them in the cold region.  Pure reordering —
   dynamic behaviour, sizes and site ids are untouched — but the layout
   exposes the misspeculation-recovery surface: each distinct cold block
   directly reachable from hot code is an entry stub the MSSP recovery
   path funnels through. *)

type split = { hot_blocks : int; cold_blocks : int; cold_entries : int }

let hot_cold_split ~assume (f : Func.t) =
  let cfg = Cfg.build f in
  let path = Path.extract cfg ~assume in
  let n = Array.length f.Func.blocks in
  let on_path = Array.make n false in
  Array.iter (fun l -> on_path.(l) <- true) path.Path.blocks;
  let cold = ref [] in
  for l = n - 1 downto 0 do
    if not on_path.(l) then cold := l :: !cold
  done;
  let nhot = Array.length path.Path.blocks in
  let entry_seen = Array.make n false in
  let entries = ref 0 in
  Array.iter
    (fun l ->
      List.iter
        (fun s ->
          if (not on_path.(s)) && not entry_seen.(s) then begin
            entry_seen.(s) <- true;
            incr entries
          end)
        (Func.successors f.Func.blocks.(l)))
    path.Path.blocks;
  let stats = { hot_blocks = nhot; cold_blocks = n - nhot; cold_entries = !entries } in
  if n = nhot then (f, stats)
  else begin
    let order = Array.append path.Path.blocks (Array.of_list !cold) in
    let remap = Array.make n (-1) in
    Array.iteri (fun new_l old_l -> remap.(old_l) <- new_l) order;
    let blocks =
      Array.map
        (fun old_l ->
          let b = f.Func.blocks.(old_l) in
          { b with Func.term = Func.map_term_labels (fun x -> remap.(x)) b.Func.term })
        order
    in
    ({ f with Func.blocks; entry = remap.(f.Func.entry) }, stats)
  end
