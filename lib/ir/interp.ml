type result = { return_value : int option; dyn_instrs : int; blocks_visited : int }

exception Stuck of string

let max_call_depth = 256
let max_steps = 1_000_000

let run ?(hook = fun ~site:_ ~taken:_ -> ()) (p : Program.t) ~mem =
  let mem_size = Array.length mem in
  let steps = ref 0 in
  let blocks = ref 0 in
  let addr base off =
    let a = base + off in
    if a < 0 || a >= mem_size then raise (Stuck (Printf.sprintf "address %d out of bounds" a));
    a
  in
  (* one frame per activation: fresh registers, arguments in r0.. *)
  let rec call fid args depth =
    if depth > max_call_depth then raise (Stuck "call depth exceeded");
    let f = p.Program.funcs.(fid) in
    let r = Array.make f.Func.nregs 0 in
    List.iteri (fun i v -> if i < f.Func.nregs then r.(i) <- v) args;
    let exec (i : Instr.t) =
      match i with
      | Li (rd, v) -> r.(rd) <- v
      | Mov (rd, rs) -> r.(rd) <- r.(rs)
      | Binop (op, rd, rs1, rs2) -> r.(rd) <- Instr.eval_binop op r.(rs1) r.(rs2)
      | Addi (rd, rs, v) -> r.(rd) <- r.(rs) + v
      | Cmp (c, rd, rs1, rs2) -> r.(rd) <- (if Instr.eval_cmp c r.(rs1) r.(rs2) then 1 else 0)
      | Cmpi (c, rd, rs, v) -> r.(rd) <- (if Instr.eval_cmp c r.(rs) v then 1 else 0)
      | Load (rd, rs, off) -> r.(rd) <- mem.(addr r.(rs) off)
      | Store (rs1, rs2, off) -> mem.(addr r.(rs1) off) <- r.(rs2)
    in
    let rec go label =
      incr blocks;
      let b = f.Func.blocks.(label) in
      let body_len = Array.length b.body in
      steps := !steps + body_len + 1;
      if !steps > max_steps then raise (Stuck "step budget exceeded");
      for i = 0 to body_len - 1 do
        exec b.body.(i)
      done;
      match b.term with
      | Func.Jump l -> go l
      | Func.Branch { cond; site; taken; not_taken } ->
        let t = r.(cond) <> 0 in
        hook ~site ~taken:t;
        go (if t then taken else not_taken)
      | Func.Call { callee; args; ret; next } ->
        let vs = List.map (fun a -> r.(a)) args in
        let rv = call callee vs (depth + 1) in
        (match ret with
        | Some rd -> (
          match rv with
          | Some v -> r.(rd) <- v
          | None -> raise (Stuck (Printf.sprintf "f%d returned no value" callee)))
        | None -> ());
        go next
      | Func.TailCall { callee; args } ->
        let vs = List.map (fun a -> r.(a)) args in
        call callee vs (depth + 1)
      | Func.Ret reg -> (match reg with Some x -> Some r.(x) | None -> None)
    in
    go f.Func.entry
  in
  let return_value = call p.Program.entry [] 0 in
  { return_value; dyn_instrs = !steps; blocks_visited = !blocks }
