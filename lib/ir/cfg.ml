type edge_kind =
  | Ejump
  | Etaken of int
  | Enot_taken of int
  | Efallthru  (** call continuation *)

type edge = { src : Func.label; dst : Func.label; kind : edge_kind }

type t = {
  func : Func.t;
  preds : Func.label list array;
  succs : Func.label list array;
  edges : edge array;
  rpo : Func.label array;
  rpo_index : int array;
  idom : int array;
}

let edges_of_block l (b : Func.block) =
  match b.term with
  | Func.Jump l' -> [ { src = l; dst = l'; kind = Ejump } ]
  | Func.Branch { site; taken; not_taken; _ } ->
    [
      { src = l; dst = taken; kind = Etaken site };
      { src = l; dst = not_taken; kind = Enot_taken site };
    ]
  | Func.Call { next; _ } -> [ { src = l; dst = next; kind = Efallthru } ]
  | Func.TailCall _ | Func.Ret _ -> []

(* Immediate dominators, Cooper–Harvey–Kennedy: iterate [intersect] over
   reverse postorder until fixpoint.  Unreachable blocks keep idom -1. *)
let compute_idom ~entry ~preds ~rpo ~rpo_index n =
  let idom = Array.make n (-1) in
  idom.(entry) <- entry;
  let intersect a b =
    let a = ref a and b = ref b in
    while !a <> !b do
      while rpo_index.(!a) > rpo_index.(!b) do
        a := idom.(!a)
      done;
      while rpo_index.(!b) > rpo_index.(!a) do
        b := idom.(!b)
      done
    done;
    !a
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun b ->
        if b <> entry then begin
          let new_idom = ref (-1) in
          List.iter
            (fun p ->
              if idom.(p) >= 0 then
                new_idom := if !new_idom < 0 then p else intersect p !new_idom)
            preds.(b);
          if !new_idom >= 0 && idom.(b) <> !new_idom then begin
            idom.(b) <- !new_idom;
            changed := true
          end
        end)
      rpo
  done;
  idom.(entry) <- -1;
  idom

let build (f : Func.t) =
  let n = Array.length f.blocks in
  let preds = Array.make n [] in
  let succs = Array.make n [] in
  let edges = ref [] in
  Array.iteri
    (fun l b ->
      let es = edges_of_block l b in
      succs.(l) <- List.map (fun e -> e.dst) es;
      List.iter (fun e -> preds.(e.dst) <- l :: preds.(e.dst)) es;
      edges := List.rev_append es !edges)
    f.blocks;
  Array.iteri (fun l ps -> preds.(l) <- List.rev ps) preds;
  (* reverse postorder of the reachable blocks *)
  let seen = Array.make n false in
  let post = ref [] in
  let rec dfs l =
    if not seen.(l) then begin
      seen.(l) <- true;
      List.iter dfs succs.(l);
      post := l :: !post
    end
  in
  dfs f.entry;
  let rpo = Array.of_list !post in
  let rpo_index = Array.make n (-1) in
  Array.iteri (fun i l -> rpo_index.(l) <- i) rpo;
  let idom = compute_idom ~entry:f.entry ~preds ~rpo ~rpo_index n in
  { func = f; preds; succs; edges = Array.of_list (List.rev !edges); rpo; rpo_index; idom }

let func t = t.func
let preds t l = t.preds.(l)
let succs t l = t.succs.(l)
let rpo t = t.rpo
let edges t = t.edges
let idom t l = if t.idom.(l) < 0 then None else Some t.idom.(l)
let reachable t l = t.rpo_index.(l) >= 0

let dominates t a b =
  if not (reachable t b) then false
  else begin
    let rec climb x = x = a || (t.idom.(x) >= 0 && climb t.idom.(x)) in
    climb b
  end

