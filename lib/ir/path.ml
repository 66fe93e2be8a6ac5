type t = {
  blocks : Func.label array;
  assumed_sites : int list;
  predicted_sites : int list;
  complete : bool;
}

let extract (cfg : Cfg.t) ~assume =
  let f = Cfg.func cfg in
  let n = Array.length f.Func.blocks in
  let visited = Array.make n false in
  let blocks = ref [] in
  let assumed = ref [] in
  let predicted = ref [] in
  let complete = ref false in
  let rec go l =
    if not visited.(l) then begin
      visited.(l) <- true;
      blocks := l :: !blocks;
      match (f.Func.blocks.(l)).Func.term with
      | Func.Jump l' -> go l'
      | Func.Branch { site; taken; not_taken; _ } ->
        (match assume site with
        | Some d ->
          assumed := site :: !assumed;
          go (if d then taken else not_taken)
        | None ->
          (* no assumption: static prediction follows the taken edge;
             the not-taken side is off-path (cold) *)
          predicted := site :: !predicted;
          go taken)
      | Func.Call { next; _ } -> go next
      | Func.TailCall _ | Func.Ret _ -> complete := true
    end
  in
  go f.Func.entry;
  {
    blocks = Array.of_list (List.rev !blocks);
    assumed_sites = List.rev !assumed;
    predicted_sites = List.rev !predicted;
    complete = !complete;
  }

let mem t l = Array.exists (fun x -> x = l) t.blocks

let pp ppf t =
  Format.fprintf ppf "@[<h>path:";
  Array.iter (fun l -> Format.fprintf ppf " L%d" l) t.blocks;
  Format.fprintf ppf "%s@]" (if t.complete then " (to ret)" else " (loops)")
