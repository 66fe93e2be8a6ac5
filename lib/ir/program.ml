type t = { name : string; funcs : Func.t array; entry : int }

let of_func (f : Func.t) = { name = f.Func.name; funcs = [| f |]; entry = 0 }

let entry_func t = t.funcs.(t.entry)
let n_funcs t = Array.length t.funcs

let map_funcs f t = { t with funcs = Array.mapi f t.funcs }

let with_entry_func t f =
  { t with funcs = Array.mapi (fun i g -> if i = t.entry then f else g) t.funcs }

let validate t =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let n = Array.length t.funcs in
  if n = 0 then err "program %s has no functions" t.name
  else if t.entry < 0 || t.entry >= n then err "entry function %d out of range" t.entry
  else begin
    let ok = ref (Ok ()) in
    Array.iteri
      (fun fi (f : Func.t) ->
        (match Func.validate f with
        | Ok () -> ()
        | Error e -> if !ok = Ok () then ok := err "function %d (%s): %s" fi f.name e);
        Array.iter
          (fun (b : Func.block) ->
            match Func.callee b.term with
            | Some c when c < 0 || c >= n ->
              if !ok = Ok () then ok := err "function %d (%s): callee f%d out of range" fi f.name c
            | Some c ->
              let arity = List.length (Func.term_uses b.term) in
              if arity > t.funcs.(c).Func.nregs && !ok = Ok () then
                ok :=
                  err "function %d (%s): %d arguments overflow f%d's %d registers" fi
                    f.name arity c t.funcs.(c).Func.nregs
            | None -> ())
          f.blocks)
      t.funcs;
    !ok
  end

let static_size t = Array.fold_left (fun acc f -> acc + Func.static_size f) 0 t.funcs

let pp ppf t =
  Format.fprintf ppf "program %s  (%d functions, entry f%d)@." t.name
    (Array.length t.funcs) t.entry;
  Array.iteri (fun i f -> Format.fprintf ppf "f%d = %a" i Func.pp f) t.funcs
