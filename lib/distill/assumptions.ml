type t = {
  branches : (int * bool) list;
  loads : (Rs_ir.Func.label * int * int) list;
}

let empty = { branches = []; loads = [] }

let branches b = { branches = b; loads = [] }

let direction t site = List.assoc_opt site t.branches

let pp ppf t =
  Format.fprintf ppf "@[<h>branches: %a; loads: %a@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       (fun ppf (s, d) -> Format.fprintf ppf "site %d %s" s (if d then "taken" else "not-taken")))
    t.branches
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       (fun ppf (b, i, v) -> Format.fprintf ppf "L%d[%d]=%d" b i v))
    t.loads
