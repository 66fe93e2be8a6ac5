type t = { claim : string; measured : string; pass : bool }

let render buf verdicts =
  List.iter
    (fun v ->
      Buffer.add_string buf
        (Printf.sprintf "  [%s] %s\n        measured: %s\n"
           (if v.pass then "PASS" else "FAIL")
           v.claim v.measured))
    verdicts
