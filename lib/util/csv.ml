type t = { header : string list; mutable rows : string list list (* reversed *) }

let create ~header = { header; rows = [] }

let add_row t row =
  if List.length row <> List.length t.header then invalid_arg "Csv.add_row: arity mismatch";
  t.rows <- row :: t.rows

let escape field =
  let needs_quote =
    String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') field
  in
  if not needs_quote then field
  else begin
    let buf = Buffer.create (String.length field + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      field;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end

let render t =
  let line cells = String.concat "," (List.map escape cells) in
  String.concat "\n" (line t.header :: List.rev_map line t.rows) ^ "\n"

let float_field x =
  if Float.is_finite x then Printf.sprintf "%.6f" x
  else if Float.is_nan x then "nan"
  else if x > 0.0 then "inf"
  else "-inf"
