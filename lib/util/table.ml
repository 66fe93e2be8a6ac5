type align = Left | Right | Center

type row = Cells of string list | Separator

type t = {
  title : string;
  headers : string list;
  aligns : align list;
  mutable rows : row list; (* reversed *)
}

let create ~title ~columns =
  { title; headers = List.map fst columns; aligns = List.map snd columns; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.headers then
    invalid_arg "Table.add_row: arity mismatch with header";
  t.rows <- Cells cells :: t.rows

let add_sep t = t.rows <- Separator :: t.rows

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    match align with
    | Left -> s ^ String.make (width - n) ' '
    | Right -> String.make (width - n) ' ' ^ s
    | Center ->
      let l = (width - n) / 2 in
      String.make l ' ' ^ s ^ String.make (width - n - l) ' '

let render t =
  let rows = List.rev t.rows in
  let widths =
    List.fold_left
      (fun acc row ->
        match row with
        | Separator -> acc
        | Cells cells -> List.map2 (fun w c -> max w (String.length c)) acc cells)
      (List.map String.length t.headers)
      rows
  in
  let buf = Buffer.create 1024 in
  let hline () =
    Buffer.add_char buf '+';
    List.iter
      (fun w ->
        Buffer.add_string buf (String.make (w + 2) '-');
        Buffer.add_char buf '+')
      widths;
    Buffer.add_char buf '\n'
  in
  let emit_cells aligns cells =
    Buffer.add_char buf '|';
    List.iteri
      (fun i c ->
        let w = List.nth widths i in
        let a = List.nth aligns i in
        Buffer.add_char buf ' ';
        Buffer.add_string buf (pad a w c);
        Buffer.add_string buf " |")
      cells;
    Buffer.add_char buf '\n'
  in
  Buffer.add_string buf t.title;
  Buffer.add_char buf '\n';
  hline ();
  emit_cells (List.map (fun _ -> Center) t.headers) t.headers;
  hline ();
  List.iter
    (fun row ->
      match row with
      | Separator -> hline ()
      | Cells cells -> emit_cells t.aligns cells)
    rows;
  hline ();
  Buffer.contents buf

let fmt_float ?(decimals = 2) x = Printf.sprintf "%.*f" decimals x

let fmt_pct ?(decimals = 2) x = Printf.sprintf "%.*f%%" decimals (x *. 100.0)

let fmt_rate_pair ?(decimals = 1) ?(parens = false) ~correct ~incorrect () =
  let core =
    Printf.sprintf "%5.*f%% @ %8.5f%%" decimals (correct *. 100.0) (incorrect *. 100.0)
  in
  if parens then "(" ^ core ^ ")" else core

let fmt_int n =
  let s = string_of_int (abs n) in
  let len = String.length s in
  let buf = Buffer.create (len + (len / 3) + 1) in
  if n < 0 then Buffer.add_char buf '-';
  String.iteri
    (fun i c ->
      if i > 0 && (len - i) mod 3 = 0 then Buffer.add_char buf ',';
      Buffer.add_char buf c)
    s;
  Buffer.contents buf
