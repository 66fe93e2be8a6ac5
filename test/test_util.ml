module Hist = Rs_util.Histogram
module Table = Rs_util.Table
module Csv = Rs_util.Csv

(* --- histogram ---------------------------------------------------------- *)

(* Observations in bin [i], read through [to_list] as Figure 6 does. *)
let bin_count h i = snd (List.nth (Hist.to_list h) i)
let total h = List.fold_left (fun acc (_, c) -> acc + c) 0 (Hist.to_list h)

let test_hist_binning () =
  let h = Hist.create ~bins:10 () in
  Hist.add h 0.05;
  Hist.add h 0.15;
  Hist.add h 0.15;
  Hist.add h 0.999;
  Alcotest.(check int) "total" 4 (total h);
  Alcotest.(check int) "bin 0" 1 (bin_count h 0);
  Alcotest.(check int) "bin 1" 2 (bin_count h 1);
  Alcotest.(check int) "bin 9" 1 (bin_count h 9)

let test_hist_clamping () =
  let h = Hist.create ~bins:4 () in
  Hist.add h (-5.0);
  Hist.add h 17.0;
  Alcotest.(check int) "low clamp" 1 (bin_count h 0);
  Alcotest.(check int) "high clamp" 1 (bin_count h 3)

(* --- table and csv ------------------------------------------------------ *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_table_render () =
  let t = Table.create ~title:"T" ~columns:[ ("a", Table.Left); ("b", Table.Right) ] in
  Table.add_row t [ "x"; "1" ];
  Table.add_sep t;
  Table.add_row t [ "yy"; "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "has title" true (String.length s > 0 && s.[0] = 'T');
  Alcotest.(check bool) "mentions yy" true (contains s "yy");
  Alcotest.(check bool) "mentions header" true (contains s "a");
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: arity mismatch with header")
    (fun () -> Table.add_row t [ "only-one" ])

let test_table_formats () =
  Alcotest.(check string) "float" "3.14" (Table.fmt_float ~decimals:2 3.14159);
  Alcotest.(check string) "pct" "12.3%" (Table.fmt_pct ~decimals:1 0.1234);
  Alcotest.(check string) "int" "1,234,567" (Table.fmt_int 1234567);
  Alcotest.(check string) "negative int" "-1,234" (Table.fmt_int (-1234))

(* A CSV export as [rspec run --format csv --out DIR] writes it: the
   rendered sheet through [Fsutil.write_file], header first. *)
let test_csv_save () =
  let c = Csv.create ~header:[ "x" ] in
  Csv.add_row c [ "1" ];
  let dir = Filename.temp_file "rs_test" "" in
  Sys.remove dir;
  let path = Rs_util.Fsutil.write_file dir "t.csv" (Csv.render c) in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      Sys.rmdir dir)
    (fun () ->
      Alcotest.(check string) "path" (Filename.concat dir "t.csv") path;
      let ic = open_in path in
      let line = input_line ic in
      close_in ic;
      Alcotest.(check string) "header written" "x" line)

let test_fmt_int_edge () =
  Alcotest.(check string) "zero" "0" (Table.fmt_int 0);
  Alcotest.(check string) "three digits" "999" (Table.fmt_int 999);
  Alcotest.(check string) "four digits" "1,000" (Table.fmt_int 1000)

let test_render_stable () =
  let t = Table.create ~title:"t" ~columns:[ ("a", Table.Center) ] in
  Table.add_row t [ "v" ];
  Alcotest.(check string) "render is pure" (Table.render t) (Table.render t)

let test_csv () =
  let c = Csv.create ~header:[ "a"; "b" ] in
  Csv.add_row c [ "1"; "he,llo" ];
  Csv.add_row c [ "2"; "say \"hi\"" ];
  let s = Csv.render c in
  Alcotest.(check string) "render" "a,b\n1,\"he,llo\"\n2,\"say \"\"hi\"\"\"\n" s;
  Alcotest.(check string) "header written" "a,b" (List.hd (String.split_on_char '\n' s));
  Alcotest.check_raises "arity" (Invalid_argument "Csv.add_row: arity mismatch") (fun () ->
      Csv.add_row c [ "x" ])

let test_float_field () =
  Alcotest.(check string) "finite" "0.123457" (Csv.float_field 0.1234567);
  Alcotest.(check string) "integral" "2.000000" (Csv.float_field 2.0);
  Alcotest.(check string) "inf" "inf" (Csv.float_field infinity);
  Alcotest.(check string) "-inf" "-inf" (Csv.float_field neg_infinity);
  Alcotest.(check string) "nan" "nan" (Csv.float_field nan)

(* [write_file]'s directory creation, the [mkdir -p] every export uses *)
let test_ensure_dir () =
  let base = Filename.temp_file "rs_fsutil" "" in
  Sys.remove base;
  let deep = Filename.concat (Filename.concat base "a") "b" in
  let file = Rs_util.Fsutil.write_file deep "f" "" in
  Alcotest.(check bool) "creates parents" true (Sys.is_directory deep);
  (* Idempotent on an existing directory (the EEXIST path). *)
  Alcotest.(check string) "idempotent" file (Rs_util.Fsutil.write_file deep "f" "");
  match Rs_util.Fsutil.write_file file "g" "" with
  | _ -> Alcotest.fail "creating a directory over a regular file must raise"
  | exception Sys_error _ -> ()

let suite =
  [
    Alcotest.test_case "histogram binning" `Quick test_hist_binning;
    Alcotest.test_case "histogram clamping" `Quick test_hist_clamping;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table formats" `Quick test_table_formats;
    Alcotest.test_case "csv" `Quick test_csv;
    Alcotest.test_case "csv save" `Quick test_csv_save;
    Alcotest.test_case "csv float_field" `Quick test_float_field;
    Alcotest.test_case "fsutil ensure_dir" `Quick test_ensure_dir;
    Alcotest.test_case "fmt_int edges" `Quick test_fmt_int_edge;
    Alcotest.test_case "table render stable" `Quick test_render_stable;
  ]
