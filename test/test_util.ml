module Stats = Rs_util.Running_stats
module Hist = Rs_util.Histogram
module Table = Rs_util.Table
module Csv = Rs_util.Csv

(* --- running stats ------------------------------------------------------ *)

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  Alcotest.(check int) "count" 8 (Stats.count s);
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Stats.mean s);
  Alcotest.(check (float 1e-9)) "min" 2.0 (Stats.min s);
  Alcotest.(check (float 1e-9)) "max" 9.0 (Stats.max s);
  Alcotest.(check (float 1e-9)) "sum" 40.0 (Stats.sum s);
  (* sample variance of that set is 32/7 *)
  Alcotest.(check (float 1e-9)) "variance" (32.0 /. 7.0) (Stats.variance s)

let test_stats_empty () =
  let s = Stats.create () in
  Alcotest.(check (float 0.0)) "mean of empty" 0.0 (Stats.mean s);
  Alcotest.(check (float 0.0)) "variance of empty" 0.0 (Stats.variance s)

let test_stats_merge () =
  let a = Stats.create () and b = Stats.create () and whole = Stats.create () in
  let rng = Rs_util.Prng.create 99 in
  for i = 1 to 1000 do
    let x = Rs_util.Prng.float rng 10.0 in
    Stats.add (if i <= 400 then a else b) x;
    Stats.add whole x
  done;
  let merged = Stats.merge a b in
  Alcotest.(check int) "merged count" (Stats.count whole) (Stats.count merged);
  Alcotest.(check (float 1e-9)) "merged mean" (Stats.mean whole) (Stats.mean merged);
  Alcotest.(check (float 1e-6)) "merged variance" (Stats.variance whole) (Stats.variance merged);
  Alcotest.(check (float 1e-9)) "merged min" (Stats.min whole) (Stats.min merged);
  Alcotest.(check (float 1e-9)) "merged max" (Stats.max whole) (Stats.max merged)

(* --- histogram ---------------------------------------------------------- *)

let test_hist_binning () =
  let h = Hist.create ~bins:10 () in
  Hist.add h 0.05;
  Hist.add h 0.15;
  Hist.add h 0.15;
  Hist.add h 0.999;
  Alcotest.(check int) "total" 4 (Hist.count h);
  Alcotest.(check int) "bin 0" 1 (Hist.bin_count h 0);
  Alcotest.(check int) "bin 1" 2 (Hist.bin_count h 1);
  Alcotest.(check int) "bin 9" 1 (Hist.bin_count h 9)

let test_hist_clamping () =
  let h = Hist.create ~bins:4 () in
  Hist.add h (-5.0);
  Hist.add h 17.0;
  Alcotest.(check int) "low clamp" 1 (Hist.bin_count h 0);
  Alcotest.(check int) "high clamp" 1 (Hist.bin_count h 3)

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

let test_csv_save () =
  let c = Csv.create ~header:[ "x" ] in
  Csv.add_row c [ "1" ];
  let path = Filename.temp_file "rs_test" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Csv.save c path;
      let ic = open_in path in
      let line = input_line ic in
      close_in ic;
      Alcotest.(check string) "header written" "x" line)

let test_hist_add_many () =
  let h = Hist.create ~bins:4 () in
  Hist.add_many h 0.1 5;
  Alcotest.(check int) "multiplicity" 5 (Hist.count h);
  Alcotest.(check int) "in one bin" 5 (Hist.bin_count h 0)

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
  Alcotest.check_raises "arity" (Invalid_argument "Csv.add_row: arity mismatch") (fun () ->
      Csv.add_row c [ "x" ])

let test_float_field () =
  Alcotest.(check string) "finite" "0.123457" (Csv.float_field 0.1234567);
  Alcotest.(check string) "integral" "2.000000" (Csv.float_field 2.0);
  Alcotest.(check string) "inf" "inf" (Csv.float_field infinity);
  Alcotest.(check string) "-inf" "-inf" (Csv.float_field neg_infinity);
  Alcotest.(check string) "nan" "nan" (Csv.float_field nan)

let test_ensure_dir () =
  let base = Filename.temp_file "rs_fsutil" "" in
  Sys.remove base;
  let deep = Filename.concat (Filename.concat base "a") "b" in
  Rs_util.Fsutil.ensure_dir deep;
  Alcotest.(check bool) "creates parents" true (Sys.is_directory deep);
  (* Idempotent on an existing directory (the EEXIST path). *)
  Rs_util.Fsutil.ensure_dir deep;
  Alcotest.(check bool) "idempotent" true (Sys.is_directory deep);
  Rs_util.Fsutil.ensure_dir ".";
  let file = Filename.concat deep "f" in
  let oc = open_out file in
  close_out oc;
  match Rs_util.Fsutil.ensure_dir file with
  | () -> Alcotest.fail "ensure_dir over a regular file must raise"
  | exception Sys_error _ -> ()

let suite =
  [
    Alcotest.test_case "running stats basics" `Quick test_stats_basic;
    Alcotest.test_case "running stats empty" `Quick test_stats_empty;
    Alcotest.test_case "running stats merge" `Quick test_stats_merge;
    Alcotest.test_case "histogram binning" `Quick test_hist_binning;
    Alcotest.test_case "histogram clamping" `Quick test_hist_clamping;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table formats" `Quick test_table_formats;
    Alcotest.test_case "csv" `Quick test_csv;
    Alcotest.test_case "csv save" `Quick test_csv_save;
    Alcotest.test_case "csv float_field" `Quick test_float_field;
    Alcotest.test_case "fsutil ensure_dir" `Quick test_ensure_dir;
    Alcotest.test_case "histogram add_many" `Quick test_hist_add_many;
    Alcotest.test_case "fmt_int edges" `Quick test_fmt_int_edge;
    Alcotest.test_case "table render stable" `Quick test_render_stable;
  ]
