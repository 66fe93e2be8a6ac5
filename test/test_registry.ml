(* Registry invariants (see registry.mli): the static shape of the
   registry — unique well-formed names, unique CSV filenames, sane glob
   selection, and per entry a declared schema whose sheets all have
   columns with unique well-formed names.  Arity and kind hold by
   construction (every value comes from a typed column's extractor);
   executing each entry is test_golden's job, which pins its text and
   its JSON export. *)

module R = Rs_experiments.Registry

let names = List.map R.name R.all

let test_unique_names () =
  Alcotest.(check int) "18 paper artifacts + 3 adversarial entries" 21 (List.length R.all);
  Alcotest.(check int)
    "names unique" (List.length names)
    (List.length (List.sort_uniq compare names))

let name_char c = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '_'

let test_name_charset () =
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "%S well-formed" n)
        true
        (n <> "" && String.for_all name_char n))
    names

let sheet_names (R.Entry s) = List.map (fun (R.Sheet sh) -> sh.sheet) s.sheets

let test_unique_csv_filenames () =
  let files =
    List.concat_map
      (fun e -> List.map (fun sh -> R.name e ^ "_" ^ sh ^ ".csv") (sheet_names e))
      R.all
  in
  Alcotest.(check int)
    "csv filenames unique across the registry" (List.length files)
    (List.length (List.sort_uniq compare files))

let test_find () =
  List.iter
    (fun n ->
      match R.find n with
      | Some e -> Alcotest.(check string) "find round-trips" n (R.name e)
      | None -> Alcotest.failf "find %S returned nothing" n)
    names;
  Alcotest.(check bool) "find unknown" true (R.find "nonesuch" = None)

let test_glob () =
  let m p s = R.glob_matches ~pattern:p s in
  Alcotest.(check bool) "literal" true (m "figure2" "figure2");
  Alcotest.(check bool) "literal mismatch" false (m "figure2" "figure3");
  Alcotest.(check bool) "star prefix" true (m "table*" "table5");
  Alcotest.(check bool) "star alone" true (m "*" "anything");
  Alcotest.(check bool) "star infix" true (m "f*9" "figure9");
  Alcotest.(check bool) "question" true (m "figure?" "figure8");
  Alcotest.(check bool) "question needs a char" false (m "figure?" "figure");
  Alcotest.(check bool) "no partial match" false (m "figure" "figure2")

let test_select () =
  (match R.select [] with
  | Ok es -> Alcotest.(check int) "empty selects all" (List.length R.all) (List.length es)
  | Error e -> Alcotest.fail e);
  (match R.select [ "table*" ] with
  | Ok es ->
    Alcotest.(check (list string))
      "tables in registry order"
      [ "table1"; "table2"; "table3"; "table4"; "table5" ]
      (List.map R.name es)
  | Error e -> Alcotest.fail e);
  (match R.select [ "figure2"; "fig*" ] with
  | Ok es ->
    Alcotest.(check bool)
      "overlapping patterns collapse duplicates" true
      (List.length es = List.length (List.sort_uniq compare (List.map R.name es)))
  | Error e -> Alcotest.fail e);
  (match R.select [ "figure2"; "bogus*" ] with
  | Ok _ -> Alcotest.fail "unmatched pattern must be an error"
  | Error msg ->
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "error names the pattern" true (contains msg "bogus"));
  (* regression lock-in: the exact message `rspec run` prints (prefixed
     "rspec: ") before exiting non-zero on an unmatched glob *)
  match R.select [ "no_such_entry*" ] with
  | Ok _ -> Alcotest.fail "unmatched glob must be an error"
  | Error msg ->
    Alcotest.(check string)
      "exact unmatched-glob message"
      "no experiment matches \"no_such_entry*\" (see `rspec list`)" msg

(* The three adversarial entries each publish a claims-style verdicts
   sheet; hold every such sheet to the one schema so downstream
   consumers can union them. *)
let test_verdict_sheet_schema () =
  let with_verdicts =
    List.filter (fun e -> List.mem "verdicts" (sheet_names e)) R.all
  in
  Alcotest.(check bool)
    "claims + the three adversarial entries publish verdicts" true
    (List.length with_verdicts >= 4);
  List.iter
    (fun (R.Entry s as e) ->
      List.iter
        (fun (R.Sheet sh) ->
          if sh.sheet = "verdicts" then
            Alcotest.(check (list string))
              (R.name e ^ " verdict sheet schema")
              [ "claim"; "measured"; "pass" ]
              (List.map (fun (f : _ R.field) -> f.column.col) sh.columns))
        s.sheets)
    with_verdicts

(* Each sheet has columns, and its column names are unique and
   well-formed: they are CSV header fields and JSON column names. *)
let test_entry_schema (R.Entry s) () =
  List.iter
    (fun (R.Sheet sh) ->
      let what = Printf.sprintf "%s/%s" s.name sh.sheet in
      let cols = List.map (fun (f : _ R.field) -> f.column.col) sh.columns in
      Alcotest.(check bool) (what ^ " has columns") true (cols <> []);
      Alcotest.(check int)
        (what ^ " column names unique") (List.length cols)
        (List.length (List.sort_uniq compare cols));
      List.iter
        (fun c ->
          Alcotest.(check bool)
            (Printf.sprintf "%s column %S well-formed" what c)
            true
            (c <> "" && String.for_all name_char c))
        cols)
    s.sheets

let suite =
  [
    Alcotest.test_case "names unique" `Quick test_unique_names;
    Alcotest.test_case "names well-formed" `Quick test_name_charset;
    Alcotest.test_case "csv filenames unique" `Quick test_unique_csv_filenames;
    Alcotest.test_case "find" `Quick test_find;
    Alcotest.test_case "glob" `Quick test_glob;
    Alcotest.test_case "select" `Quick test_select;
    Alcotest.test_case "verdict sheet schema" `Quick test_verdict_sheet_schema;
  ]
  @ List.map
      (fun e -> Alcotest.test_case (R.name e ^ " schema") `Quick (test_entry_schema e))
      R.all
