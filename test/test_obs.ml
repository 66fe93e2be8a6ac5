(* The observability layer: metrics registry (striped, domain-safe),
   JSONL tracing, and the determinism guarantees the ROADMAP's parallel
   runner relies on — metrics counters identical at jobs=1 and jobs=4,
   trace transition streams byte-identical across equal-seed runs. *)

module Metrics = Rs_obs.Metrics
module Trace = Rs_obs.Trace
module E = Rs_experiments
module BM = Rs_workload.Benchmark

(* --- a minimal JSONL parser (flat objects of scalars) --------------------- *)

let parse_json_flat line =
  let n = String.length line in
  let pos = ref 0 in
  let fail msg = failwith (Printf.sprintf "JSON error at %d (%s): %s" !pos msg line) in
  let peek () = if !pos < n then line.[!pos] else fail "eof" in
  let advance () = incr pos in
  let expect c = if peek () <> c then fail (Printf.sprintf "expected %c" c) else advance () in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (match peek () with
        | 'n' -> Buffer.add_char buf '\n'
        | 't' -> Buffer.add_char buf '\t'
        | 'r' -> Buffer.add_char buf '\r'
        | 'u' ->
          (* consume 'u' plus three of the four hex digits here; the
             shared advance below takes the fourth *)
          advance ();
          advance ();
          advance ();
          advance ();
          Buffer.add_char buf '?'
        | c -> Buffer.add_char buf c);
        advance ();
        go ()
      | c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_scalar () =
    if peek () = '"' then `String (parse_string ())
    else begin
      let start = !pos in
      while !pos < n && (match line.[!pos] with ',' | '}' -> false | _ -> true) do
        advance ()
      done;
      match String.sub line start (!pos - start) with
      | "true" -> `Bool true
      | "false" -> `Bool false
      | "null" -> `Null
      | s -> (
        match float_of_string_opt s with Some f -> `Number f | None -> fail ("bad scalar " ^ s))
    end
  in
  expect '{';
  let rec fields acc =
    let k = parse_string () in
    expect ':';
    let v = parse_scalar () in
    let acc = (k, v) :: acc in
    match peek () with
    | ',' ->
      advance ();
      fields acc
    | '}' ->
      advance ();
      List.rev acc
    | _ -> fail "expected , or }"
  in
  let out = fields [] in
  if !pos <> n then fail "trailing garbage";
  out

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with line -> go (line :: acc) | exception End_of_file -> List.rev acc
      in
      go [])

(* --- metrics registry ------------------------------------------------------ *)

let test_metrics_basics () =
  let c = Metrics.counter "test.basics.counter" in
  Metrics.incr c;
  Metrics.add c 9;
  Alcotest.(check int) "counter sums" 10 (Metrics.counter_value c);
  Alcotest.(check bool) "idempotent registration" true (c == Metrics.counter "test.basics.counter");
  let g = Metrics.gauge "test.basics.gauge" in
  Metrics.set g 42;
  let snapshot_of name = List.assoc name (Metrics.snapshot ()) in
  Alcotest.(check bool) "gauge last-write" true
    (snapshot_of "test.basics.gauge" = Metrics.Gauge_value 42);
  let h = Metrics.histogram "test.basics.hist" ~bounds:[| 1.0; 10.0 |] in
  Metrics.observe h 0.5;
  Metrics.observe h 5.0;
  Metrics.observe h 50.0;
  (match snapshot_of "test.basics.hist" with
  | Metrics.Histogram_value { counts; _ } ->
    Alcotest.(check (array int)) "buckets" [| 1; 1; 1 |] counts
  | _ -> Alcotest.fail "test.basics.hist is not a histogram");
  Alcotest.check_raises "kind clash"
    (Invalid_argument "Metrics: test.basics.counter already registered with another kind")
    (fun () -> ignore (Metrics.gauge "test.basics.counter"));
  let summary = Metrics.render_summary () in
  Alcotest.(check bool) "summary mentions the counter" true
    (contains summary "test.basics.counter")

let test_metrics_concurrent () =
  let c = Metrics.counter "test.concurrent.counter" in
  let before = Metrics.counter_value c in
  let pool = Rs_util.Pool.create ~jobs:4 () in
  Fun.protect
    ~finally:(fun () -> Rs_util.Pool.close pool)
    (fun () ->
      ignore
        (Rs_util.Pool.map_ordered pool
           (fun _ ->
             for _ = 1 to 100 do
               Metrics.incr c
             done)
           (Array.init 40 Fun.id)));
  Alcotest.(check int) "no lost increments" (before + 4_000) (Metrics.counter_value c)

(* --- trace sink ------------------------------------------------------------ *)

let test_trace_jsonl () =
  let path = Filename.temp_file "rs_trace" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Trace.to_file path;
  Alcotest.(check bool) "enabled while installed" true (Trace.enabled ());
  Trace.emit "unit" [ S ("text", "quote \" backslash \\ newline \n done"); I ("k", -3) ];
  Trace.emit "unit" [ F ("x", 1.5); F ("bad", infinity); B ("flag", true) ];
  Trace.stop ();
  Alcotest.(check bool) "disabled after stop" false (Trace.enabled ());
  match List.map parse_json_flat (read_lines path) with
  | [ first; second ] ->
    Alcotest.(check bool) "ev tag first" true (List.hd first = ("ev", `String "unit"));
    Alcotest.(check bool) "string round-trips" true
      (List.assoc "text" first = `String "quote \" backslash \\ newline \n done");
    Alcotest.(check bool) "int field" true (List.assoc "k" first = `Number (-3.0));
    Alcotest.(check bool) "float field" true (List.assoc "x" second = `Number 1.5);
    Alcotest.(check bool) "non-finite floats become null" true (List.assoc "bad" second = `Null);
    Alcotest.(check bool) "bool field" true (List.assoc "flag" second = `Bool true)
  | lines -> Alcotest.failf "expected 2 lines, got %d" (List.length lines)

(* --- metrics counters are jobs-independent --------------------------------- *)

(* Counter names outside the scheduler: [pool.*] legitimately differs
   between jobs=1 (the map short-circuits, no tasks) and jobs=4. *)
let result_counters () =
  Metrics.snapshot ()
  |> List.filter_map (fun (name, v) ->
         match v with
         | Metrics.Counter_value n
           when not (String.length name >= 5 && String.sub name 0 5 = "pool.") ->
           Some (name, n)
         | _ -> None)

let test_metrics_jobs_determinism () =
  let run jobs =
    E.Cache.reset ();
    Metrics.reset ();
    let ctx = E.Context.create ~seed:42 ~scale:0.02 ~tau:10 ~jobs () in
    ignore (E.Figure5.run ctx);
    let counters = result_counters () in
    E.Cache.reset ();
    counters
  in
  let seq = run 1 and par = run 4 in
  Alcotest.(check (list (pair string int))) "counters identical at jobs=1 and jobs=4" seq par;
  Alcotest.(check bool) "engine counters non-trivial" true
    (List.exists (fun (n, v) -> n = "engine.events" && v > 0) seq)

(* --- trace transitions are byte-identical across equal-seed runs ----------- *)

let test_trace_transition_determinism () =
  let ctx = E.Context.create ~seed:42 ~scale:0.02 ~tau:10 () in
  let bm = List.hd BM.all in
  let pop, cfg = E.Context.build ctx bm ~input:Ref in
  let params = E.Context.params ctx in
  let capture () =
    let path = Filename.temp_file "rs_trace" ".jsonl" in
    Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
    Trace.to_file path;
    ignore (Rs_sim.Engine.run ~label:bm.name pop cfg params);
    Trace.stop ();
    read_lines path
    |> List.filter (fun l -> contains l "\"ev\":\"transition\"")
    |> String.concat "\n"
  in
  let first = capture () and second = capture () in
  Alcotest.(check bool) "transitions recorded" true (String.length first > 0);
  Alcotest.(check string) "transition stream byte-identical" first second

(* --- cache hit/miss counters under concurrent pool workers ----------------- *)

let test_cache_concurrent_hits () =
  E.Cache.reset ();
  Fun.protect ~finally:E.Cache.reset @@ fun () ->
  let ctx = E.Context.create ~seed:42 ~scale:0.02 ~tau:10 () in
  let bm = List.hd BM.all in
  (* Prime the entry (one miss), then hammer it from four domains: every
     lookup must be counted, none lost. *)
  ignore (E.Cache.build ctx bm ~input:Ref);
  let pool = Rs_util.Pool.create ~jobs:4 () in
  Fun.protect
    ~finally:(fun () -> Rs_util.Pool.close pool)
    (fun () ->
      ignore
        (Rs_util.Pool.map_ordered pool
           (fun _ -> ignore (E.Cache.build ctx bm ~input:Ref))
           (Array.init 64 Fun.id)));
  let s = E.Cache.stats () in
  Alcotest.(check int) "one miss" 1 s.build_misses;
  Alcotest.(check int) "every concurrent hit counted" 64 s.build_hits

let suite =
  [
    Alcotest.test_case "metrics basics" `Quick test_metrics_basics;
    Alcotest.test_case "metrics concurrent increments" `Quick test_metrics_concurrent;
    Alcotest.test_case "trace jsonl round-trip" `Quick test_trace_jsonl;
    Alcotest.test_case "metrics jobs determinism" `Slow test_metrics_jobs_determinism;
    Alcotest.test_case "trace transition determinism" `Slow test_trace_transition_determinism;
    Alcotest.test_case "cache concurrent hit counting" `Quick test_cache_concurrent_hits;
  ]
