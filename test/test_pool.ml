module Pool = Rs_util.Pool

(* Uneven per-item work so completion order differs from submission
   order under contention: map_ordered must still return results in
   input order. *)
let busy n =
  let acc = ref 0 in
  for i = 1 to n do
    acc := (!acc * 7) + i
  done;
  !acc

let test_ordering () =
  let pool = Pool.create ~jobs:4 () in
  Fun.protect ~finally:(fun () -> Pool.close pool) @@ fun () ->
  let input = Array.init 64 (fun i -> i) in
  let out =
    Pool.map_ordered pool
      (fun i ->
        ignore (busy (if i mod 3 = 0 then 50_000 else 100));
        i * i)
      input
  in
  Alcotest.(check (array int)) "squares in input order"
    (Array.map (fun i -> i * i) input)
    out

let test_exception_propagation () =
  let pool = Pool.create ~jobs:4 () in
  Fun.protect ~finally:(fun () -> Pool.close pool) @@ fun () ->
  let input = Array.init 32 (fun i -> i) in
  (* several items fail; the lowest failing index (5) must win so the
     raised exception is deterministic *)
  let raised =
    try
      ignore
        (Pool.map_ordered pool
           (fun i ->
             ignore (busy 1_000);
             if i mod 5 = 0 && i > 0 then failwith (Printf.sprintf "boom %d" i);
             i)
           input);
      None
    with Failure msg -> Some msg
  in
  Alcotest.(check (option string)) "lowest failing index wins" (Some "boom 5") raised;
  (* a failed map must leave the pool usable *)
  let out = Pool.map_ordered pool (fun i -> i + 1) input in
  Alcotest.(check int) "pool survives a failure" 32 out.(31)

let test_reuse_and_nesting () =
  let pool = Pool.create ~jobs:3 () in
  Fun.protect ~finally:(fun () -> Pool.close pool) @@ fun () ->
  (* repeated maps on one pool *)
  for round = 1 to 5 do
    let out = Pool.map_ordered pool (fun i -> i * round) (Array.init 16 (fun i -> i)) in
    Alcotest.(check int) "reuse round" (15 * round) out.(15)
  done;
  (* nested map_ordered on the same pool: the outer tasks call back into
     the pool while holding worker slots — the caller-helps queue must
     not deadlock *)
  let out =
    Pool.map_ordered pool
      (fun i ->
        let inner = Pool.map_ordered pool (fun j -> (i * 10) + j) (Array.init 8 (fun j -> j)) in
        Array.fold_left ( + ) 0 inner)
      (Array.init 6 (fun i -> i))
  in
  let expected = Array.init 6 (fun i -> (i * 80) + 28) in
  Alcotest.(check (array int)) "nested maps" expected out

let test_sequential_path () =
  let pool = Pool.create ~jobs:1 () in
  Fun.protect ~finally:(fun () -> Pool.close pool) @@ fun () ->
  (* jobs=1 must run in the calling domain, in order *)
  let trace = ref [] in
  let out =
    Pool.map_ordered pool
      (fun i ->
        trace := i :: !trace;
        i)
      (Array.init 8 (fun i -> i))
  in
  Alcotest.(check (list int)) "strict left-to-right" [ 7; 6; 5; 4; 3; 2; 1; 0 ] !trace;
  Alcotest.(check (array int)) "identity" (Array.init 8 (fun i -> i)) out;
  (* pool.tasks counts every element, whichever path runs it *)
  let tasks_of p =
    let before = (Pool.stats ()).tasks in
    ignore (Pool.map_range p ~lo:0 ~hi:8 (fun i -> ignore (busy 1_000); i) : int array);
    (Pool.stats ()).tasks - before
  in
  Alcotest.(check int) "jobs 1 counts every element" 8 (tasks_of pool);
  let pool3 = Pool.create ~jobs:3 () in
  Fun.protect ~finally:(fun () -> Pool.close pool3) @@ fun () ->
  Alcotest.(check int) "jobs 3 counts every element" 8 (tasks_of pool3)

(* A failing map re-raises only its lowest-indexed error; the rest must
   be surfaced through the pool.suppressed_failures counter instead of
   being silently discarded. *)
let test_suppressed_failures_counted () =
  let c = Rs_obs.Metrics.counter "pool.suppressed_failures" in
  let before = Rs_obs.Metrics.counter_value c in
  let pool = Pool.create ~jobs:4 () in
  Fun.protect ~finally:(fun () -> Pool.close pool) @@ fun () ->
  (try
     ignore
       (Pool.map_ordered pool
          (fun i -> if i mod 4 = 0 then failwith (Printf.sprintf "boom %d" i) else i)
          (Array.init 16 (fun i -> i)))
   with Failure _ -> ());
  (* failures at 0, 4, 8, 12: index 0 propagates, three are suppressed *)
  Alcotest.(check int) "suppressed failures counted" 3 (Rs_obs.Metrics.counter_value c - before)

let[@inline never] deep_raise () = failwith "from-deep-raise"

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* The re-raise must carry the worker-side backtrace of the original
   failure, not the backtrace of the re-raise site inside pool.ml. *)
let test_backtrace_preserved () =
  let prev = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  Fun.protect ~finally:(fun () -> Printexc.record_backtrace prev) @@ fun () ->
  let pool = Pool.create ~jobs:3 () in
  Fun.protect ~finally:(fun () -> Pool.close pool) @@ fun () ->
  match
    Pool.map_ordered pool
      (fun i -> if i = 2 then deep_raise () else i)
      (Array.init 8 (fun i -> i))
  with
  | _ -> Alcotest.fail "expected the map to raise"
  | exception Failure msg ->
    let bt = Printexc.raw_backtrace_to_string (Printexc.get_raw_backtrace ()) in
    Alcotest.(check string) "original exception" "from-deep-raise" msg;
    Alcotest.(check bool)
      (Printf.sprintf "backtrace points into the raising task (got: %s)" bt)
      true
      (contains bt "test_pool" || not (Printexc.backtrace_status ()))

let suite =
  [
    Alcotest.test_case "ordering under contention" `Quick test_ordering;
    Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
    Alcotest.test_case "reuse and nesting" `Quick test_reuse_and_nesting;
    Alcotest.test_case "sequential path" `Quick test_sequential_path;
    Alcotest.test_case "suppressed failures counted" `Quick test_suppressed_failures_counted;
    Alcotest.test_case "backtrace preserved" `Quick test_backtrace_preserved;
  ]
