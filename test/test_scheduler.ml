(* The shared-queue scheduler: map_range over the open-job queue,
   caller-first claiming, jobs-independence under random nesting, and
   memo waits that park inside pool maps. *)

module Pool = Rs_util.Pool
module Memo = Rs_util.Memo
module Metrics = Rs_obs.Metrics

let busy n =
  let acc = ref 0 in
  for i = 1 to n do
    acc := (!acc * 7) + i
  done;
  !acc

let with_pool ?(jobs = 4) f =
  let pool = Pool.create ~jobs () in
  Fun.protect ~finally:(fun () -> Pool.close pool) @@ fun () -> f pool

(* --- map_range ------------------------------------------------------------- *)

let test_map_range_basics () =
  with_pool @@ fun pool ->
  Alcotest.(check (array int)) "empty range" [||] (Pool.map_range pool ~lo:3 ~hi:3 Fun.id);
  Alcotest.(check (array int)) "offset range" [| 9; 16; 25 |]
    (Pool.map_range pool ~lo:3 ~hi:6 (fun i -> i * i));
  Alcotest.(check (array int)) "uneven elements" (Array.init 50 Fun.id)
    (Pool.map_range pool ~lo:0 ~hi:50 (fun i -> ignore (busy 100); i))

let test_map_range_shared () =
  let shared_before = (Pool.stats ()).shared in
  with_pool ~jobs:4 @@ fun pool ->
  (* enough uneven work that idle workers provably take chunks *)
  let out =
    Pool.map_range pool ~lo:0 ~hi:64 (fun i ->
        ignore (busy (if i mod 7 = 0 then 400_000 else 2_000));
        i)
  in
  Alcotest.(check (array int)) "results in order" (Array.init 64 Fun.id) out;
  Alcotest.(check bool) "work ran on more than one domain" true
    ((Pool.stats ()).shared > shared_before)

let test_map_range_jobs1_strict_order () =
  with_pool ~jobs:1 @@ fun pool ->
  let trace = ref [] in
  let out =
    Pool.map_range pool ~lo:2 ~hi:10 (fun i ->
        trace := i :: !trace;
        i)
  in
  Alcotest.(check (list int)) "strict left-to-right" [ 9; 8; 7; 6; 5; 4; 3; 2 ] !trace;
  Alcotest.(check (array int)) "values" (Array.init 8 (fun i -> i + 2)) out

(* Random nesting depths and uneven durations: results must not depend
   on jobs.  Uses the repo PRNG so failures replay deterministically. *)
let nested_identity_prop (seed, n, depth, width) =
  let rec go pool ~seed ~depth i =
    let h = (seed * 1_000_003) + (i * 8191) + depth land 0xffffff in
    ignore (busy (h land 0x1ff));
    if depth = 0 then h land 0xffff
    else
      let inner =
        Pool.map_range pool ~lo:0 ~hi:width (fun j -> go pool ~seed:(h + j) ~depth:(depth - 1) j)
      in
      Array.fold_left ( + ) (h land 0xffff) inner
  in
  let run jobs =
    let pool = Pool.create ~jobs () in
    Fun.protect ~finally:(fun () -> Pool.close pool) @@ fun () ->
    Pool.map_range pool ~lo:0 ~hi:n (fun i -> go pool ~seed ~depth i)
  in
  run 1 = run 8

let nested_identity_test =
  Prop.test ~count:10 "nested map_range is jobs-independent"
    ~print:(fun (s, n, d, w) -> Printf.sprintf "seed=%d n=%d depth=%d width=%d" s n d w)
    (fun rng ->
      ( Prop.int ~lo:0 ~hi:1_000_000 rng,
        Prop.int ~lo:0 ~hi:9 rng,
        Prop.int ~lo:0 ~hi:2 rng,
        Prop.int ~lo:1 ~hi:5 rng ))
    nested_identity_prop

(* --- memo waits park inside pool maps ------------------------------------- *)

let wait_until ?(timeout = 10.0) cond =
  let t0 = Unix.gettimeofday () in
  while (not (cond ())) && Unix.gettimeofday () -. t0 < timeout do
    Unix.sleepf 0.001
  done;
  cond ()

(* Run [f] in a fresh domain and fail, instead of hanging, if it has not
   returned within [seconds].  A domain that hangs is left behind. *)
let with_watchdog ?(seconds = 20.0) what f =
  let result = Atomic.make None in
  let d = Domain.spawn (fun () -> Atomic.set result (Some (try Ok (f ()) with e -> Error e))) in
  if not (wait_until ~timeout:seconds (fun () -> Option.is_some (Atomic.get result))) then
    Alcotest.failf "%s: no result after %.0f s" what seconds;
  Domain.join d;
  match Atomic.get result with Some (Ok v) -> v | Some (Error e) -> raise e | None -> assert false

(* Hold the one worker of a jobs-2 pool until [release ()] holds, then
   run [f pool].  A spawned domain maps two elements that meet at a
   barrier, so the worker runs one of them, and both wait for
   [release]: neither that domain nor the worker takes other work
   meanwhile.  The domain is joined before the pool closes. *)
let with_held_worker release f =
  with_pool ~jobs:2 @@ fun pool ->
  let arrived = Atomic.make 0 in
  let holder =
    Domain.spawn (fun () ->
        ignore
          (Pool.map_range pool ~lo:0 ~hi:2 (fun _ ->
               Atomic.incr arrived;
               ignore (wait_until (fun () -> Atomic.get arrived = 2));
               ignore (wait_until ~timeout:120.0 release))
            : unit array))
  in
  ignore (wait_until (fun () -> Atomic.get arrived = 2));
  Fun.protect ~finally:(fun () -> Domain.join holder) @@ fun () -> f pool

(* A jobs-2 pool whose one worker is kept busy, so the tasks a map
   queues can only run on the domain that maps. *)
let with_busy_worker f =
  let stop = Atomic.make false in
  with_held_worker (fun () -> Atomic.get stop) @@ fun pool ->
  Fun.protect ~finally:(fun () -> Atomic.set stop true) @@ fun () -> f pool

(* Hold [key] in flight from a domain outside every pool until [body]
   returns; returns once the key is in flight. *)
let compute_outside m key body =
  let started = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Memo.find_or_compute m ~label:"t" key (fun () ->
            Atomic.set started true;
            body ()))
  in
  ignore (wait_until (fun () -> Atomic.get started));
  d

(* A domain inside a compute body blocks on an in-flight key.  If it
   helped the pool instead, it would pop the queued task, which needs
   the key the domain is itself computing, and wait for it forever. *)
let test_compute_body_blocks () =
  let m = Memo.create "test-body-blocks" in
  let find key f = Memo.find_or_compute m ~label:"t" key f in
  let entered = Atomic.make false and slow_done = Atomic.make false in
  let slow =
    compute_outside m "slow" (fun () ->
        ignore (wait_until (fun () -> Atomic.get entered));
        Unix.sleepf 0.2;
        Atomic.set slow_done true;
        1)
  in
  let waits = Metrics.counter "test-body-blocks.waits" in
  let blocked = Metrics.counter_value waits in
  let early = Atomic.make false in
  let out =
    with_busy_worker @@ fun pool ->
    with_watchdog "a waiter inside a compute body" @@ fun () ->
    Pool.map_range pool ~lo:0 ~hi:2 (fun i ->
        if i = 0 then
          find "outer" (fun () ->
              Atomic.set entered true;
              find "slow" (fun () -> 0) + 1)
        else begin
          if not (Atomic.get slow_done) then Atomic.set early true;
          find "outer" (fun () -> 100)
        end)
  in
  Alcotest.(check int) "slow key" 1 (Domain.join slow);
  Alcotest.(check (array int)) "both tasks see the outer key" [| 2; 2 |] out;
  Alcotest.(check bool) "the queued task did not run during the wait" false (Atomic.get early);
  Alcotest.(check bool) "the wait was a parked one" true (Metrics.counter_value waits > blocked)

(* A publish from a domain outside the pool wakes a waiter parked
   inside a pool map: the map's caller, which claims the waiting element
   first.  The key publishes once that waiter is parked. *)
let test_outside_publish_wakes_helper () =
  let m = Memo.create "test-outside-wakes" in
  let waits = Metrics.counter "test-outside-wakes.waits" in
  let parked = Metrics.counter_value waits + 1 in
  let slow =
    compute_outside m "slow" (fun () ->
        ignore (wait_until (fun () -> Metrics.counter_value waits >= parked));
        Unix.sleepf 0.2;
        1)
  in
  let out =
    with_busy_worker @@ fun pool ->
    with_watchdog "a parked waiter" @@ fun () ->
    Pool.map_range pool ~lo:0 ~hi:2 (fun i ->
        if i = 0 then Memo.find_or_compute m ~label:"t" "slow" (fun () -> 0) else 7)
  in
  Alcotest.(check int) "slow key" 1 (Domain.join slow);
  Alcotest.(check (array int)) "results" [| 1; 7 |] out

(* --- caller first ------------------------------------------------------ *)

(* While an older map's job is still open, a nested map's caller claims
   all of its own elements before any element of the older job, and an
   idle helper takes the newest open job first.  The worker is held
   until the nested map is open, so its first choice is between the two
   jobs. *)
let test_caller_first () =
  let release = Atomic.make false in
  with_held_worker (fun () -> Atomic.get release) @@ fun pool ->
  Fun.protect ~finally:(fun () -> Atomic.set release true) @@ fun () ->
  let lock = Mutex.create () and log = ref [] in
  let record map i =
    Mutex.lock lock;
    log := (Domain.self (), map, i) :: !log;
    Mutex.unlock lock
  in
  let another_domain_ran () =
    let me = Domain.self () in
    Mutex.lock lock;
    let ran = List.exists (fun (d, _, _) -> d <> me) !log in
    Mutex.unlock lock;
    ran
  in
  let caller =
    with_watchdog "caller-first nesting" @@ fun () ->
    ignore
      (Pool.map_range pool ~lo:0 ~hi:4 (fun i ->
           record "outer" i;
           if i = 0 then
             ignore
               (Pool.map_range pool ~lo:0 ~hi:4 (fun j ->
                    record "inner" j;
                    (* the caller's own first claim frees the worker *)
                    if j = 0 then begin
                      Atomic.set release true;
                      ignore (wait_until another_domain_ran)
                    end)
                 : unit array))
        : unit array);
    Domain.self ()
  in
  let mine, helper = List.partition (fun (d, _, _) -> d = caller) (List.rev !log) in
  (match helper with
  | (_, map, _) :: _ -> Alcotest.(check string) "the helper's first element" "inner" map
  | [] -> Alcotest.fail "the helper ran nothing");
  let rec after_later_outer = function
    | [] -> []
    | (_, "outer", i) :: rest when i > 0 -> rest
    | _ :: rest -> after_later_outer rest
  in
  Alcotest.(check bool) "the nested caller ran no later outer element before its own" false
    (List.exists (fun (_, map, _) -> map = "inner") (after_later_outer mine))

let suite =
  [
    Alcotest.test_case "map_range basics" `Quick test_map_range_basics;
    Alcotest.test_case "map_range shares work" `Quick test_map_range_shared;
    Alcotest.test_case "map_range jobs=1 strict order" `Quick test_map_range_jobs1_strict_order;
    Alcotest.test_case "nested caller claims its own elements first" `Quick test_caller_first;
    nested_identity_test;
    Alcotest.test_case "cache wait in a compute body blocks" `Quick test_compute_body_blocks;
    Alcotest.test_case "outside publish wakes a helper" `Quick test_outside_publish_wakes_helper;
  ]
