(* The fault-injection subsystem and the failure semantics it exercises:
   plan replay determinism, cache retry-until-success byte-identity,
   reset-during-compute, pool lifecycle enforcement and degradation,
   trace write faults and flush-on-abnormal-exit (subprocess). *)

module Fault = Rs_fault.Fault
module Pool = Rs_util.Pool
module Memo = Rs_util.Memo
module Metrics = Rs_obs.Metrics
module Trace = Rs_obs.Trace
module E = Rs_experiments
module BM = Rs_workload.Benchmark

let with_faults spec f =
  (match Fault.configure_spec spec with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "bad fault spec %S: %s" spec msg);
  Fun.protect ~finally:Fault.disable f

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

(* --- plan spec parsing ----------------------------------------------------- *)

let test_spec_parsing () =
  (match Fault.parse_spec "seed=9, rate=0.25,delay=0.5,delay_us=50,max_raises=2,sites=cache.build:pool,delay_sites=trace" with
  | Ok p ->
    Alcotest.(check int) "seed" 9 p.seed;
    Alcotest.(check (float 1e-9)) "rate" 0.25 p.rate;
    Alcotest.(check (float 1e-9)) "delay" 0.5 p.delay;
    Alcotest.(check int) "delay_us" 50 p.delay_us;
    Alcotest.(check int) "max_raises" 2 p.max_raises;
    Alcotest.(check (list string)) "sites" [ "cache.build"; "pool" ] p.sites;
    Alcotest.(check (list string)) "delay_sites" [ "trace" ] p.delay_sites
  | Error msg -> Alcotest.failf "spec rejected: %s" msg);
  let rejected spec =
    match Fault.parse_spec spec with
    | Ok _ -> Alcotest.failf "spec %S should be rejected" spec
    | Error _ -> ()
  in
  rejected "rate=banana";
  rejected "rate=1.5";
  rejected "bogus=1";
  rejected "seed";
  match Fault.parse_spec "" with
  | Ok p -> Alcotest.(check (float 0.)) "empty spec is the default plan" 0.0 p.rate
  | Error msg -> Alcotest.failf "empty spec rejected: %s" msg

(* --- fault-plan replay determinism ----------------------------------------- *)

let schedule_of spec =
  with_faults spec @@ fun () ->
  List.concat_map
    (fun (site, key) ->
      List.init 16 (fun _ ->
          match Fault.hit ~site ~key with
          | () -> false
          | exception Fault.Injected _ -> true))
    [ ("cache.build", "gcc/ref"); ("cache.run", "vpr/ref"); ("pool.task", "0") ]

let test_replay_determinism () =
  let spec = "seed=5,rate=0.5" in
  let first = schedule_of spec in
  Alcotest.(check (list bool)) "same spec replays the same schedule" first (schedule_of spec);
  Alcotest.(check bool) "schedule mixes raises and passes" true
    (List.mem true first && List.mem false first);
  Alcotest.(check bool) "a different seed gives a different schedule" true
    (schedule_of "seed=6,rate=0.5" <> first)

let test_raise_budget () =
  with_faults "seed=3,rate=1.0,max_raises=2" @@ fun () ->
  let outcomes =
    List.init 5 (fun _ ->
        match Fault.hit ~site:"cache.build" ~key:"k" with
        | () -> false
        | exception Fault.Injected _ -> true)
  in
  Alcotest.(check (list bool)) "raises stop once the per-key budget is spent"
    [ true; true; false; false; false ] outcomes

(* --- memo retry and clear semantics ---------------------------------------- *)

let test_failed_slot_not_poisoned () =
  let m = Memo.create "test-poison" in
  (* a transient failure recovers within one lookup *)
  let calls = ref 0 in
  let v =
    Memo.find_or_compute m ~label:"t" "k"
      (fun () ->
        incr calls;
        if !calls = 1 then failwith "transient" else 7)
  in
  Alcotest.(check int) "retried in place" 7 v;
  Alcotest.(check int) "body ran twice" 2 !calls;
  (* a persistent failure exhausts the budget once, then re-raises the
     stored exception without recomputing *)
  let boom_calls = ref 0 in
  let boom () =
    incr boom_calls;
    failwith "persistent"
  in
  (try
     ignore (Memo.find_or_compute m ~label:"t" "k2" boom);
     Alcotest.fail "expected the exception to propagate"
   with Failure _ -> ());
  Alcotest.(check int) "budget consumed in one round" (Memo.retry_limit ()) !boom_calls;
  let later = ref 0 in
  (try
     ignore
       (Memo.find_or_compute m ~label:"t" "k2"
          (fun () ->
            incr later;
            9));
     Alcotest.fail "expected the stored exception"
   with Failure _ -> ());
  Alcotest.(check int) "exhausted key re-raises without recomputing" 0 !later;
  (* a key whose body keeps raising wakes the latecomers parked on it,
     and each re-raises the exhausted failure without running its own
     body *)
  let waits = Metrics.counter "test-poison.waits" in
  let parked = Metrics.counter_value waits + 2 in
  let started = Atomic.make false and waiter_ran = Atomic.make false in
  let owner =
    Domain.spawn (fun () ->
        Memo.find_or_compute m ~label:"t" "k3" (fun () ->
            Atomic.set started true;
            let t0 = Unix.gettimeofday () in
            while Metrics.counter_value waits < parked && Unix.gettimeofday () -. t0 < 10.0 do
              Unix.sleepf 0.001
            done;
            failwith "parked"))
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  let waiter () =
    Domain.spawn (fun () ->
        match
          Memo.find_or_compute m ~label:"t" "k3" (fun () ->
              Atomic.set waiter_ran true;
              0)
        with
        | _ -> None
        | exception Failure msg -> Some msg)
  in
  let waiters = [ waiter (); waiter () ] in
  (match Domain.join owner with
  | _ -> Alcotest.fail "expected the owner's exhausted failure"
  | exception Failure _ -> ());
  List.iter
    (fun d ->
      Alcotest.(check (option string)) "a parked waiter re-raises" (Some "parked") (Domain.join d))
    waiters;
  Alcotest.(check bool) "both waiters parked" true (Metrics.counter_value waits >= parked);
  Alcotest.(check bool) "no waiter ran its body" false (Atomic.get waiter_ran);
  (* clearing the memo clears the failure *)
  Memo.clear m;
  Alcotest.(check int) "reset unpoisons" 9
    (Memo.find_or_compute m ~label:"t" "k2" (fun () -> 9))

let test_reset_during_compute () =
  let m = Memo.create "test-reset-race" in
  let started = Atomic.make false and release = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Memo.find_or_compute m ~label:"t" "k" (fun () ->
            Atomic.set started true;
            while not (Atomic.get release) do
              Domain.cpu_relax ()
            done;
            1))
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  Memo.clear m;
  Atomic.set release true;
  Alcotest.(check int) "in-flight computation still serves its own caller" 1 (Domain.join d);
  (* without the generation check the stale publish lands after the reset
     and this lookup would return 1 from the resurrected entry *)
  Alcotest.(check int) "post-reset lookup recomputes" 2
    (Memo.find_or_compute m ~label:"t" "k" (fun () -> 2))

(* --- the figure2/table3 pipeline under injected faults --------------------- *)

let ctx jobs = E.Context.create ~seed:42 ~scale:0.02 ~tau:10 ~jobs ()

let render_pipeline c = E.Figure2.render (E.Figure2.run c) ^ E.Table3.render (E.Table3.run c)

(* Figures 7 and 8 share MSSP runs through [Cache.mssp].  Run side by
   side, as [rspec all] runs them, their tasks park on each other's
   in-flight runs, under injected raises in the compute bodies and
   delays in the pool. *)
let render_stress_pipeline c =
  let mssp =
    Pool.map_ordered (E.Context.pool c)
      (fun render -> render ())
      [|
        (fun () -> E.Figure7.render (E.Figure7.run c));
        (fun () -> E.Figure8.render (E.Figure8.run c));
      |]
  in
  render_pipeline c ^ String.concat "" (Array.to_list mssp)

(* max_raises=2 < retry_limit=3, so every cache key fails at most twice
   and the bounded retry always recovers: output must be byte-identical
   to a fault-free run. *)
let stress_spec seed =
  Printf.sprintf "seed=%d,rate=0.8,max_raises=2,sites=cache,delay=0.2,delay_us=300,delay_sites=pool" seed

let test_retry_byte_identity () =
  E.Cache.reset ();
  let clean = render_pipeline (ctx 1) in
  E.Cache.reset ();
  with_faults "seed=3,rate=1.0,max_raises=2,sites=cache" @@ fun () ->
  let before = Fault.injected () in
  let faulted = render_pipeline (ctx 1) in
  Alcotest.(check bool) "faults were injected" true (Fault.injected () > before);
  Alcotest.(check string) "byte-identical once retries succeed" clean faulted;
  E.Cache.reset ()

let test_stress_jobs4 () =
  E.Cache.reset ();
  let clean = render_stress_pipeline (ctx 4) in
  E.Cache.reset ();
  (* ci.sh re-runs this under different RS_FAULTS seeds; standalone runs
     use the built-in spec *)
  let spec =
    match Sys.getenv_opt Fault.env_var with Some s when s <> "" -> s | _ -> stress_spec 11
  in
  with_faults spec @@ fun () ->
  let before = Fault.injected () in
  let faulted = render_stress_pipeline (ctx 4) in
  Alcotest.(check bool) "faults were injected" true (Fault.injected () > before);
  Alcotest.(check string) "no deadlock, no stale results, byte-identical output" clean faulted;
  E.Cache.reset ()

(* --- distiller pass faults -------------------------------------------------- *)

module D = Rs_distill.Distill
module A = Rs_distill.Assumptions

(* The distiller consults the "distill.pass" site before every pass
   (keyed by pass name) and retries the whole distillation up to the
   memos' retry limit.  With rate=1.0 and max_raises=2, the four pass keys fail
   twice each, so the eighth retry is the first clean run: raising the
   limit to 9 must recover with an identical result, while the default
   limit of 3 lets the fault escape after exactly three attempts. *)
let test_distill_pass_bounded_retry () =
  let region =
    Rs_ir.Synth.program ~rng:(Rs_util.Prng.create 6) ~helper_sites:2 ~loop_trips:2
      ~first_site:0 ()
  in
  let a = A.branches [ (0, true); (1, true); (4, true) ] in
  let clean = D.distill region.prog a in
  let pp r = Format.asprintf "%a" Rs_ir.Program.pp r.D.distilled in
  Memo.set_retry_limit 9;
  Fun.protect ~finally:(fun () -> Memo.set_retry_limit 3) @@ fun () ->
  with_faults "seed=12,rate=1.0,max_raises=2,sites=distill.pass" (fun () ->
      let before = Fault.injected () in
      let r = D.distill region.prog a in
      Alcotest.(check int) "two raises per pass key" 8 (Fault.injected () - before);
      Alcotest.(check string) "identical result once retries succeed" (pp clean) (pp r));
  Memo.set_retry_limit 3;
  with_faults "seed=12,rate=1.0,sites=distill.pass" (fun () ->
      let before = Fault.injected () in
      (match D.distill region.prog a with
      | _ -> Alcotest.fail "expected the injected fault to escape"
      | exception Fault.Injected { site; _ } ->
        Alcotest.(check string) "site" "distill.pass" site);
      Alcotest.(check int) "retry bounded at the limit" (Memo.retry_limit ())
        (Fault.injected () - before))

(* --- pool lifecycle and degradation ---------------------------------------- *)

let test_pool_closed_raises () =
  let p = Pool.create ~jobs:2 () in
  Pool.close p;
  (try
     ignore (Pool.map_ordered p Fun.id [| 1; 2; 3 |]);
     Alcotest.fail "expected Pool.Closed"
   with Pool.Closed -> ());
  Pool.close p (* still idempotent *)

let test_pool_deferred_close () =
  let p = Pool.create ~jobs:2 () in
  (* closing mid-map retires the pool: the map finishes, then the pool
     shuts down and later maps raise Closed *)
  let out =
    Pool.map_ordered p
      (fun i ->
        if i = 0 then Pool.close p;
        i + 1)
      [| 0; 1; 2; 3 |]
  in
  Alcotest.(check (array int)) "map survives a mid-flight close" [| 1; 2; 3; 4 |] out;
  try
    ignore (Pool.map_ordered p Fun.id [| 1 |]);
    Alcotest.fail "expected Pool.Closed after the deferred shutdown"
  with Pool.Closed -> ()

let test_pool_worker_start_fault () =
  with_faults "seed=2,rate=1.0,sites=pool.worker_start" @@ fun () ->
  let p = Pool.create ~jobs:4 () in
  Fun.protect ~finally:(fun () -> Pool.close p) @@ fun () ->
  (* every worker dies at startup; the caller-helps rule still completes
     the map, just without parallelism *)
  let out = Pool.map_ordered p (fun i -> i * 2) (Array.init 32 Fun.id) in
  Alcotest.(check (array int)) "degraded pool still completes"
    (Array.init 32 (fun i -> i * 2))
    out

(* The site fires on every pool, a jobs-1 pool included, so results
   under faults do not depend on --jobs. *)
let test_pool_task_fault_propagates () =
  List.iter
    (fun jobs ->
      with_faults "seed=8,rate=1.0,sites=pool.task" @@ fun () ->
      let p = Pool.create ~jobs () in
      Fun.protect ~finally:(fun () -> Pool.close p) @@ fun () ->
      (try
         ignore (Pool.map_ordered p Fun.id (Array.init 8 Fun.id));
         Alcotest.failf "expected an injected task fault at jobs=%d" jobs
       with Fault.Injected { site; _ } -> Alcotest.(check string) "site" "pool.task" site);
      (* the pool survives injected task failures *)
      Fault.disable ();
      let out = Pool.map_ordered p (fun i -> i + 1) (Array.init 8 Fun.id) in
      Alcotest.(check int) "pool usable afterwards" 8 out.(7))
    [ 1; 3 ]

(* --- trace sink failure semantics ------------------------------------------ *)

let test_trace_to_file_error () =
  match Trace.to_file "/nonexistent-dir-for-rs-test/x.jsonl" with
  | () ->
    Trace.stop ();
    Alcotest.fail "expected Trace.Error"
  | exception Trace.Error msg ->
    Alcotest.(check bool) "message names the problem" true (contains msg "cannot open trace file");
    Alcotest.(check bool) "tracing stays off" false (Trace.enabled ())

let test_trace_write_faults_drop_whole_lines () =
  let path = Filename.temp_file "rs_trace_fault" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  with_faults "seed=4,rate=0.4,sites=trace.write" @@ fun () ->
  Trace.to_file path;
  let dropped_events () =
    Rs_obs.Metrics.counter_value (Rs_obs.Metrics.counter "trace.dropped")
  in
  let before = dropped_events () in
  for i = 1 to 50 do
    Trace.emit "unit" [ I ("i", i) ]
  done;
  Trace.stop ();
  let dropped = dropped_events () - before in
  Alcotest.(check bool) "some writes dropped" true (dropped > 0);
  let lines = read_lines path in
  Alcotest.(check int) "every event either fully written or fully dropped" (50 - dropped)
    (List.length lines);
  List.iter
    (fun l ->
      Alcotest.(check bool) "no partial lines" true
        (contains l "{\"ev\":\"unit\"" && l.[String.length l - 1] = '}'))
    lines

(* --- trace flush on abnormal exit (subprocess) ----------------------------- *)

(* The child branch lives at the top of test/main.ml: it installs a trace
   sink, emits one (buffered) event and dies of an uncaught exception.
   Only the at_exit hook registered by Trace can land the line. *)
let test_trace_flush_on_abnormal_exit () =
  let path = Filename.temp_file "rs_trace_exit" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let env = Array.append (Unix.environment ()) [| "RS_TEST_TRACE_CHILD=" ^ path |] in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process_env Sys.executable_name [| Sys.executable_name |] env Unix.stdin null
      null
  in
  Unix.close null;
  let _, status = Unix.waitpid [] pid in
  (match status with
  | Unix.WEXITED 2 -> ()
  | Unix.WEXITED n -> Alcotest.failf "child exited %d, expected 2 (uncaught exception)" n
  | _ -> Alcotest.fail "child did not exit normally");
  let lines = read_lines path in
  Alcotest.(check bool) "buffered tail flushed despite the abnormal exit" true
    (List.exists (fun l -> contains l "\"ev\":\"child\"") lines)

let suite =
  [
    Alcotest.test_case "spec parsing" `Quick test_spec_parsing;
    Alcotest.test_case "replay determinism" `Quick test_replay_determinism;
    Alcotest.test_case "per-key raise budget" `Quick test_raise_budget;
    Alcotest.test_case "failed slot is not poisoned" `Quick test_failed_slot_not_poisoned;
    Alcotest.test_case "reset during compute" `Quick test_reset_during_compute;
    Alcotest.test_case "distill.pass bounded retry" `Quick test_distill_pass_bounded_retry;
    Alcotest.test_case "retry byte-identity (jobs=1)" `Slow test_retry_byte_identity;
    Alcotest.test_case "fault stress (jobs=4)" `Slow test_stress_jobs4;
    Alcotest.test_case "closed pool raises" `Quick test_pool_closed_raises;
    Alcotest.test_case "deferred close" `Quick test_pool_deferred_close;
    Alcotest.test_case "worker-start fault degrades" `Quick test_pool_worker_start_fault;
    Alcotest.test_case "task fault propagates" `Quick test_pool_task_fault_propagates;
    Alcotest.test_case "to_file error" `Quick test_trace_to_file_error;
    Alcotest.test_case "write faults drop whole lines" `Quick
      test_trace_write_faults_drop_whole_lines;
    Alcotest.test_case "flush on abnormal exit" `Quick test_trace_flush_on_abnormal_exit;
  ]
