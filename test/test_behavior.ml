module B = Rs_behavior.Behavior
module Pop = Rs_behavior.Population
module Stream = Rs_behavior.Stream
module TS = Rs_behavior.Trace_store
module Prng = Rs_util.Prng

let p_at ?(instr = 0) b i = B.p_taken b ~exec_index:i ~instr

(* --- behaviour models --------------------------------------------------- *)

let test_stationary () =
  let b = B.Stationary 0.7 in
  Alcotest.(check (float 0.0)) "constant" 0.7 (p_at b 0);
  Alcotest.(check (float 0.0)) "constant later" 0.7 (p_at b 1_000_000)

let test_flip_at () =
  let b = B.Flip_at { threshold = 100; first = true } in
  Alcotest.(check (float 0.0)) "before" 1.0 (p_at b 0);
  Alcotest.(check (float 0.0)) "last before" 1.0 (p_at b 99);
  Alcotest.(check (float 0.0)) "at threshold" 0.0 (p_at b 100);
  Alcotest.(check (float 0.0)) "after" 0.0 (p_at b 10_000);
  let b' = B.Flip_at { threshold = 3; first = false } in
  Alcotest.(check (float 0.0)) "inverted before" 0.0 (p_at b' 2);
  Alcotest.(check (float 0.0)) "inverted after" 1.0 (p_at b' 3)

let test_phases () =
  let b =
    B.Phases [| { length = 10; p_taken = 0.9 }; { length = 5; p_taken = 0.1 };
                { length = 1; p_taken = 0.5 } |]
  in
  Alcotest.(check (float 0.0)) "phase 1 start" 0.9 (p_at b 0);
  Alcotest.(check (float 0.0)) "phase 1 end" 0.9 (p_at b 9);
  Alcotest.(check (float 0.0)) "phase 2 start" 0.1 (p_at b 10);
  Alcotest.(check (float 0.0)) "phase 2 end" 0.1 (p_at b 14);
  Alcotest.(check (float 0.0)) "last phase extends" 0.5 (p_at b 15);
  Alcotest.(check (float 0.0)) "last phase far" 0.5 (p_at b 1_000_000)

let test_softening () =
  let b = B.Softening { start = 1.0; finish = 0.5; over = 100 } in
  Alcotest.(check (float 1e-9)) "starts at start" 1.0 (p_at b 0);
  Alcotest.(check (float 1e-9)) "midpoint" 0.75 (p_at b 50);
  Alcotest.(check (float 1e-9)) "finishes" 0.5 (p_at b 100);
  Alcotest.(check (float 1e-9)) "stays" 0.5 (p_at b 1_000)

let test_periodic () =
  let b = B.Periodic { region = 10; p_first = 0.9; p_second = 0.2 } in
  Alcotest.(check (float 0.0)) "region 0" 0.9 (p_at b 5);
  Alcotest.(check (float 0.0)) "region 1" 0.2 (p_at b 15);
  Alcotest.(check (float 0.0)) "region 2" 0.9 (p_at b 25);
  Alcotest.(check (float 0.0)) "boundary" 0.2 (p_at b 10)

let test_global_phases () =
  let b =
    B.Global_phases
      [| { until_instr = 100; gp_taken = 0.95 }; { until_instr = 200; gp_taken = 0.05 };
         { until_instr = 201; gp_taken = 0.5 } |]
  in
  Alcotest.(check (float 0.0)) "first window" 0.95 (B.p_taken b ~exec_index:999 ~instr:50);
  Alcotest.(check (float 0.0)) "second window" 0.05 (B.p_taken b ~exec_index:0 ~instr:150);
  Alcotest.(check (float 0.0)) "last extends" 0.5 (B.p_taken b ~exec_index:0 ~instr:10_000)

let test_sample_matches_p () =
  let rng = Prng.create 31 in
  let b = B.Stationary 0.8 in
  let hits = ref 0 in
  let n = 50_000 in
  for i = 0 to n - 1 do
    if B.sample b ~rng ~exec_index:i ~instr:i then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  if abs_float (rate -. 0.8) > 0.01 then Alcotest.failf "sample rate %f" rate

let qcheck_p_in_unit =
  QCheck.Test.make ~name:"p_taken in [0,1] for phases" ~count:300
    QCheck.(pair (small_list (pair small_nat (float_bound_inclusive 1.0))) small_nat)
    (fun (phases, i) ->
      QCheck.assume (phases <> []);
      let b =
        B.Phases
          (Array.of_list
             (List.map (fun (l, p) -> { B.length = max 1 l; p_taken = p }) phases))
      in
      let p = p_at b i in
      p >= 0.0 && p <= 1.0)

(* --- population --------------------------------------------------------- *)

let mk_pop weights =
  Pop.create
    (Array.of_list
       (List.mapi (fun id w -> { Pop.id; behavior = B.Stationary 0.5; weight = w }) weights))

let test_population_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Population.create: empty population")
    (fun () -> ignore (Pop.create [||]));
  Alcotest.check_raises "bad weight"
    (Invalid_argument "Population.create: weights must be positive and finite") (fun () ->
      ignore (mk_pop [ 1.0; 0.0 ]));
  Alcotest.check_raises "bad ids"
    (Invalid_argument "Population.create: ids must be dense and in order") (fun () ->
      ignore
        (Pop.create [| { Pop.id = 1; behavior = B.Stationary 0.5; weight = 1.0 } |]))

let test_alias_distribution () =
  let pop = mk_pop [ 1.0; 2.0; 7.0 ] in
  let s = Pop.Alias.prepare pop in
  let rng = Prng.create 17 in
  let counts = Array.make 3 0 in
  let n = 200_000 in
  for _ = 1 to n do
    let i = Pop.Alias.draw s rng in
    counts.(i) <- counts.(i) + 1
  done;
  let frac i = float_of_int counts.(i) /. float_of_int n in
  Alcotest.(check (float 0.01)) "10%" 0.1 (frac 0);
  Alcotest.(check (float 0.01)) "20%" 0.2 (frac 1);
  Alcotest.(check (float 0.01)) "70%" 0.7 (frac 2)

(* --- stream ------------------------------------------------------------- *)

let test_stream_determinism () =
  let pop = mk_pop [ 1.0; 2.0; 3.0 ] in
  let cfg = { Stream.seed = 5; instr_per_branch = 5.5; length = 10_000 } in
  let record cfg =
    let evs = ref [] in
    ignore
      (Stream.iter_raw pop cfg (fun ~branch ~taken ~exec_index:_ ~instr ->
           evs := (branch, taken, instr) :: !evs)
        : int array);
    !evs
  in
  Alcotest.(check bool) "same seed same stream" true (record cfg = record cfg);
  let cfg' = { cfg with seed = 6 } in
  Alcotest.(check bool) "different seed differs" false (record cfg = record cfg')

let test_stream_counts_and_instr () =
  let pop = mk_pop [ 1.0; 1.0 ] in
  let cfg = { Stream.seed = 1; instr_per_branch = 6.5; length = 100_000 } in
  let last = ref 0 in
  let monotone = ref true in
  let counts =
    Stream.iter_raw pop cfg (fun ~branch:_ ~taken:_ ~exec_index:_ ~instr ->
        if instr <= !last then monotone := false;
        last := instr)
  in
  Alcotest.(check int) "counts sum to length" cfg.length (Array.fold_left ( + ) 0 counts);
  Alcotest.(check bool) "instruction counter strictly increases" true !monotone;
  let expect = Stream.total_instructions cfg in
  Alcotest.(check bool) "final instr near total"
    true
    (abs (!last - expect) < 10);
  Alcotest.(check int) "total instructions" 650_000 expect

let test_stream_exec_index () =
  let pop = mk_pop [ 1.0 ] in
  let cfg = { Stream.seed = 2; instr_per_branch = 1.0; length = 100 } in
  let expected = ref 0 in
  ignore
    (Stream.iter_raw pop cfg (fun ~branch:_ ~taken:_ ~exec_index ~instr:_ ->
         Alcotest.(check int) "exec_index counts up" !expected exec_index;
         incr expected)
      : int array)

let test_stream_behavior_independence () =
  (* A deterministic flip branch must flip at exactly its threshold no
     matter how other branches interleave. *)
  let mk interfering_weight =
    Pop.create
      [|
        { Pop.id = 0; behavior = B.Flip_at { threshold = 50; first = true }; weight = 1.0 };
        { Pop.id = 1; behavior = B.Stationary 0.5; weight = interfering_weight };
      |]
  in
  let outcomes weight =
    let out = ref [] in
    ignore
      (Stream.iter_raw (mk weight)
         { Stream.seed = 3; instr_per_branch = 4.0; length = 2_000 }
         (fun ~branch ~taken ~exec_index:_ ~instr:_ -> if branch = 0 then out := taken :: !out)
        : int array);
    List.rev !out
  in
  let check_flip outs =
    List.iteri
      (fun i taken ->
        if i < 50 then Alcotest.(check bool) "before flip" true taken
        else Alcotest.(check bool) "after flip" false taken)
      outs
  in
  check_flip (outcomes 1.0);
  check_flip (outcomes 10.0)

let test_stream_invalid () =
  (* Each public entry point that generates a stream names itself in its
     guard errors — a bad config raised through [Profile.collect] must
     not blame the generator underneath. *)
  let pop = mk_pop [ 1.0 ] in
  let bad_length = { Stream.seed = 0; instr_per_branch = 5.0; length = 0 } in
  let bad_ipb = { Stream.seed = 0; instr_per_branch = 0.5; length = 1 } in
  let params = Rs_core.Params.default in
  let observer ~branch:_ ~taken:_ ~instr:_ ~code:_ = () in
  let entry_points : (string * (Stream.config -> unit)) list =
    [
      ( "Stream.iter_raw",
        fun cfg ->
          ignore (Stream.iter_raw pop cfg (fun ~branch:_ ~taken:_ ~exec_index:_ ~instr:_ -> ())) );
      ("Trace_store.iter_chunks", fun cfg -> TS.iter_chunks pop cfg (fun _ _ -> ()));
      ("Trace_store.record", fun cfg -> ignore (TS.record pop cfg));
      ("Engine.run", fun cfg -> ignore (Rs_sim.Engine.run pop cfg params));
      ("Engine.run", fun cfg -> ignore (Rs_sim.Engine.run ~observer pop cfg params));
      ("Profile.collect", fun cfg -> ignore (Rs_sim.Profile.collect pop cfg));
      ( "Exec_blocks.collect",
        fun cfg -> ignore (Rs_sim.Tracks.Exec_blocks.collect pop cfg ~branches:[ 0 ] ~block:10) );
      ( "Intervals.collect",
        fun cfg -> ignore (Rs_sim.Tracks.Intervals.collect pop cfg ~buckets:4 ~min_execs:1) );
    ]
  in
  List.iter
    (fun (name, run) ->
      Alcotest.check_raises (name ^ " bad length")
        (Invalid_argument (name ^ ": length must be positive")) (fun () -> run bad_length);
      Alcotest.check_raises (name ^ " bad ipb")
        (Invalid_argument (name ^ ": instr_per_branch must be >= 1")) (fun () -> run bad_ipb))
    entry_points

let suite =
  [
    Alcotest.test_case "stationary" `Quick test_stationary;
    Alcotest.test_case "flip_at" `Quick test_flip_at;
    Alcotest.test_case "phases" `Quick test_phases;
    Alcotest.test_case "softening" `Quick test_softening;
    Alcotest.test_case "periodic" `Quick test_periodic;
    Alcotest.test_case "global phases" `Quick test_global_phases;
    Alcotest.test_case "sample matches p" `Quick test_sample_matches_p;
    QCheck_alcotest.to_alcotest qcheck_p_in_unit;
    Alcotest.test_case "population validation" `Quick test_population_validation;
    Alcotest.test_case "alias distribution" `Quick test_alias_distribution;
    Alcotest.test_case "stream determinism" `Quick test_stream_determinism;
    Alcotest.test_case "stream counts and instr" `Quick test_stream_counts_and_instr;
    Alcotest.test_case "stream exec index" `Quick test_stream_exec_index;
    Alcotest.test_case "stream behaviour independence" `Quick test_stream_behavior_independence;
    Alcotest.test_case "stream invalid" `Quick test_stream_invalid;
  ]
