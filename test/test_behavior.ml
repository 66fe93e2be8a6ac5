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
  let s = Stream.Sampler.create [| B.Stationary 0.8 |] (Prng.create 31) in
  let hits = ref 0 in
  let n = 50_000 in
  for i = 0 to n - 1 do
    if Stream.Sampler.next s 0 ~instr:i then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  if abs_float (rate -. 0.8) > 0.01 then Alcotest.failf "sample rate %f" rate

(* The compiled sampler against its definition: every outcome equals
   [Prng.bernoulli] of [p_taken] on an identically seeded generator, and
   every branch's generator ends in the same state, so the two made the
   same draws.  Models cover every variant and the edge cases: p of 0, 1,
   outside [0, 1] and NaN; empty schedules and zero, negative and
   one-long phases; non-positive periods; global phases out of order,
   driven by non-decreasing instruction counts (steps of 0 included). *)
let gen_behavior =
  let open QCheck.Gen in
  let p =
    oneof [ oneofl [ 0.0; 1.0; -0.5; 1.5; Float.nan; 0.001; 0.999 ]; float_bound_inclusive 1.0 ]
  in
  let schedule elt = map Array.of_list (list_size (int_range 0 5) elt) in
  oneof
    [
      map (fun p -> B.Stationary p) p;
      map2 (fun threshold first -> B.Flip_at { threshold; first }) (int_range (-2) 60) bool;
      map
        (fun phases -> B.Phases phases)
        (schedule
           (map2
              (fun length p_taken -> { B.length; p_taken })
              (oneof [ oneofl [ 0; 1 ]; int_range (-3) 40 ])
              p));
      map3
        (fun region p_first p_second -> B.Periodic { region; p_first; p_second })
        (int_range (-2) 30) p p;
      map
        (fun phases -> B.Global_phases phases)
        (schedule
           (map2 (fun until_instr gp_taken -> { B.until_instr; gp_taken }) (int_range 0 600) p));
    ]

let print_behavior =
  let pairs f ps = String.concat "" (Array.to_list (Array.map f ps)) in
  function
  | B.Stationary p -> Printf.sprintf "Stationary %h" p
  | Flip_at { threshold; first } -> Printf.sprintf "Flip_at %d %b" threshold first
  | Phases ps ->
    "Phases" ^ pairs (fun (q : B.phase) -> Printf.sprintf " (%d, %h)" q.length q.p_taken) ps
  | Periodic { region; p_first; p_second } ->
    Printf.sprintf "Periodic %d %h %h" region p_first p_second
  | Global_phases ps ->
    "Global_phases"
    ^ pairs (fun (q : B.global_phase) -> Printf.sprintf " (%d, %h)" q.until_instr q.gp_taken) ps

let qcheck_sampler_oracle =
  let case =
    QCheck.make
      ~print:(fun (seed, models, events) ->
        Printf.sprintf "seed %d, models [%s], %d events" seed
          (String.concat "; " (Array.to_list (Array.map print_behavior models)))
          (List.length events))
      QCheck.Gen.(
        triple (int_bound 10_000)
          (map Array.of_list (list_size (int_range 1 5) gen_behavior))
          (list_size (int_range 0 300) (pair (int_bound 1_000) (int_range 0 5))))
  in
  QCheck.Test.make ~name:"sampler == bernoulli of p_taken" ~count:500 case
    (fun (seed, models, events) ->
      let n = Array.length models in
      let sampler = Stream.Sampler.create models (Prng.create seed) in
      let root = Prng.create seed in
      let rngs = Array.map (fun _ -> Prng.split root) models in
      let exec = Array.make n 0 and instr = ref 0 in
      List.for_all
        (fun (b, step) ->
          let b = b mod n in
          instr := !instr + step;
          let p = B.p_taken models.(b) ~exec_index:exec.(b) ~instr:!instr in
          exec.(b) <- exec.(b) + 1;
          Stream.Sampler.next sampler b ~instr:!instr = Prng.bernoulli rngs.(b) p)
        events
      && Array.for_all Fun.id
           (Array.mapi (fun b rng -> Stream.Sampler.rng_state sampler b = Prng.state rng) rngs))

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
  let s = Stream.Alias.of_weights [| 1.0; 2.0; 7.0 |] in
  let rng = Prng.create 17 in
  let counts = Array.make 3 0 in
  let n = 200_000 in
  for _ = 1 to n do
    let i = Stream.Alias.draw s rng in
    counts.(i) <- counts.(i) + 1
  done;
  let frac i = float_of_int counts.(i) /. float_of_int n in
  Alcotest.(check (float 0.01)) "10%" 0.1 (frac 0);
  Alcotest.(check (float 0.01)) "20%" 0.2 (frac 1);
  Alcotest.(check (float 0.01)) "70%" 0.7 (frac 2)

(* The branch-free acceptance step against the comparison it replaces,
   at the ends of both ranges: thresholds -1 and max_int (the
   probabilities a draw never and always accepts), 0, 1 and 2^53 - 1,
   and the least and greatest uniform bits. *)
let test_alias_pick_edges () =
  let top = (1 lsl 53) - 1 in
  List.iter
    (fun threshold ->
      List.iter
        (fun u ->
          List.iter
            (fun (i, alias) ->
              Alcotest.(check int)
                (Printf.sprintf "u %d, threshold %d, i %d, alias %d" u threshold i alias)
                (if u < threshold then i else alias)
                (Stream.Alias.pick ~i ~alias ~threshold u))
            [ (0, 1); (5, 3); (7, 7); (max_int, 0) ])
        [ 0; top ])
    [ -1; 0; 1; top; max_int ]

(* --- stream ------------------------------------------------------------- *)

(* A stream's events as decoded from its live packed chunks: branch,
   outcome, per-branch execution index and instruction count, with the
   per-branch execution totals. *)
let stream_events pop cfg =
  Test_trace_store.events_of_chunks ~n:(Pop.size pop) (TS.iter_chunks pop cfg)

let test_stream_determinism () =
  let pop = mk_pop [ 1.0; 2.0; 3.0 ] in
  let cfg = { Stream.seed = 5; instr_per_branch = 5.5; length = 10_000 } in
  Alcotest.(check bool) "same seed same stream" true
    (stream_events pop cfg = stream_events pop cfg);
  let cfg' = { cfg with seed = 6 } in
  Alcotest.(check bool) "different seed differs" false
    (fst (stream_events pop cfg) = fst (stream_events pop cfg'))

let test_stream_counts_and_instr () =
  let pop = mk_pop [ 1.0; 1.0 ] in
  let cfg = { Stream.seed = 1; instr_per_branch = 6.5; length = 100_000 } in
  let events, counts = stream_events pop cfg in
  let instrs = List.map (fun (_, _, _, instr) -> instr) events in
  Alcotest.(check int) "counts sum to length" cfg.length (Array.fold_left ( + ) 0 counts);
  Alcotest.(check bool) "instruction counter strictly increases" true
    (fst (List.fold_left (fun (ok, last) i -> (ok && i > last, i)) (true, 0) instrs));
  let expect = Stream.total_instructions cfg in
  Alcotest.(check bool) "final instr near total"
    true
    (abs (List.nth instrs (cfg.length - 1) - expect) < 10);
  Alcotest.(check int) "total instructions" 650_000 expect

(* The sampler sees each branch's own execution index: a branch whose
   outcome alternates execution by execution keeps alternating however
   the other branch interleaves with it. *)
let test_stream_exec_index () =
  let pop =
    Pop.create
      [|
        { Pop.id = 0; behavior = B.Periodic { region = 1; p_first = 1.0; p_second = 0.0 };
          weight = 1.0 };
        { Pop.id = 1; behavior = B.Stationary 0.5; weight = 2.0 };
      |]
  in
  let cfg = { Stream.seed = 2; instr_per_branch = 1.0; length = 1_000 } in
  List.iter
    (fun (b, taken, exec_index, _) ->
      if b = 0 then Alcotest.(check bool) "alternates by exec index" (exec_index mod 2 = 0) taken)
    (fst (stream_events pop cfg))

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
    let cfg = { Stream.seed = 3; instr_per_branch = 4.0; length = 2_000 } in
    List.filter_map
      (fun (b, taken, _, _) -> if b = 0 then Some taken else None)
      (fst (stream_events (mk weight) cfg))
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
  let cfg ipb = { Stream.seed = 0; instr_per_branch = ipb; length = 1 } in
  let params = Rs_core.Params.default in
  let observer ~branch:_ ~taken:_ ~instr:_ ~code:_ = () in
  let entry_points : (string * (Stream.config -> unit)) list =
    [
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
      let raises what msg cfg =
        Alcotest.check_raises (name ^ " " ^ what) (Invalid_argument (name ^ ": " ^ msg)) (fun () ->
            run cfg)
      in
      raises "bad length" "length must be positive" { (cfg 5.0) with length = 0 };
      raises "bad ipb" "instr_per_branch must be >= 1" (cfg 0.5);
      raises "nan ipb" "instr_per_branch must be finite" (cfg Float.nan);
      raises "infinite ipb" "instr_per_branch must be finite" (cfg Float.infinity);
      raises "unpackable ipb" "instruction delta does not fit in 20 bits" (cfg 3e6))
    entry_points

let suite =
  [
    Alcotest.test_case "stationary" `Quick test_stationary;
    Alcotest.test_case "flip_at" `Quick test_flip_at;
    Alcotest.test_case "phases" `Quick test_phases;
    Alcotest.test_case "periodic" `Quick test_periodic;
    Alcotest.test_case "global phases" `Quick test_global_phases;
    Alcotest.test_case "sample matches p" `Quick test_sample_matches_p;
    QCheck_alcotest.to_alcotest qcheck_sampler_oracle;
    QCheck_alcotest.to_alcotest qcheck_p_in_unit;
    Alcotest.test_case "population validation" `Quick test_population_validation;
    Alcotest.test_case "alias distribution" `Quick test_alias_distribution;
    Alcotest.test_case "alias pick edges" `Quick test_alias_pick_edges;
    Alcotest.test_case "stream determinism" `Quick test_stream_determinism;
    Alcotest.test_case "stream counts and instr" `Quick test_stream_counts_and_instr;
    Alcotest.test_case "stream exec index" `Quick test_stream_exec_index;
    Alcotest.test_case "stream behaviour independence" `Quick test_stream_behavior_independence;
    Alcotest.test_case "stream invalid" `Quick test_stream_invalid;
  ]
