module Prng = Rs_util.Prng

let test_determinism () =
  let a = Prng.create 7 in
  let b = Prng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Prng.create 7 in
  let b = Prng.create 8 in
  let differs = ref false in
  for _ = 1 to 16 do
    if not (Int64.equal (Prng.bits64 a) (Prng.bits64 b)) then differs := true
  done;
  Alcotest.(check bool) "different seeds diverge" true !differs

let test_copy_independent () =
  let a = Prng.create 3 in
  let _ = Prng.bits64 a in
  let b = Prng.copy a in
  Alcotest.(check int64) "copy continues identically" (Prng.bits64 a) (Prng.bits64 b);
  (* advancing one does not advance the other *)
  let _ = Prng.bits64 a in
  let x = Prng.bits64 a in
  let y = Prng.bits64 b in
  Alcotest.(check bool) "copies diverge after unequal draws" false (Int64.equal x y)

let test_split_independence () =
  let parent = Prng.create 11 in
  let child = Prng.split parent in
  (* A child stream must not mirror its parent. *)
  let equal = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Prng.bits64 parent) (Prng.bits64 child) then incr equal
  done;
  Alcotest.(check int) "no collisions in 64 draws" 0 !equal

let test_int_bounds () =
  let t = Prng.create 1 in
  for bound = 1 to 50 do
    for _ = 1 to 100 do
      let v = Prng.int t bound in
      if v < 0 || v >= bound then Alcotest.failf "Prng.int %d produced %d" bound v
    done
  done

let test_int_invalid () =
  let t = Prng.create 1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int t 0))

let test_int_covers_range () =
  let t = Prng.create 5 in
  let seen = Array.make 10 false in
  for _ = 1 to 1000 do
    seen.(Prng.int t 10) <- true
  done;
  Array.iteri (fun i s -> Alcotest.(check bool) (Printf.sprintf "value %d seen" i) true s) seen

let test_float_range () =
  let t = Prng.create 2 in
  for _ = 1 to 1000 do
    let v = Prng.float t 3.0 in
    if v < 0.0 || v >= 3.0 then Alcotest.failf "Prng.float out of range: %f" v
  done

let test_bernoulli_extremes () =
  let t = Prng.create 4 in
  for _ = 1 to 50 do
    Alcotest.(check bool) "p=1 always true" true (Prng.bernoulli t 1.0);
    Alcotest.(check bool) "p=0 always false" false (Prng.bernoulli t 0.0)
  done

let test_bernoulli_rate () =
  let t = Prng.create 9 in
  let hits = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Prng.bernoulli t 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  if abs_float (rate -. 0.3) > 0.01 then Alcotest.failf "bernoulli(0.3) rate %f" rate

let test_sibling_splits_differ () =
  let parent = Rs_util.Prng.create 21 in
  let a = Rs_util.Prng.split parent in
  let b = Rs_util.Prng.split parent in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Rs_util.Prng.bits64 a) (Rs_util.Prng.bits64 b) then incr same
  done;
  Alcotest.(check int) "sibling children diverge" 0 !same

let test_bits62_nonneg () =
  let t = Rs_util.Prng.create 8 in
  for _ = 1 to 10_000 do
    if Rs_util.Prng.bits62 t < 0 then Alcotest.fail "negative bits62"
  done

let qcheck_int_in_bounds =
  QCheck.Test.make ~name:"Prng.int always within bound" ~count:500
    QCheck.(pair small_int (int_bound 10_000))
    (fun (seed, b) ->
      let b = b + 1 in
      let t = Prng.create seed in
      let v = Prng.int t b in
      v >= 0 && v < b)

let qcheck_float_in_bounds =
  QCheck.Test.make ~name:"Prng.float always within bound" ~count:500 QCheck.small_int
    (fun seed ->
      let t = Prng.create seed in
      let v = Prng.float t 1.0 in
      v >= 0.0 && v < 1.0)

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "copy independent" `Quick test_copy_independent;
    Alcotest.test_case "split independence" `Quick test_split_independence;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int invalid" `Quick test_int_invalid;
    Alcotest.test_case "int covers range" `Quick test_int_covers_range;
    Alcotest.test_case "float range" `Quick test_float_range;
    Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
    Alcotest.test_case "bernoulli rate" `Quick test_bernoulli_rate;
    Alcotest.test_case "sibling splits differ" `Quick test_sibling_splits_differ;
    Alcotest.test_case "bits62 non-negative" `Quick test_bits62_nonneg;
    QCheck_alcotest.to_alcotest qcheck_int_in_bounds;
    QCheck_alcotest.to_alcotest qcheck_float_in_bounds;
  ]
