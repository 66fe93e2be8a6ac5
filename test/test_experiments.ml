module E = Rs_experiments
module VM = Rs_behavior.Value_model

(* small context so every experiment runs in well under a second *)
let ctx = E.Context.create ~seed:42 ~scale:0.02 ~tau:10 ()

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* --- value models -------------------------------------------------------- *)

let test_value_models () =
  let rng = Rs_util.Prng.create 3 in
  Alcotest.(check int) "constant" 7
    (VM.next (VM.Constant 7) ~rng ~exec_index:100 ~prev:9);
  Alcotest.(check int) "counter" 10
    (VM.next (VM.Counter { start = 0; stride = 2 }) ~rng ~exec_index:5 ~prev:0);
  let pc = VM.Phase_constant { first = 1; second = 2; switch_at = 10 } in
  Alcotest.(check int) "phase before" 1 (VM.next pc ~rng ~exec_index:9 ~prev:1);
  Alcotest.(check int) "phase after" 2 (VM.next pc ~rng ~exec_index:10 ~prev:1);
  Alcotest.(check int) "initial" 1 (VM.initial pc);
  (* sticky repeats most of the time at high p_stay *)
  let st = VM.Sticky { values = [| 1; 2; 3 |]; p_stay = 0.9 } in
  let repeats = ref 0 in
  let prev = ref 1 in
  for i = 0 to 9_999 do
    let v = VM.next st ~rng ~exec_index:i ~prev:!prev in
    if v = !prev then incr repeats;
    prev := v
  done;
  (* p_stay 0.9 plus 1/3 chance the resample repeats: ~93% *)
  Alcotest.(check bool) "sticky repeats often" true (!repeats > 9_000)

(* --- context ------------------------------------------------------------- *)

let test_context () =
  Alcotest.(check int) "wait compressed" 100_000 (E.Context.params ctx).wait_period;
  Alcotest.(check (array int)) "windows compressed"
    [| 100; 1_000; 10_000; 30_000; 100_000 |]
    (E.Context.windows ctx);
  Alcotest.(check bool) "describe mentions seed" true
    (contains (E.Context.describe ctx) "seed=42")

(* --- figure 1 ------------------------------------------------------------ *)

let test_figure1 () =
  let t = E.Figure1.run ctx in
  (match t.verified with
  | Ok n -> Alcotest.(check bool) "verified on consistent inputs" true (n > 0)
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "smaller" true (t.distilled_size < t.original_size);
  Alcotest.(check bool) "render mentions 32" true (contains (E.Figure1.render t) "32");
  (* the interprocedural companion program: real inlining, a real split,
     and a clean differential check with every violation detected *)
  let p = t.program in
  Alcotest.(check int) "four functions" 4 p.functions;
  Alcotest.(check bool) "inlined at least one call" true (p.inlined_calls >= 1);
  Alcotest.(check bool) "has a cold region" true
    (p.cold_blocks >= 1 && p.cold_entries >= 1);
  Alcotest.(check bool) "check ok" true (E.Figure1.check_ok p);
  Alcotest.(check bool) "render mentions inlining" true
    (contains (E.Figure1.render t) "calls inlined")

(* --- figure 2 ------------------------------------------------------------ *)

let test_figure2 () =
  let t = E.Figure2.run ctx in
  Alcotest.(check int) "12 rows" 12 (List.length t.rows);
  let avg f = List.fold_left (fun a r -> a +. f r) 0.0 t.rows /. 12.0 in
  let knee_c = avg (fun (r : E.Figure2.row) -> r.knee.correct) in
  let knee_i = avg (fun (r : E.Figure2.row) -> r.knee.incorrect) in
  let off_c = avg (fun (r : E.Figure2.row) -> r.offline.correct) in
  let off_i = avg (fun (r : E.Figure2.row) -> r.offline.incorrect) in
  Alcotest.(check bool) "knee has sizeable benefit" true (knee_c > 0.25);
  Alcotest.(check bool) "knee misspec tiny" true (knee_i < 0.005);
  Alcotest.(check bool) "offline benefit reduced" true (off_c < knee_c);
  Alcotest.(check bool) "offline misspec blown up" true (off_i > 4.0 *. knee_i);
  List.iter
    (fun (r : E.Figure2.row) ->
      Alcotest.(check bool) (r.benchmark ^ " curve non-empty") true (Array.length r.curve > 0);
      Alcotest.(check int) (r.benchmark ^ " window points") 5 (Array.length r.window_points))
    t.rows

(* --- figure 5 / table 4 -------------------------------------------------- *)

let test_figure5_shape () =
  let t = E.Figure5.run ctx in
  Alcotest.(check int) "12 rows" 12 (List.length t.rows);
  let avgs = E.Figure5.averages t in
  let get k = List.assoc k avgs in
  let base = get "baseline" and noev = get "no-eviction" and norv = get "no-revisit" in
  Alcotest.(check bool) "no-eviction misspeculates wildly" true
    (noev.incorrect > 5.0 *. base.incorrect);
  Alcotest.(check bool) "no-revisit loses corrects" true (norv.correct < base.correct);
  Alcotest.(check bool) "monitor sampling is near baseline" true
    (abs_float ((get "monitor-sampling").correct -. base.correct) < 0.05);
  (* table 4 derives without re-simulation and preserves order *)
  let t4 = E.Table4.of_figure5 t in
  Alcotest.(check int) "seven rows" 7 (List.length t4.rows);
  Alcotest.(check bool) "render works" true (contains (E.Table4.render t4) "baseline")

(* --- table 3 -------------------------------------------------------------- *)

let test_table3 () =
  let t = E.Table3.run ctx in
  Alcotest.(check int) "12 rows" 12 (List.length t.rows);
  List.iter
    (fun (r : E.Table3.row) ->
      Alcotest.(check bool) (r.benchmark ^ " touched branches") true (r.measured.touched > 0);
      Alcotest.(check bool)
        (r.benchmark ^ " has biased branches")
        true
        (r.measured.entered_biased > 0))
    t.rows;
  Alcotest.(check bool) "render has average row" true (contains (E.Table3.render t) "ave")

(* --- figures 3, 6, 9 ------------------------------------------------------ *)

let test_figure3 () =
  (* needs a slightly larger scale for gap's changing branches to appear *)
  let ctx = E.Context.create ~seed:42 ~scale:0.1 ~tau:10 () in
  let t = E.Figure3.run ctx in
  Alcotest.(check bool) "found changing branches" true (List.length t.tracks > 0);
  Alcotest.(check bool) "at most five" true (List.length t.tracks <= 5);
  List.iter
    (fun (tr : E.Figure3.track) ->
      match tr.series with
      | (_, first_bias) :: _ ->
        let aligned = Float.max first_bias (1.0 -. first_bias) in
        Alcotest.(check bool) "initially invariant" true (aligned >= 0.99)
      | [] -> Alcotest.fail "empty series")
    t.tracks

let test_figure6 () =
  let t = E.Figure6.run ctx in
  Alcotest.(check bool) "sampled evictions" true (t.samples > 0);
  Alcotest.(check bool) "below-30 fraction sane" true
    (t.below_30pct >= 0.0 && t.below_30pct <= 1.0);
  Alcotest.(check bool) "reversed <= below-30" true (t.reversed <= t.below_30pct +. 1e-9)

let test_figure9 () =
  let ctx = E.Context.create ~seed:42 ~scale:0.1 ~tau:10 () in
  let t = E.Figure9.run ctx in
  Alcotest.(check bool) "found flippers" true (List.length t.flippers > 0);
  List.iter
    (fun (_, spans) ->
      Alcotest.(check bool) "every flipper has a biased span" true (spans <> []);
      List.iter
        (fun (lo, hi) ->
          Alcotest.(check bool) "span well formed" true (lo <= hi && lo >= 0 && hi < t.buckets))
        spans)
    t.flippers

(* --- extension: value speculation ----------------------------------------- *)

let test_extension_values () =
  let t = E.Extension_values.run ~n_sites:24 ~events:1_500_000 ctx in
  Alcotest.(check int) "three policies" 3 (List.length t.rows);
  let get l = List.find (fun (r : E.Extension_values.row) -> r.label = l) t.rows in
  let reactive = get "reactive (Table 2)" in
  let open_loop = get "no eviction (open loop)" in
  Alcotest.(check bool) "reactive applies constants" true (reactive.correct > 0.1);
  Alcotest.(check bool) "open loop pays more for stale constants" true
    (open_loop.incorrect >= reactive.incorrect);
  Alcotest.(check bool) "reactive evicts changed values" true (reactive.evictions > 0)

(* --- parallel determinism and the artifact cache --------------------------- *)

let test_jobs_determinism () =
  (* Cache.reset between runs so jobs=4 recomputes instead of replaying
     jobs=1's cached artifacts. *)
  let run jobs =
    E.Cache.reset ();
    let ctx = E.Context.create ~seed:42 ~scale:0.02 ~tau:10 ~jobs () in
    let r = (E.Figure5.render (E.Figure5.run ctx), E.Figure2.render (E.Figure2.run ctx)) in
    E.Cache.reset ();
    r
  in
  let f5_seq, f2_seq = run 1 in
  let f5_par, f2_par = run 4 in
  Alcotest.(check string) "figure5 identical at jobs=1 and jobs=4" f5_seq f5_par;
  Alcotest.(check string) "figure2 identical at jobs=1 and jobs=4" f2_seq f2_par

let test_cache_sharing () =
  E.Cache.reset ();
  Fun.protect ~finally:E.Cache.reset @@ fun () ->
  let bm = List.hd Rs_workload.Benchmark.all in
  let p1 = E.Cache.profile ctx bm ~input:Rs_workload.Benchmark.Ref in
  let p2 = E.Cache.profile ctx bm ~input:Rs_workload.Benchmark.Ref in
  Alcotest.(check bool) "repeat key returns the same physical profile" true (p1 == p2);
  ignore (E.Figure2.run ctx);
  ignore (E.Figure5.run ctx);
  let s = E.Cache.stats () in
  Alcotest.(check bool) "profiles shared across experiments" true (s.profile_hits > 0);
  Alcotest.(check bool) "builds shared across experiments" true (s.build_hits > 0);
  Alcotest.(check bool) "hit rate positive" true (E.Cache.hit_rate s > 0.0)

(* One cached profile serves every window the suite asks for: the
   paper-time windows, the context's compressed ones and figure3's
   20,000-execution horizon, at any tau. *)
let test_profile_windows () =
  E.Cache.reset ();
  Fun.protect ~finally:E.Cache.reset @@ fun () ->
  let bm = List.hd Rs_workload.Benchmark.all in
  List.iter
    (fun tau ->
      let ctx = E.Context.create ~seed:42 ~scale:0.02 ~tau () in
      let have = Rs_sim.Profile.windows (E.Cache.profile ctx bm ~input:Ref) in
      let wanted = Array.concat [ Rs_core.Static.windows; E.Context.windows ctx; [| 20_000 |] ] in
      Alcotest.(check bool)
        (Printf.sprintf "every window at tau %d" tau)
        true
        (Array.for_all (fun w -> Array.mem w have) wanted))
    [ 1; 10 ]

(* --- ablations metadata ---------------------------------------------------- *)

let test_ablations_subset () =
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " exists") true
        (List.exists (fun (b : Rs_workload.Benchmark.t) -> b.name = name)
           Rs_workload.Benchmark.all))
    E.Ablations.benchmarks

(* --- breakeven headroom search ---------------------------------------------- *)

(* For every crossing point k (exponents below k pass, the rest fail),
   the bisection must agree with a linear scan and probe each exponent
   at most once. *)
let test_headroom_bisection () =
  let cap = E.Breakeven.headroom_cap in
  for k = 0 to cap + 1 do
    let passes e = e < k in
    let linear =
      let rec scan e = if e <= cap && passes e then scan (e + 1) else e - 1 in
      let last = scan 0 in
      if last < 0 then None else Some last
    in
    let probed = Hashtbl.create 8 in
    let pass_at e =
      if e < 0 || e > cap then Alcotest.failf "k=%d: probed exponent %d out of range" k e;
      if Hashtbl.mem probed e then Alcotest.failf "k=%d: exponent %d probed twice" k e;
      Hashtbl.add probed e ();
      passes e
    in
    Alcotest.(check (option int))
      (Printf.sprintf "crossing at %d" k)
      linear
      (E.Breakeven.headroom ~pass_at)
  done

let suite =
  [
    Alcotest.test_case "value models" `Quick test_value_models;
    Alcotest.test_case "context" `Quick test_context;
    Alcotest.test_case "figure1" `Quick test_figure1;
    Alcotest.test_case "figure2" `Slow test_figure2;
    Alcotest.test_case "figure5 shape" `Slow test_figure5_shape;
    Alcotest.test_case "table3" `Slow test_table3;
    Alcotest.test_case "figure3" `Slow test_figure3;
    Alcotest.test_case "figure6" `Slow test_figure6;
    Alcotest.test_case "figure9" `Slow test_figure9;
    Alcotest.test_case "extension values" `Slow test_extension_values;
    Alcotest.test_case "jobs determinism" `Slow test_jobs_determinism;
    Alcotest.test_case "cache sharing" `Slow test_cache_sharing;
    Alcotest.test_case "profile holds every window" `Quick test_profile_windows;
    Alcotest.test_case "ablations subset" `Quick test_ablations_subset;
    Alcotest.test_case "breakeven headroom bisection" `Quick test_headroom_bisection;
  ]
