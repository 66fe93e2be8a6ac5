type t = { verdicts : Verdict.t list }

let pct x = Printf.sprintf "%.2f%%" (x *. 100.0)

let run ctx =
  let verdicts = ref [] in
  let check claim measured pass = verdicts := { Verdict.claim; measured; pass } :: !verdicts in

  (* The five sub-experiments behind the verdicts are independent: fan
     them out over the pool (each fans out again internally over its
     benchmarks; the pool supports that nesting).  In an [rspec all] run
     the profiles, engine runs and MSSP runs they need are already in
     {!Cache}; only figure6's hooked engine replays (over cached traces)
     run again. *)
  let f5, f2, f6, f7, f8 =
    match
      Rs_util.Pool.map_ordered (Context.pool ctx)
        (fun run -> run ())
        [|
          (fun () -> `F5 (Figure5.run ctx));
          (fun () -> `F2 (Figure2.run ctx));
          (fun () -> `F6 (Figure6.run ctx));
          (fun () -> `F7 (Figure7.run ctx));
          (fun () -> `F8 (Figure8.run ctx));
        |]
    with
    | [| `F5 f5; `F2 f2; `F6 f6; `F7 f7; `F8 f8 |] -> (f5, f2, f6, f7, f8)
    | _ -> assert false
  in

  (* ---- abstract model (Figures 2/5, Tables 3/4) ---- *)
  let avgs = Figure5.averages f5 in
  let get k = List.assoc k avgs in
  let base = get "baseline" in
  let noev = get "no-eviction" in
  let norv = get "no-revisit" in

  check "baseline speculates on ~45% of dynamic branches (Table 4: 44.8%)"
    (Printf.sprintf "average correct rate %s" (pct base.correct))
    (base.correct > 0.38 && base.correct < 0.52);

  check "removing the eviction arc raises misspeculation by well over an order of magnitude"
    (Printf.sprintf "no-eviction %s vs baseline %s (x%.0f)" (pct noev.incorrect)
       (pct base.incorrect)
       (noev.incorrect /. Float.max base.incorrect 1e-12))
    (noev.incorrect > 10.0 *. base.incorrect);

  check "removing the revisit arc keeps only ~80% of the correct speculations"
    (Printf.sprintf "no-revisit keeps %.0f%%" (100.0 *. norv.correct /. base.correct))
    (norv.correct < 0.92 *. base.correct && norv.correct > 0.6 *. base.correct);

  let secondary = [ "low-evict"; "sampled-evict"; "monitor-sampling"; "fast-revisit" ] in
  let max_dev =
    List.fold_left
      (fun acc k -> Float.max acc (abs_float ((get k).correct -. base.correct)))
      0.0 secondary
  in
  check "every other variant clusters near the baseline (correct rates)"
    (Printf.sprintf "max deviation %.1f points" (100.0 *. max_dev))
    (max_dev < 0.06);

  let beats =
    List.filter
      (fun (r : Figure5.bench_row) ->
        let b = List.assoc "baseline" r.by_variant in
        b.correct > r.self_training.correct)
      f5.rows
  in
  check "the reactive model outperforms static self-training on gzip and mcf"
    (Printf.sprintf "beats self-training on {%s}"
       (String.concat ", " (List.map (fun (r : Figure5.bench_row) -> r.benchmark) beats)))
    (List.exists (fun (r : Figure5.bench_row) -> r.benchmark = "gzip") beats
    && List.exists (fun (r : Figure5.bench_row) -> r.benchmark = "mcf") beats);

  (* ---- offline profiling fragility (Figure 2) ---- *)
  let avg sel = List.fold_left (fun a r -> a +. sel r) 0.0 f2.rows /. 12.0 in
  let knee_c = avg (fun (r : Figure2.row) -> r.knee.correct) in
  let off_c = avg (fun (r : Figure2.row) -> r.offline.correct) in
  let knee_i = avg (fun (r : Figure2.row) -> r.knee.incorrect) in
  let off_i = avg (fun (r : Figure2.row) -> r.offline.incorrect) in
  check "training on a different input loses much of the benefit (paper: /3)"
    (Printf.sprintf "benefit / %.1f" (knee_c /. Float.max off_c 1e-9))
    (knee_c > 1.8 *. off_c);
  check "training on a different input multiplies misspeculation (paper: x10)"
    (Printf.sprintf "misspeculation x %.0f" (off_i /. Float.max knee_i 1e-12))
    (off_i > 5.0 *. knee_i);

  (* ---- eviction vicinity (Figure 6) ---- *)
  check "over ~half of evicted branches fall below 30% bias in the transition period"
    (Printf.sprintf "%.0f%% below 30%%" (100.0 *. f6.below_30pct))
    (f6.below_30pct > 0.45);
  check "~20% of evicted branches become perfectly biased the other way"
    (Printf.sprintf "%.0f%% reversed" (100.0 *. f6.reversed))
    (f6.reversed > 0.08 && f6.reversed < 0.40);

  (* ---- MSSP (Figures 7/8) ---- *)
  let avg7 sel = List.fold_left (fun a r -> a +. sel r) 0.0 f7.rows /. 12.0 in
  let c1 = avg7 (fun r -> r.Figure7.closed_1k) in
  let o1 = avg7 (fun r -> r.Figure7.open_1k) in
  check "MSSP with closed-loop control beats the baseline superscalar"
    (Printf.sprintf "average speedup %.2fx" c1)
    (c1 > 1.1);
  check "the open loop trails the closed loop substantially (paper: ~18%)"
    (Printf.sprintf "gap %.0f%%" (100.0 *. (c1 -. o1) /. c1))
    ((c1 -. o1) /. c1 > 0.08);
  check "a poor control policy can push MSSP below the vanilla superscalar"
    (Printf.sprintf "open-loop minimum %.2fx"
       (List.fold_left (fun a r -> Float.min a r.Figure7.open_1k) infinity f7.rows))
    (List.exists (fun r -> r.Figure7.open_1k < 1.0) f7.rows);

  let avg8 sel = List.fold_left (fun a r -> a +. sel r) 0.0 f8.rows /. 12.0 in
  let l0 = avg8 (fun r -> r.Figure8.latency0) in
  let l5 = avg8 (fun r -> r.Figure8.latency_100k) in
  check "10^5 cycles of (re-)optimization latency is almost free (paper: <2%)"
    (Printf.sprintf "degradation %.1f%%" (100.0 *. (l0 -. l5) /. l0))
    ((l0 -. l5) /. l0 < 0.03);

  { verdicts = List.rev !verdicts }


let render t =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "Paper-claim checklist (shape checks, not absolute numbers):\n";
  Verdict.render buf t.verdicts;
  let n_pass = List.length (List.filter (fun (v : Verdict.t) -> v.pass) t.verdicts) in
  Buffer.add_string buf
    (Printf.sprintf "  %d / %d claims reproduced\n" n_pass (List.length t.verdicts));
  Buffer.contents buf
