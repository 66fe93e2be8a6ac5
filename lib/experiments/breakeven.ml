module BM = Rs_workload.Benchmark
module Table = Rs_util.Table

type row = {
  benchmark : string;
  reactive_ratio : float;
  open_loop_ratio : float;
  headroom : int option;
      (* Largest probed exponent [e] such that scaling the eviction
         threshold by [2^e] keeps the misspeculation rate under
         {!headroom_bound}; [None] when even the paper threshold
         exceeds it. *)
}

type t = { rows : row list }

let ratio (r : Rs_sim.Engine.result) =
  if r.incorrect = 0 then infinity
  else float_of_int r.correct /. float_of_int r.incorrect

(* Eviction-threshold headroom: how far the reactive controller's
   eviction trigger can be relaxed before misspeculation stops being
   negligible.  The paper's break-even argument says reactive control
   tolerates penalties far above the per-speculation benefit; the
   headroom column quantifies the complementary slack — how much
   hysteresis budget each benchmark leaves before the controller stops
   containing misspeculation below 0.1% of dynamic branches. *)
let headroom_cap = 6 (* probe thresholds up to 2^6 = 64x the default *)
let headroom_bound = 0.001

let incorrect_rate (r : Rs_sim.Engine.result) =
  if r.total_events = 0 then 0.0
  else float_of_int r.incorrect /. float_of_int r.total_events

(* Largest exponent in [0, headroom_cap] whose probe passes, assuming
   [pass_at] is monotone (passes up to the crossing point, fails after).
   Probes 0 and the cap first, then bisects between them; every exponent
   is probed at most once. *)
let headroom ~pass_at =
  (* invariant: pass_at lo && not (pass_at hi) *)
  let rec bisect lo hi =
    if hi - lo <= 1 then lo
    else
      let mid = (lo + hi) / 2 in
      if pass_at mid then bisect mid hi else bisect lo mid
  in
  if not (pass_at 0) then None
  else if pass_at headroom_cap then Some headroom_cap
  else Some (bisect 0 headroom_cap)

let run ctx =
  let rows =
    Rs_util.Pool.map_ordered (Context.pool ctx)
      (fun (bm : BM.t) ->
        let baseline = Cache.run ctx bm ~input:Ref (Context.params ctx) in
        let open_loop =
          Cache.run ctx bm ~input:Ref
            (Context.params_of ctx Rs_core.Variants.no_eviction.params)
        in
        let eval e : Rs_sim.Engine.result =
          Cache.run ctx bm ~input:Ref
            (Context.params_of ctx
               {
                 Rs_core.Params.default with
                 evict_threshold = Rs_core.Params.default.evict_threshold * (1 lsl e);
               })
        in
        {
          benchmark = bm.name;
          reactive_ratio = ratio baseline;
          open_loop_ratio = ratio open_loop;
          (* exponent 0 is the baseline run itself — a cache hit *)
          headroom = headroom ~pass_at:(fun e -> incorrect_rate (eval e) <= headroom_bound);
        })
      (Array.of_list BM.all)
  in
  { rows = Array.to_list rows }

let fmt v = if Float.is_finite v then Printf.sprintf "%.0fx" v else "inf"

let fmt_headroom = function
  | None -> "-"
  | Some e when e >= headroom_cap -> Printf.sprintf ">=%dx" (1 lsl headroom_cap)
  | Some e -> Printf.sprintf "%dx" (1 lsl e)

let render t =
  let tbl =
    Table.create
      ~title:
        "Break-even penalty/benefit ratio (correct : incorrect speculations; higher \
         tolerates costlier misspeculation)"
      ~columns:
        [
          ("bench", Table.Left);
          ("reactive", Table.Right);
          ("open loop", Table.Right);
          ("evict headroom", Table.Right);
        ]
  in
  List.iter
    (fun r ->
      Table.add_row tbl
        [ r.benchmark; fmt r.reactive_ratio; fmt r.open_loop_ratio; fmt_headroom r.headroom ])
    t.rows;
  Table.add_sep tbl;
  let finite =
    List.filter (fun r -> Float.is_finite r.reactive_ratio) t.rows
  in
  let gmean sel =
    exp
      (List.fold_left (fun a r -> a +. log (sel r)) 0.0 finite
      /. float_of_int (max 1 (List.length finite)))
  in
  Table.add_row tbl
    [
      "geomean";
      fmt (gmean (fun r -> r.reactive_ratio));
      fmt (gmean (fun r -> r.open_loop_ratio));
      "";
    ]
  ;
  Table.render tbl
  ^ "  paper: reactive control sustains penalties two orders of magnitude above the\n\
    \  per-speculation benefit; an open loop cannot.  The headroom column is the\n\
    \  largest eviction-threshold scaling that keeps misspeculation under 0.1% of\n\
    \  dynamic branches (found by speculative bisection).\n"
