module IL = Rs_workload.Interleave
module Table = Rs_util.Table

type row = {
  schedule : string;
  table : string;  (** ["shared"] or ["per_context"]. *)
  events : int;
  selections : int;
  evictions : int;
  capped : int;
  correct_rate : float;
  incorrect_rate : float;
  differential_ok : bool;
}

type t = { contexts : int; per_context_events : int array; rows : row list; verdicts : Verdict.t list }

(* The merged streams give each branch a fixed [IL.execs_per_branch]
   budget, far below the benchmark workloads' — so the controller runs
   with proportionally shortened time constants (the same ratios, a
   faster clock; cf. [Params.compress]). *)
let params (ctx : Context.t) =
  let p = Context.params ctx in
  {
    p with
    Rs_core.Params.monitor_period = 400;
    evict_threshold = 2_000;
    wait_period = 1_500;
    optimization_latency = 4_000;
  }

let run (ctx : Context.t) =
  let params = params ctx in
  let jobs =
    List.concat_map
      (fun s ->
        let m = IL.build s ~seed:ctx.seed ~scale:ctx.scale in
        [ (s, "shared", m.IL.shared, m); (s, "per_context", m.IL.split, m) ])
      IL.schedules
  in
  let per_context_events =
    match jobs with (_, _, _, m) :: _ -> m.IL.per_context_events | [] -> [||]
  in
  let rows =
    Rs_util.Pool.map_ordered (Context.pool ctx)
      (fun (schedule, table, (pop, cfg, trace), _) ->
        let name = IL.schedule_name schedule in
        let differential_ok, (result : Rs_sim.Engine.result) =
          Rs_sim.Reference.check
            ~label:(Printf.sprintf "interleave:%s:%s" name table)
            ~trace pop cfg params
        in
        let a = Rs_sim.Accounting.of_result result in
        {
          schedule = name;
          table;
          events = result.total_events;
          selections = a.total_selections;
          evictions = a.total_evictions;
          capped = a.capped;
          correct_rate = a.correct_rate;
          incorrect_rate = a.incorrect_rate;
          differential_ok;
        })
      (Array.of_list jobs)
  in
  let rows = Array.to_list rows in
  let get schedule table =
    List.find (fun r -> r.schedule = schedule && r.table = table) rows
  in
  let rr_shared = get "round_robin" "shared" in
  let rr_split = get "round_robin" "per_context" in
  let b_shared = get "bursty" "shared" in
  let b_split = get "bursty" "per_context" in
  let verdicts =
    [
      {
        Verdict.claim = "fine-grained sharing starves selection (a shared table never speculates)";
        measured =
          Printf.sprintf "round-robin shared: %d selections, correct %.1f%%"
            rr_shared.selections (100.0 *. rr_shared.correct_rate);
        pass = rr_shared.selections = 0;
      };
      {
        Verdict.claim = "per-context tables recover the speculation the shared table lost";
        measured =
          Printf.sprintf "per-context correct %.1f%% vs shared %.1f%%"
            (100.0 *. rr_split.correct_rate)
            (100.0 *. rr_shared.correct_rate);
        pass = rr_split.correct_rate > 0.5 && rr_split.correct_rate > rr_shared.correct_rate;
      };
      {
        Verdict.claim = "bursty sharing speculates inside bursts but is evicted at context switches";
        measured =
          Printf.sprintf "bursty shared: %d selections, %d evictions" b_shared.selections
            b_shared.evictions;
        pass = b_shared.selections > 0 && b_shared.evictions > 0;
      };
      {
        Verdict.claim = "splitting the table removes the interference evictions";
        measured =
          Printf.sprintf "bursty per-context %d evictions vs shared %d" b_split.evictions
            b_shared.evictions;
        pass = b_split.evictions < b_shared.evictions;
      };
      {
        Verdict.claim = "packed-batch path agrees with scalar replay on every merged trace";
        measured =
          Printf.sprintf "%d / %d runs agree"
            (List.length (List.filter (fun r -> r.differential_ok) rows))
            (List.length rows);
        pass = List.for_all (fun r -> r.differential_ok) rows;
      };
    ]
  in
  { contexts = IL.n_contexts; per_context_events; rows; verdicts }

let render t =
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf "Interleaved contexts (%d streams): shared vs per-context tables"
           t.contexts)
      ~columns:
        [
          ("schedule", Table.Left); ("table", Table.Left); ("events", Table.Right);
          ("select", Table.Right); ("evict", Table.Right); ("capped", Table.Right);
          ("rates", Table.Right); ("diff", Table.Right);
        ]
  in
  List.iter
    (fun r ->
      Table.add_row tbl
        [
          r.schedule; r.table; Table.fmt_int r.events; Table.fmt_int r.selections;
          Table.fmt_int r.evictions; Table.fmt_int r.capped;
          Table.fmt_rate_pair ~correct:r.correct_rate ~incorrect:r.incorrect_rate ();
          (if r.differential_ok then "ok" else "DIVERGED");
        ])
    t.rows;
  let buf = Buffer.create 2048 in
  Buffer.add_string buf (Table.render tbl);
  Buffer.add_string buf
    (Printf.sprintf "  events per context: %s\n"
       (String.concat ", "
          (Array.to_list (Array.map Table.fmt_int t.per_context_events))));
  Buffer.add_string buf "\nVerdicts:\n";
  Verdict.render buf t.verdicts;
  Buffer.contents buf
