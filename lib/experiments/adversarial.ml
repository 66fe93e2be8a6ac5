module Adv = Rs_workload.Adversary
module TS = Rs_behavior.Trace_store
module Table = Rs_util.Table

type row = {
  scenario : string;
  summary : string;
  events : int;
  selections : int;
  evictions : int;
  capped : int;
  correct_rate : float;
  incorrect_rate : float;
  differential_ok : bool;
}

type t = { rows : row list; verdicts : Verdict.t list }

let run (ctx : Context.t) =
  let params = Context.params ctx in
  let rows =
    Rs_util.Pool.map_ordered (Context.pool ctx)
      (fun (sc : Adv.t) ->
        let pop, cfg = Adv.build sc ~params ~seed:ctx.seed ~scale:ctx.scale in
        let trace = Rs_util.Memo.retry (fun () -> TS.record pop cfg) in
        let differential_ok, (result : Rs_sim.Engine.result) =
          Rs_sim.Reference.check ~label:("adversarial:" ^ sc.name) ~trace pop cfg params
        in
        let a = Rs_sim.Accounting.of_result result in
        {
          scenario = sc.name;
          summary = sc.summary;
          events = result.total_events;
          selections = a.total_selections;
          evictions = a.total_evictions;
          capped = a.capped;
          correct_rate = a.correct_rate;
          incorrect_rate = a.incorrect_rate;
          differential_ok;
        })
      (Array.of_list Adv.all)
  in
  let rows = Array.to_list rows in
  let get n = List.find (fun r -> r.scenario = n) rows in
  let osc = get "osc_flip" and near = get "near_evict" and starve = get "revisit_starve" in
  let mixed = get "mixed" in
  let verdicts =
    [
      {
        Verdict.claim = "osc_flip: the oscillation cap retires threshold-flipping branches";
        measured =
          Printf.sprintf "%d capped after %d selections / %d evictions" osc.capped
            osc.selections osc.evictions;
        pass = osc.capped > 0 && osc.selections >= params.oscillation_limit;
      };
      {
        Verdict.claim = "near_evict: sustained misspeculation damage with zero evictions";
        measured =
          Printf.sprintf "incorrect %.3f%%, %d evictions" (100.0 *. near.incorrect_rate)
            near.evictions;
        pass = near.evictions = 0 && near.incorrect_rate > 0.0;
      };
      {
        Verdict.claim = "revisit_starve: monitor-window fair coins are never selected";
        measured = Printf.sprintf "%d selections" starve.selections;
        pass = starve.selections = 0;
      };
      {
        Verdict.claim = "mixed: benign background still earns correct speculation under attack";
        measured = Printf.sprintf "correct %.1f%%" (100.0 *. mixed.correct_rate);
        pass = mixed.correct_rate > 0.0;
      };
      {
        Verdict.claim = "packed-batch path agrees with scalar replay on every scenario";
        measured =
          String.concat ", "
            (List.map
               (fun r -> Printf.sprintf "%s:%b" r.scenario r.differential_ok)
               rows);
        pass = List.for_all (fun r -> r.differential_ok) rows;
      };
    ]
  in
  { rows; verdicts }

let render t =
  let tbl =
    Table.create ~title:"Adversarial scenarios vs the reactive controller"
      ~columns:
        [
          ("scenario", Table.Left); ("events", Table.Right); ("select", Table.Right);
          ("evict", Table.Right); ("capped", Table.Right); ("rates", Table.Right);
          ("diff", Table.Right);
        ]
  in
  List.iter
    (fun r ->
      Table.add_row tbl
        [
          r.scenario; Table.fmt_int r.events; Table.fmt_int r.selections;
          Table.fmt_int r.evictions; Table.fmt_int r.capped;
          Table.fmt_rate_pair ~correct:r.correct_rate ~incorrect:r.incorrect_rate ();
          (if r.differential_ok then "ok" else "DIVERGED");
        ])
    t.rows;
  let buf = Buffer.create 2048 in
  Buffer.add_string buf (Table.render tbl);
  List.iter
    (fun r -> Buffer.add_string buf (Printf.sprintf "  %-14s %s\n" r.scenario r.summary))
    t.rows;
  Buffer.add_string buf "\nVerdicts:\n";
  Verdict.render buf t.verdicts;
  Buffer.contents buf
