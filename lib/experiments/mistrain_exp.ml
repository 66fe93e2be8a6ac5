module MT = Rs_workload.Mistrain
module TS = Rs_behavior.Trace_store
module Table = Rs_util.Table

type row = {
  schedule : string;
  strength : float;
  victims : int;
  quarantined : int;
  mean_q_execs : float;  (** Mean quarantine time in victim executions (nan if none). *)
  mean_q_instrs : float;
  predicted_evict_execs : int;
  reactive_damage : int;  (** Misspeculations of deployed code across all victims. *)
  static_damage : int;  (** Poisoned outcomes a static always-speculate policy eats. *)
  differential_ok : bool;
}

type t = { rows : row list; verdicts : Verdict.t list }

(* Strength 1.0 is deliberately absent: a fully inverted victim is not a
   mistraining attack but a clean direction reversal — after the
   eviction the controller re-selects the flipped direction (the paper's
   Figure 6 "reversed" branches) and there is no quarantine point.  At
   0.9 the poison keeps the bias below the selection threshold, which is
   the actual attack regime. *)
let strengths = [ 0.9; 0.7; 0.4 ]

(* A static (profile-trained, never-revisited) policy speculates every
   victim execution in the trained direction forever; its damage is just
   the count of poisoned outcomes.  The training phases are perfectly
   biased, so the victim's first outcome {e is} the trained direction. *)
let static_damage trace ~n_victims =
  let trained = Array.make n_victims 0 in
  (* 0 = unseen, 1 = trained taken, 2 = trained not-taken *)
  let damage = ref 0 in
  TS.iter_packed trace (fun chunk len ->
      for i = 0 to len - 1 do
        let w = Array.unsafe_get chunk i in
        let br = TS.packed_branch w in
        if br < n_victims then
          let taken = TS.packed_taken w in
          match trained.(br) with
          | 0 -> trained.(br) <- (if taken then 1 else 2)
          | d -> if taken <> (d = 1) then incr damage
      done);
  !damage

let run (ctx : Context.t) =
  let params = Context.params ctx in
  let configs =
    List.concat_map (fun s -> List.map (fun st -> (s, st)) strengths) MT.schedules
  in
  let rows =
    Rs_util.Pool.map_ordered (Context.pool ctx)
      (fun (schedule, strength) ->
        let name = MT.schedule_name schedule in
        let b = MT.build schedule ~strength ~params ~seed:ctx.seed ~scale:ctx.scale in
        let trace = Rs_util.Memo.retry (fun () -> TS.record b.population b.config) in
        let label = Printf.sprintf "mistrain:%s:%g" name strength in
        let differential_ok, _ =
          Rs_sim.Reference.check ~label ~trace b.population b.config params
        in
        let q = Rs_sim.Quarantine.create ~n_branches:(TS.n_branches trace) in
        let (_ : Rs_sim.Engine.result) =
          Rs_sim.Engine.run ~label:(label ^ ":quarantine")
            ~observer:(Rs_sim.Quarantine.observer q) ~trace b.population b.config params
        in
        let n_victims = Array.length b.victims in
        let q_times =
          Array.to_list b.victims
          |> List.filter_map (fun v -> Rs_sim.Quarantine.time_to_quarantine q v)
        in
        let mean f =
          match q_times with
          | [] -> nan
          | l ->
            List.fold_left (fun a x -> a +. float_of_int (f x)) 0.0 l
            /. float_of_int (List.length l)
        in
        let reactive_damage =
          Array.fold_left (fun a v -> a + Rs_sim.Quarantine.misspecs q v) 0 b.victims
        in
        {
          schedule = name;
          strength;
          victims = n_victims;
          quarantined = List.length q_times;
          mean_q_execs = mean fst;
          mean_q_instrs = mean snd;
          predicted_evict_execs = MT.evict_execs params ~strength;
          reactive_damage;
          static_damage = static_damage trace ~n_victims;
          differential_ok;
        })
      (Array.of_list configs)
  in
  let rows = Array.to_list rows in
  let get schedule strength =
    List.find (fun r -> r.schedule = schedule && r.strength = strength) rows
  in
  let total f = List.fold_left (fun a r -> a + f r) 0 rows in
  let reactive_total = total (fun r -> r.reactive_damage) in
  let static_total = total (fun r -> r.static_damage) in
  let monotone =
    List.for_all
      (fun s ->
        let n = MT.schedule_name s in
        (get n 0.9).mean_q_execs <= (get n 0.4).mean_q_execs +. 1.0)
      MT.schedules
  in
  let verdicts =
    [
      {
        Verdict.claim = "the reactive controller quarantines every victim at every strength";
        measured =
          Printf.sprintf "%d / %d victims quarantined"
            (total (fun r -> r.quarantined))
            (total (fun r -> r.victims));
        pass = List.for_all (fun r -> r.quarantined = r.victims) rows;
      };
      {
        Verdict.claim = "stronger mistraining is quarantined no slower";
        measured =
          String.concat ", "
            (List.map
               (fun s ->
                 let n = MT.schedule_name s in
                 Printf.sprintf "%s: %.0f execs @0.9 vs %.0f @0.4" n (get n 0.9).mean_q_execs
                   (get n 0.4).mean_q_execs)
               MT.schedules);
        pass = monotone;
      };
      {
        Verdict.claim = "reactive damage is a small fraction of static always-speculate damage";
        measured =
          Printf.sprintf "reactive %d vs static %d misspeculations" reactive_total
            static_total;
        pass = reactive_total * 2 < static_total && reactive_total > 0;
      };
      {
        Verdict.claim = "packed-batch path agrees with scalar replay on every schedule";
        measured =
          Printf.sprintf "%d / %d runs agree"
            (List.length (List.filter (fun r -> r.differential_ok) rows))
            (List.length rows);
        pass = List.for_all (fun r -> r.differential_ok) rows;
      };
    ]
  in
  { rows; verdicts }

let fmt_mean v = if Float.is_nan v then "-" else Printf.sprintf "%.0f" v

let render t =
  let tbl =
    Table.create ~title:"Mistraining attacks: quarantine time and damage"
      ~columns:
        [
          ("schedule", Table.Left); ("strength", Table.Right); ("victims", Table.Right);
          ("quarantined", Table.Right); ("q-execs", Table.Right); ("q-instrs", Table.Right);
          ("reactive dmg", Table.Right); ("static dmg", Table.Right); ("diff", Table.Right);
        ]
  in
  List.iter
    (fun r ->
      Table.add_row tbl
        [
          r.schedule; Printf.sprintf "%.1f" r.strength; string_of_int r.victims;
          string_of_int r.quarantined; fmt_mean r.mean_q_execs; fmt_mean r.mean_q_instrs;
          Table.fmt_int r.reactive_damage; Table.fmt_int r.static_damage;
          (if r.differential_ok then "ok" else "DIVERGED");
        ])
    t.rows;
  let buf = Buffer.create 2048 in
  Buffer.add_string buf (Table.render tbl);
  Buffer.add_string buf
    "  quarantine time = victim executions (and instructions) between the first\n\
    \  poisoned misspeculation and the deployed code ceasing to speculate.\n\
     \nVerdicts:\n";
  Verdict.render buf t.verdicts;
  Buffer.contents buf
