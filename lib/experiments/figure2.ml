module BM = Rs_workload.Benchmark
module Profile = Rs_sim.Profile
module Pareto = Rs_sim.Pareto
module SE = Rs_sim.Static_eval
module Table = Rs_util.Table

type point = { correct : float; incorrect : float }

type row = {
  benchmark : string;
  knee : point;
  offline : point;
  window_points : (int * point) array;
  curve : point array;
}

type t = { rows : row list }

let threshold = 0.99

let point_of_outcome profile (o : SE.outcome) =
  let c, i = SE.rate profile { correct = o.correct; incorrect = o.incorrect } in
  { correct = c; incorrect = i }

let downsample arr n =
  let len = Array.length arr in
  if len <= n then arr
  else Array.init n (fun i -> arr.(i * (len - 1) / (n - 1)))

let run_benchmark ctx bm =
  let windows = Context.windows ctx in
  let eval = Cache.profile ctx bm ~input:Ref in
  let train = Cache.profile ctx bm ~input:Train in
  let knee =
    let p = Pareto.at_threshold eval ~threshold in
    { correct = Pareto.correct_rate eval p; incorrect = Pareto.incorrect_rate eval p }
  in
  let offline = point_of_outcome eval (SE.offline ~train ~eval ~threshold) in
  let window_points =
    Array.map
      (fun w -> (w, point_of_outcome eval (SE.initial_window eval ~window:w ~threshold)))
      windows
  in
  let curve =
    downsample
      (Array.map
         (fun (p : Pareto.point) ->
           { correct = Pareto.correct_rate eval p; incorrect = Pareto.incorrect_rate eval p })
         (Pareto.curve eval))
      24
  in
  { benchmark = bm.name; knee; offline; window_points; curve }

let run ctx =
  let rows =
    Rs_util.Pool.map_ordered (Context.pool ctx) (run_benchmark ctx) (Array.of_list BM.all)
  in
  { rows = Array.to_list rows }

let fmt_point (p : point) =
  Table.fmt_rate_pair ~decimals:2 ~parens:true ~correct:p.correct ~incorrect:p.incorrect ()

let render t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "Figure 2: correct vs incorrect speculation (correct% @ misspec% of dynamic branches)\n";
  let tbl =
    Table.create ~title:"  knee = self-training @99%; triangle = offline profile (Table 1 train \
                         input); crosses = initial windows"
      ~columns:
        ([ ("bench", Table.Left); ("knee (o)", Table.Right); ("offline (^)", Table.Right) ]
        @ (match t.rows with
          | [] -> []
          | r :: _ ->
            Array.to_list
              (Array.map
                 (fun (w, _) -> (Printf.sprintf "win %s" (Table.fmt_int w), Table.Right))
                 r.window_points)))
  in
  List.iter
    (fun r ->
      Table.add_row tbl
        ([ r.benchmark; fmt_point r.knee; fmt_point r.offline ]
        @ Array.to_list (Array.map (fun (_, p) -> fmt_point p) r.window_points)))
    t.rows;
  Buffer.add_string buf (Table.render tbl);
  (* Aggregate shape checks mirroring the paper's prose. *)
  let avg f = List.fold_left (fun a r -> a +. f r) 0.0 t.rows /. float_of_int (List.length t.rows) in
  let knee_c = avg (fun r -> r.knee.correct) in
  let off_c = avg (fun r -> r.offline.correct) in
  let knee_i = avg (fun r -> r.knee.incorrect) in
  let off_i = avg (fun r -> r.offline.incorrect) in
  Buffer.add_string buf
    (Printf.sprintf
       "\n  averages: self-training knee %.1f%% correct @ %.4f%% misspec\n\
       \            offline profile    %.1f%% correct @ %.4f%% misspec\n\
       \  paper: knee ~46%% correct; offline benefit / ~3, misspeculation x ~10\n\
       \  measured: benefit / %.2f, misspeculation x %.1f\n"
       (knee_c *. 100.0) (knee_i *. 100.0) (off_c *. 100.0) (off_i *. 100.0)
       (knee_c /. Float.max off_c 1e-9)
       (off_i /. Float.max knee_i 1e-12));
  Buffer.contents buf
