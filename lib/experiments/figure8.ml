module M = Rs_mssp.Machine
module W = Rs_mssp.Workload
module Table = Rs_util.Table

type row = { benchmark : string; latency0 : float; latency_100k : float; latency_1m : float }

type t = { rows : row list }

let run ctx =
  let rows =
    Rs_util.Pool.map_ordered (Context.pool ctx)
      (fun (spec : W.t) ->
        let seed = ctx.Context.seed in
        let go latency =
          let params =
            { (Figure7.mssp_params ~monitor:1_000 ~closed:true) with
              optimization_latency = latency }
          in
          M.speedup (Cache.mssp spec ~seed params)
        in
        {
          benchmark = spec.name;
          latency0 = go 0;
          latency_100k = go 100_000;
          latency_1m = go 1_000_000;
        })
      (Array.of_list W.all)
  in
  { rows = Array.to_list rows }

let render t =
  let tbl =
    Table.create
      ~title:
        "Figure 8: MSSP speedup vs (re-)optimization latency (closed loop, speedup over \
         baseline)"
      ~columns:
        [
          ("bench", Table.Left);
          ("0 cycles", Table.Right);
          ("10^5 cycles", Table.Right);
          ("10^6 cycles", Table.Right);
        ]
  in
  List.iter
    (fun r ->
      Table.add_row tbl
        [
          r.benchmark;
          Table.fmt_float r.latency0;
          Table.fmt_float r.latency_100k;
          Table.fmt_float r.latency_1m;
        ])
    t.rows;
  Table.add_sep tbl;
  let n = float_of_int (List.length t.rows) in
  let avg f = List.fold_left (fun a r -> a +. f r) 0.0 t.rows /. n in
  let a0 = avg (fun r -> r.latency0)
  and a1 = avg (fun r -> r.latency_100k)
  and a2 = avg (fun r -> r.latency_1m) in
  Table.add_row tbl
    [ "ave"; Table.fmt_float a0; Table.fmt_float a1; Table.fmt_float a2 ];
  Table.render tbl
  ^ Printf.sprintf
      "  degradation at 10^6 cycles: %.1f%% (paper: < 2%%; the model is latency tolerant)\n"
      ((a0 -. a2) /. a0 *. 100.0)
