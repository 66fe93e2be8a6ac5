module M = Rs_mssp.Machine
module W = Rs_mssp.Workload
module Table = Rs_util.Table

type row = {
  benchmark : string;
  closed_1k : float;
  open_1k : float;
  closed_10k : float;
  open_10k : float;
  squashes_closed : int;
  squashes_open : int;
}

type t = { rows : row list }

let mssp_params ~monitor ~closed =
  {
    Rs_core.Params.default with
    monitor_period = monitor;
    wait_period = 50_000;
    optimization_latency = 0;
    enable_eviction = closed;
  }

let run ctx =
  let rows =
    Rs_util.Pool.map_ordered (Context.pool ctx)
      (fun (spec : W.t) ->
        let seed = ctx.Context.seed in
        let go ~monitor ~closed = Cache.mssp spec ~seed (mssp_params ~monitor ~closed) in
        let c1 = go ~monitor:1_000 ~closed:true in
        let o1 = go ~monitor:1_000 ~closed:false in
        let c10 = go ~monitor:10_000 ~closed:true in
        let o10 = go ~monitor:10_000 ~closed:false in
        {
          benchmark = spec.name;
          closed_1k = M.speedup c1;
          open_1k = M.speedup o1;
          closed_10k = M.speedup c10;
          open_10k = M.speedup o10;
          squashes_closed = c1.squashes;
          squashes_open = o1.squashes;
        })
      (Array.of_list W.all)
  in
  { rows = Array.to_list rows }

let render t =
  let tbl =
    Table.create
      ~title:
        "Figure 7: MSSP speedup over the baseline superscalar (B = 1.0)\n\
        \  c/o = closed/open loop, monitor 1k; C/O = closed/open loop, monitor 10k"
      ~columns:
        [
          ("bench", Table.Left);
          ("c", Table.Right);
          ("o", Table.Right);
          ("C", Table.Right);
          ("O", Table.Right);
          ("squash c", Table.Right);
          ("squash o", Table.Right);
        ]
  in
  List.iter
    (fun r ->
      Table.add_row tbl
        [
          r.benchmark;
          Table.fmt_float r.closed_1k;
          Table.fmt_float r.open_1k;
          Table.fmt_float r.closed_10k;
          Table.fmt_float r.open_10k;
          Table.fmt_int r.squashes_closed;
          Table.fmt_int r.squashes_open;
        ])
    t.rows;
  Table.add_sep tbl;
  let n = float_of_int (List.length t.rows) in
  let avg f = List.fold_left (fun a r -> a +. f r) 0.0 t.rows /. n in
  let c1 = avg (fun r -> r.closed_1k)
  and o1 = avg (fun r -> r.open_1k)
  and c10 = avg (fun r -> r.closed_10k)
  and o10 = avg (fun r -> r.open_10k) in
  Table.add_row tbl
    [ "ave"; Table.fmt_float c1; Table.fmt_float o1; Table.fmt_float c10; Table.fmt_float o10;
      ""; "" ];
  Table.render tbl
  ^ Printf.sprintf
      "  open loop trails closed loop by %.0f%% at monitor 1k (paper: ~18%%), %.0f%% at 10k \
       (paper: ~11%%)\n"
      ((c1 -. o1) /. c1 *. 100.0)
      ((c10 -. o10) /. c10 *. 100.0)
