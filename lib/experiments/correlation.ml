module W = Rs_mssp.Workload
module Table = Rs_util.Table

type row = {
  benchmark : string;
  task_squashes : int;
  branch_violations : int;
  ratio : float;
}

type t = { rows : row list }

let run ctx =
  let rows =
    Rs_util.Pool.map_ordered (Context.pool ctx)
      (fun (spec : W.t) ->
        let seed = ctx.Context.seed in
        let s =
          Cache.mssp spec ~seed (Figure7.mssp_params ~monitor:1_000 ~closed:true)
        in
        {
          benchmark = spec.name;
          task_squashes = s.squashes;
          branch_violations = s.violated_branches;
          ratio =
            (if s.squashes = 0 then 1.0
             else float_of_int s.violated_branches /. float_of_int s.squashes);
        })
      (Array.of_list W.all)
  in
  { rows = Array.to_list rows }

let render t =
  let tbl =
    Table.create
      ~title:
        "Section 4.3: task-granularity correlation (branch violations folded into task \
         squashes)"
      ~columns:
        [
          ("bench", Table.Left);
          ("task squashes", Table.Right);
          ("branch violations", Table.Right);
          ("violations/squash", Table.Right);
        ]
  in
  List.iter
    (fun r ->
      Table.add_row tbl
        [
          r.benchmark;
          Table.fmt_int r.task_squashes;
          Table.fmt_int r.branch_violations;
          Table.fmt_float r.ratio;
        ])
    t.rows;
  let n = float_of_int (List.length t.rows) in
  let avg = List.fold_left (fun a r -> a +. r.ratio) 0.0 t.rows /. n in
  Table.add_sep tbl;
  Table.add_row tbl [ "ave"; ""; ""; Table.fmt_float avg ];
  Table.render tbl
  ^ "  paper: the task misspeculation rate is noticeably lower than the abstract model\n\
    \  predicts because several failed speculations can share one task squash.\n"
