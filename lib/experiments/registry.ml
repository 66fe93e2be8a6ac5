module Metrics = Rs_obs.Metrics
module Trace = Rs_obs.Trace

type value = S of string | I of int | F of float | B of bool | Null

type kind = Str | Int | Float | Bool

type column = { col : string; kind : kind }

type row = value list

type 'a sheet = { sheet : string; columns : column list; rows : 'a -> row list }

type 'a spec = {
  name : string;
  description : string;
  paper_ref : string;
  run : Context.t -> 'a;
  render : 'a -> string;
  sheets : 'a sheet list;
}

type entry = Entry : 'a spec -> entry

let name (Entry s) = s.name
let description (Entry s) = s.description
let paper_ref (Entry s) = s.paper_ref

(* ---------------------------------------------------------------------- *)
(* Schema shorthands                                                       *)
(* ---------------------------------------------------------------------- *)

let str n = { col = n; kind = Str }
let int n = { col = n; kind = Int }
let flt n = { col = n; kind = Float }
let bool n = { col = n; kind = Bool }

(* The one [verdicts] sheet: claims and the three adversarial entries. *)
let verdict_sheet verdicts =
  {
    sheet = "verdicts";
    columns = [ str "claim"; str "measured"; bool "pass" ];
    rows =
      (fun t ->
        List.map (fun (v : Verdict.t) -> [ S v.claim; S v.measured; B v.pass ]) (verdicts t));
  }

(* ---------------------------------------------------------------------- *)
(* The entries, in [rspec all] (paper) order                               *)
(* ---------------------------------------------------------------------- *)

let figure1 =
  Entry
    {
      name = "figure1";
      description = "Code approximation example (before/after distillation)";
      paper_ref = "Figure 1";
      run = Figure1.run;
      render = Figure1.render;
      sheets =
        [
          {
            sheet = "summary";
            columns =
              [ int "original_size"; int "distilled_size"; bool "verified"; str "detail" ];
            rows =
              (fun (t : Figure1.t) ->
                [
                  [
                    I t.original_size;
                    I t.distilled_size;
                    B (Result.is_ok t.verified);
                    S
                      (match t.verified with
                      | Ok n -> Printf.sprintf "%d assumption-consistent trials" n
                      | Error e -> e);
                  ];
                ]);
          };
          {
            sheet = "program";
            columns =
              [
                int "functions";
                int "original_size";
                int "distilled_size";
                int "inlined_calls";
                int "hot_blocks";
                int "cold_blocks";
                int "cold_entries";
                int "check_trials";
                int "check_consistent";
                int "check_violated";
                int "check_detected";
                bool "check_ok";
              ];
            rows =
              (fun (t : Figure1.t) ->
                let p = t.program in
                let rep f =
                  match p.Figure1.check with Ok r -> f r | Error _ -> 0
                in
                [
                  [
                    I p.Figure1.functions;
                    I p.Figure1.prog_original_size;
                    I p.Figure1.prog_distilled_size;
                    I p.Figure1.inlined_calls;
                    I p.Figure1.hot_blocks;
                    I p.Figure1.cold_blocks;
                    I p.Figure1.cold_entries;
                    I (rep (fun r -> r.Rs_distill.Check.trials));
                    I (rep (fun r -> r.Rs_distill.Check.consistent));
                    I (rep (fun r -> r.Rs_distill.Check.violated));
                    I (rep (fun r -> r.Rs_distill.Check.detected));
                    B (Figure1.check_ok p);
                  ];
                ]);
          };
        ];
    }

let figure2 =
  Entry
    {
      name = "figure2";
      description = "Correct/incorrect speculation trade-off";
      paper_ref = "Figure 2";
      run = Figure2.run;
      render = Figure2.render;
      sheets =
        [
          {
            sheet = "curves";
            columns = [ str "benchmark"; int "point"; flt "correct_rate"; flt "incorrect_rate" ];
            rows =
              (fun (t : Figure2.t) ->
                List.concat_map
                  (fun (r : Figure2.row) ->
                    Array.to_list
                      (Array.mapi
                         (fun i (p : Figure2.point) ->
                           [ S r.benchmark; I i; F p.correct; F p.incorrect ])
                         r.curve))
                  t.rows);
          };
          {
            sheet = "points";
            columns =
              [
                str "benchmark"; str "kind"; int "window"; flt "correct_rate";
                flt "incorrect_rate";
              ];
            rows =
              (fun (t : Figure2.t) ->
                List.concat_map
                  (fun (r : Figure2.row) ->
                    [ S r.benchmark; S "knee"; Null; F r.knee.correct; F r.knee.incorrect ]
                    :: [ S r.benchmark; S "offline"; Null; F r.offline.correct;
                         F r.offline.incorrect ]
                    :: Array.to_list
                         (Array.map
                            (fun (w, (p : Figure2.point)) ->
                              [ S r.benchmark; S "window"; I w; F p.correct; F p.incorrect ])
                            r.window_points))
                  t.rows);
          };
        ];
    }

let figure3 =
  Entry
    {
      name = "figure3";
      description = "Branches with initially invariant behaviour";
      paper_ref = "Figure 3";
      run = Figure3.run;
      render = Figure3.render;
      sheets =
        [
          {
            sheet = "tracks";
            columns = [ str "benchmark"; int "branch"; int "block"; flt "bias" ];
            rows =
              (fun (t : Figure3.t) ->
                List.concat_map
                  (fun (tr : Figure3.track) ->
                    List.map
                      (fun (blk, bias) -> [ S t.benchmark; I tr.branch; I blk; F bias ])
                      tr.series)
                  t.tracks);
          };
        ];
    }

let figure5 =
  Entry
    {
      name = "figure5";
      description = "Reactive model vs self-training, with sensitivity variants";
      paper_ref = "Figure 5";
      run = Figure5.run;
      render = Figure5.render;
      sheets =
        [
          {
            sheet = "points";
            columns =
              [ str "benchmark"; str "configuration"; flt "correct_rate"; flt "incorrect_rate" ];
            rows =
              (fun (t : Figure5.t) ->
                List.concat_map
                  (fun (r : Figure5.bench_row) ->
                    [ S r.benchmark; S "self-training"; F r.self_training.correct;
                      F r.self_training.incorrect ]
                    :: List.map
                         (fun (key, (c : Figure5.cell)) ->
                           [ S r.benchmark; S key; F c.correct; F c.incorrect ])
                         r.by_variant)
                  t.rows);
          };
        ];
    }

let figure6 =
  Entry
    {
      name = "figure6";
      description = "Post-eviction misprediction distribution";
      paper_ref = "Figure 6";
      run = Figure6.run;
      render = Figure6.render;
      sheets =
        [
          {
            sheet = "histogram";
            columns = [ flt "bin_low"; flt "bin_high"; int "evictions" ];
            rows =
              (fun (t : Figure6.t) ->
                List.map (fun ((lo, hi), count) -> [ F lo; F hi; I count ]) t.histogram);
          };
        ];
    }

let figure7 =
  Entry
    {
      name = "figure7";
      description = "MSSP: closed- vs open-loop control";
      paper_ref = "Figure 7";
      run = Figure7.run;
      render = Figure7.render;
      sheets =
        [
          {
            sheet = "speedups";
            columns =
              [ str "benchmark"; flt "closed_1k"; flt "open_1k"; flt "closed_10k";
                flt "open_10k" ];
            rows =
              (fun (t : Figure7.t) ->
                List.map
                  (fun (r : Figure7.row) ->
                    [ S r.benchmark; F r.closed_1k; F r.open_1k; F r.closed_10k; F r.open_10k ])
                  t.rows);
          };
          {
            sheet = "squashes";
            columns = [ str "benchmark"; int "squashes_closed"; int "squashes_open" ];
            rows =
              (fun (t : Figure7.t) ->
                List.map
                  (fun (r : Figure7.row) ->
                    [ S r.benchmark; I r.squashes_closed; I r.squashes_open ])
                  t.rows);
          };
        ];
    }

let figure8 =
  Entry
    {
      name = "figure8";
      description = "MSSP: optimization latency sensitivity";
      paper_ref = "Figure 8";
      run = Figure8.run;
      render = Figure8.render;
      sheets =
        [
          {
            sheet = "speedups";
            columns = [ str "benchmark"; flt "latency_0"; flt "latency_1e5"; flt "latency_1e6" ];
            rows =
              (fun (t : Figure8.t) ->
                List.map
                  (fun (r : Figure8.row) ->
                    [ S r.benchmark; F r.latency0; F r.latency_100k; F r.latency_1m ])
                  t.rows);
          };
        ];
    }

let figure9 =
  Entry
    {
      name = "figure9";
      description = "Correlated behaviour changes (vortex)";
      paper_ref = "Figure 9";
      run = Figure9.run;
      render = Figure9.render;
      sheets =
        [
          {
            sheet = "spans";
            columns = [ str "benchmark"; int "branch"; int "start_bucket"; int "end_bucket" ];
            rows =
              (fun (t : Figure9.t) ->
                List.concat_map
                  (fun (branch, spans) ->
                    List.map
                      (fun (lo, hi) -> [ S t.benchmark; I branch; I lo; I hi ])
                      spans)
                  t.flippers);
          };
        ];
    }

let table1 =
  Entry
    {
      name = "table1";
      description = "Profile vs evaluation inputs";
      paper_ref = "Table 1";
      run = Table1.run;
      render = Table1.render;
      sheets =
        [
          {
            sheet = "rows";
            columns =
              [
                str "benchmark"; str "profile_input"; str "evaluation_input"; str "length";
                int "input_dep_branches"; flt "coverage_gap";
              ];
            rows =
              (fun (t : Table1.t) ->
                List.map
                  (fun (r : Table1.row) ->
                    [
                      S r.benchmark; S r.profile_input; S r.eval_input; S r.dyn_length;
                      I r.input_dep; F r.coverage_gap;
                    ])
                  t.rows);
          };
        ];
    }

let table2 =
  Entry
    {
      name = "table2";
      description = "Model parameters";
      paper_ref = "Table 2";
      run = Table2.run;
      render = Table2.render;
      sheets =
        [
          {
            sheet = "rows";
            columns = [ str "parameter"; str "paper"; str "this_run" ];
            rows =
              (fun (t : Table2.t) ->
                List.map
                  (fun (r : Table2.row) -> [ S r.parameter; S r.paper; S r.this_run ])
                  t.rows);
          };
        ];
    }

let table3 =
  Entry
    {
      name = "table3";
      description = "Model transition data";
      paper_ref = "Table 3";
      run = Table3.run;
      render = Table3.render;
      sheets =
        [
          {
            sheet = "rows";
            columns =
              [
                str "benchmark"; int "touched"; int "entered_biased"; int "evicted";
                int "total_evictions"; int "total_selections"; int "capped";
                flt "correct_rate"; flt "incorrect_rate"; flt "misspec_distance";
                int "paper_touch"; int "paper_bias"; int "paper_evict";
                int "paper_total_evicts"; flt "paper_spec_pct"; int "paper_misspec_dist";
              ];
            rows =
              (fun (t : Table3.t) ->
                List.map
                  (fun (r : Table3.row) ->
                    let m = r.measured and p = r.paper in
                    [
                      S r.benchmark; I m.touched; I m.entered_biased; I m.evicted;
                      I m.total_evictions; I m.total_selections; I m.capped;
                      F m.correct_rate; F m.incorrect_rate; F m.misspec_distance;
                      I p.p_touch; I p.p_bias; I p.p_evict; I p.p_total_evicts;
                      F p.p_spec_pct; I p.p_misspec_dist;
                    ])
                  t.rows);
          };
        ];
    }

let table4 =
  Entry
    {
      name = "table4";
      description = "Model sensitivity";
      paper_ref = "Table 4";
      run = Table4.run;
      render = Table4.render;
      sheets =
        [
          {
            sheet = "rows";
            columns =
              [
                str "configuration"; flt "correct"; flt "incorrect"; flt "paper_correct_pct";
                flt "paper_incorrect_pct";
              ];
            rows =
              (fun (t : Table4.t) ->
                List.map2
                  (fun (r : Table4.row) (_, (pc, pi)) ->
                    [ S r.label; F r.correct; F r.incorrect; F pc; F pi ])
                  t.rows Table4.paper_values);
          };
        ];
    }

let table5 =
  Entry
    {
      name = "table5";
      description = "MSSP machine parameters";
      paper_ref = "Table 5";
      run = Table5.run;
      render = Table5.render;
      sheets =
        [
          {
            sheet = "rows";
            columns = [ str "parameter"; str "leading_core"; str "trailing_cores" ];
            rows =
              (fun (t : Table5.t) ->
                List.map
                  (fun (r : Table5.row) -> [ S r.parameter; S r.leading; S r.trailing ])
                  t.rows);
          };
        ];
    }

let ablations =
  Entry
    {
      name = "ablations";
      description = "Design-choice ablation sweeps (hysteresis, periods, cap)";
      paper_ref = "DESIGN.md section 5";
      run = Ablations.run;
      render = Ablations.render;
      sheets =
        [
          {
            sheet = "rows";
            columns =
              [
                str "sweep"; str "configuration"; flt "correct"; flt "incorrect";
                int "selections"; int "evictions"; int "capped";
              ];
            rows =
              (fun (t : Ablations.t) ->
                List.concat_map
                  (fun (sw : Ablations.sweep) ->
                    List.map
                      (fun (r : Ablations.row) ->
                        [
                          S sw.title; S r.label; F r.correct; F r.incorrect; I r.selections;
                          I r.evictions; I r.capped;
                        ])
                      sw.rows)
                  t.sweeps);
          };
        ];
    }

let correlation =
  Entry
    {
      name = "correlation";
      description = "Section 4.3: branch violations per task squash";
      paper_ref = "Section 4.3";
      run = Correlation.run;
      render = Correlation.render;
      sheets =
        [
          {
            sheet = "rows";
            columns =
              [ str "benchmark"; int "task_squashes"; int "branch_violations"; flt "ratio" ];
            rows =
              (fun (t : Correlation.t) ->
                List.map
                  (fun (r : Correlation.row) ->
                    [ S r.benchmark; I r.task_squashes; I r.branch_violations; F r.ratio ])
                  t.rows);
          };
        ];
    }

let values =
  Entry
    {
      name = "values";
      description = "Extension: load-value speculation under the same controller";
      paper_ref = "Section 2 (extension)";
      run = (fun ctx -> Extension_values.run ctx);
      render = Extension_values.render;
      sheets =
        [
          {
            sheet = "rows";
            columns =
              [
                str "policy"; flt "correct"; flt "incorrect"; int "selections"; int "evictions";
              ];
            rows =
              (fun (t : Extension_values.t) ->
                List.map
                  (fun (r : Extension_values.row) ->
                    [ S r.label; F r.correct; F r.incorrect; I r.selections; I r.evictions ])
                  t.rows);
          };
        ];
    }

let breakeven =
  Entry
    {
      name = "breakeven";
      description = "Section 2.1: break-even penalty/benefit ratios";
      paper_ref = "Section 2.1";
      run = Breakeven.run;
      render = Breakeven.render;
      sheets =
        [
          {
            sheet = "rows";
            columns =
              [
                str "benchmark";
                flt "reactive_ratio";
                flt "open_loop_ratio";
                int "evict_headroom";
              ];
            rows =
              (fun (t : Breakeven.t) ->
                List.map
                  (fun (r : Breakeven.row) ->
                    [
                      S r.benchmark;
                      F r.reactive_ratio;
                      F r.open_loop_ratio;
                      (match r.headroom with Some e -> I (1 lsl e) | None -> Null);
                    ])
                  t.rows);
          };
        ];
    }

let claims =
  Entry
    {
      name = "claims";
      description = "Verdict every headline claim of the paper against this run";
      paper_ref = "whole paper";
      run = Claims.run;
      render = Claims.render;
      sheets =
        [
          verdict_sheet (fun (t : Claims.t) -> t.verdicts);
        ];
    }

let adversarial =
  Entry
    {
      name = "adversarial";
      description = "Worst-case populations pinned to the controller's own thresholds";
      paper_ref = "Section 3 (adversarial extension)";
      run = Adversarial.run;
      render = Adversarial.render;
      sheets =
        [
          {
            sheet = "rows";
            columns =
              [
                str "scenario"; int "events"; int "selections"; int "evictions"; int "capped";
                flt "correct_rate"; flt "incorrect_rate"; bool "differential_ok";
              ];
            rows =
              (fun (t : Adversarial.t) ->
                List.map
                  (fun (r : Adversarial.row) ->
                    [
                      S r.scenario; I r.events; I r.selections; I r.evictions; I r.capped;
                      F r.correct_rate; F r.incorrect_rate; B r.differential_ok;
                    ])
                  t.rows);
          };
          verdict_sheet (fun (t : Adversarial.t) -> t.verdicts);
        ];
    }

let mistrain =
  Entry
    {
      name = "mistrain";
      description = "Spectre-style mistraining schedules and quarantine times";
      paper_ref = "Section 3 (adversarial extension)";
      run = Mistrain_exp.run;
      render = Mistrain_exp.render;
      sheets =
        [
          {
            sheet = "rows";
            columns =
              [
                str "schedule"; flt "strength"; int "victims"; int "quarantined";
                flt "mean_quarantine_execs"; flt "mean_quarantine_instrs";
                int "predicted_evict_execs"; int "reactive_damage"; int "static_damage";
                bool "differential_ok";
              ];
            rows =
              (fun (t : Mistrain_exp.t) ->
                List.map
                  (fun (r : Mistrain_exp.row) ->
                    [
                      S r.schedule; F r.strength; I r.victims; I r.quarantined;
                      F r.mean_q_execs; F r.mean_q_instrs; I r.predicted_evict_execs;
                      I r.reactive_damage; I r.static_damage; B r.differential_ok;
                    ])
                  t.rows);
          };
          verdict_sheet (fun (t : Mistrain_exp.t) -> t.verdicts);
        ];
    }

let interleave =
  Entry
    {
      name = "interleave";
      description = "Multi-context stream merging: shared vs per-context state tables";
      paper_ref = "Section 3 (adversarial extension)";
      run = Interleave_exp.run;
      render = Interleave_exp.render;
      sheets =
        [
          {
            sheet = "rows";
            columns =
              [
                str "schedule"; str "table"; int "events"; int "selections"; int "evictions";
                int "capped"; flt "correct_rate"; flt "incorrect_rate"; bool "differential_ok";
              ];
            rows =
              (fun (t : Interleave_exp.t) ->
                List.map
                  (fun (r : Interleave_exp.row) ->
                    [
                      S r.schedule; S r.table; I r.events; I r.selections; I r.evictions;
                      I r.capped; F r.correct_rate; F r.incorrect_rate; B r.differential_ok;
                    ])
                  t.rows);
          };
          verdict_sheet (fun (t : Interleave_exp.t) -> t.verdicts);
        ];
    }

let all =
  [
    figure1; figure2; figure3; figure5; figure6; figure7; figure8; figure9; table1; table2;
    table3; table4; table5; ablations; correlation; values; breakeven; claims; adversarial;
    mistrain; interleave;
  ]

let find n = List.find_opt (fun e -> name e = n) all

(* ---------------------------------------------------------------------- *)
(* Selection                                                               *)
(* ---------------------------------------------------------------------- *)

let glob_matches ~pattern s =
  let np = String.length pattern and ns = String.length s in
  let rec go p i =
    if p = np then i = ns
    else
      match pattern.[p] with
      | '*' ->
        let rec try_at j = j <= ns && (go (p + 1) j || try_at (j + 1)) in
        try_at i
      | '?' -> i < ns && go (p + 1) (i + 1)
      | c -> i < ns && s.[i] = c && go (p + 1) (i + 1)
  in
  go 0 0

let select patterns =
  match patterns with
  | [] -> Ok all
  | _ -> (
    let unmatched =
      List.find_opt
        (fun p -> not (List.exists (fun e -> glob_matches ~pattern:p (name e)) all))
        patterns
    in
    match unmatched with
    | Some p -> Error (Printf.sprintf "no experiment matches %S (see `rspec list`)" p)
    | None ->
      Ok
        (List.filter
           (fun e -> List.exists (fun p -> glob_matches ~pattern:p (name e)) patterns)
           all))

(* ---------------------------------------------------------------------- *)
(* Running                                                                 *)
(* ---------------------------------------------------------------------- *)

type output = {
  entry : entry;
  text : string;
  tables : (string * column list * row list) list;
}

let m_ok = Metrics.counter "experiment.ok"
let m_failed = Metrics.counter "experiment.failed"

let execute ctx (Entry s as e) =
  match s.run ctx with
  | artifact ->
    let text = s.render artifact in
    let tables = List.map (fun sh -> (sh.sheet, sh.columns, sh.rows artifact)) s.sheets in
    Metrics.incr m_ok;
    Metrics.incr (Metrics.counter ("experiment.runs." ^ s.name));
    Trace.emit "experiment" [ Trace.S ("name", s.name); Trace.S ("status", "ok") ];
    { entry = e; text; tables }
  | exception exn ->
    Metrics.incr m_failed;
    Trace.emit "experiment"
      [
        Trace.S ("name", s.name); Trace.S ("status", "failed");
        Trace.S ("error", Printexc.to_string exn);
      ];
    raise exn

let execute_all ctx entries =
  let results =
    Rs_util.Pool.map_ordered (Context.pool ctx)
      (fun e -> try Ok (execute ctx e) with exn -> Error exn)
      (Array.of_list entries)
  in
  List.map2 (fun e r -> (e, r)) entries (Array.to_list results)

(* ---------------------------------------------------------------------- *)
(* Emitters                                                                *)
(* ---------------------------------------------------------------------- *)

let csv_of_value = function
  | S s -> s
  | I i -> string_of_int i
  | F x -> Rs_util.Csv.float_field x
  | B b -> if b then "true" else "false"
  | Null -> ""

let csv_files out =
  List.map
    (fun (sheet, columns, rows) ->
      let t = Rs_util.Csv.create ~header:(List.map (fun c -> c.col) columns) in
      List.iter (fun r -> Rs_util.Csv.add_row t (List.map csv_of_value r)) rows;
      (Printf.sprintf "%s_%s.csv" (name out.entry) sheet, Rs_util.Csv.render t))
    out.tables

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_of_value = function
  | S s -> "\"" ^ json_escape s ^ "\""
  | I i -> string_of_int i
  | F x -> if Float.is_finite x then Rs_util.Csv.float_field x else "null"
  | B b -> if b then "true" else "false"
  | Null -> "null"

let kind_name = function Str -> "string" | Int -> "int" | Float -> "float" | Bool -> "bool"

let json_of_output out =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "{\"name\":\"%s\",\"description\":\"%s\",\"paper_ref\":\"%s\",\"tables\":{"
       (json_escape (name out.entry))
       (json_escape (description out.entry))
       (json_escape (paper_ref out.entry)));
  List.iteri
    (fun ti (sheet, columns, rows) ->
      if ti > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "\"%s\":{\"columns\":[" (json_escape sheet));
      List.iteri
        (fun ci c ->
          if ci > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf "{\"name\":\"%s\",\"kind\":\"%s\"}" (json_escape c.col)
               (kind_name c.kind)))
        columns;
      Buffer.add_string buf "],\"rows\":[";
      List.iteri
        (fun ri r ->
          if ri > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '[';
          List.iteri
            (fun vi v ->
              if vi > 0 then Buffer.add_char buf ',';
              Buffer.add_string buf (json_of_value v))
            r;
          Buffer.add_char buf ']')
        rows;
      Buffer.add_string buf "]}")
    out.tables;
  Buffer.add_string buf "}}";
  Buffer.contents buf

let json_document (ctx : Context.t) outputs =
  let buf = Buffer.create 16384 in
  Buffer.add_string buf
    (Printf.sprintf "{\"context\":{\"seed\":%d,\"scale\":%s,\"tau\":%d},\n\"experiments\":[\n"
       ctx.seed
       (Rs_util.Csv.float_field ctx.scale)
       ctx.tau);
  List.iteri
    (fun i out ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf (json_of_output out))
    outputs;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf
