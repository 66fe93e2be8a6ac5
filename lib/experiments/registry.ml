module Metrics = Rs_obs.Metrics
module Trace = Rs_obs.Trace

type value = S of string | I of int | F of float | B of bool | Null

type kind = Str | Int | Float | Bool

type column = { col : string; kind : kind }

type row = value list

type 'r field = { column : column; get : 'r -> value }

type 'a sheet = Sheet : { sheet : string; rows : 'a -> 'r list; columns : 'r field list } -> 'a sheet

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
(* Typed columns: the only constructors of a field, so every value agrees *)
(* with its column's kind                                                  *)
(* ---------------------------------------------------------------------- *)

let str col f = { column = { col; kind = Str }; get = (fun r -> S (f r)) }
let int col f = { column = { col; kind = Int }; get = (fun r -> I (f r)) }
let flt col f = { column = { col; kind = Float }; get = (fun r -> F (f r)) }
let bool col f = { column = { col; kind = Bool }; get = (fun r -> B (f r)) }

(* An int column whose [None] is "not applicable": an empty CSV field, a
   JSON [null]. *)
let int_opt col f =
  { column = { col; kind = Int }; get = (fun r -> match f r with Some i -> I i | None -> Null) }

let sheet sheet rows columns = Sheet { sheet; rows; columns }

(* The one [verdicts] sheet: claims and the three adversarial entries. *)
let verdict_sheet verdicts =
  sheet "verdicts" verdicts
    [
      str "claim" (fun v -> v.Verdict.claim);
      str "measured" (fun v -> v.Verdict.measured);
      bool "pass" (fun v -> v.Verdict.pass);
    ]

(* ---------------------------------------------------------------------- *)
(* The entries, in [rspec all] (paper) order                               *)
(* ---------------------------------------------------------------------- *)

let figure1 =
  let check_count f (p : Figure1.program_stats) =
    match p.check with Ok r -> f r | Error _ -> 0
  in
  Entry
    {
      name = "figure1";
      description = "Code approximation example (before/after distillation)";
      paper_ref = "Figure 1";
      run = Figure1.run;
      render = Figure1.render;
      sheets =
        [
          sheet "summary"
            (fun t -> [ t ])
            [
              int "original_size" (fun t -> t.Figure1.original_size);
              int "distilled_size" (fun t -> t.Figure1.distilled_size);
              bool "verified" (fun t -> Result.is_ok t.Figure1.verified);
              str "detail" (fun t ->
                  match t.Figure1.verified with
                  | Ok n -> Printf.sprintf "%d assumption-consistent trials" n
                  | Error e -> e);
            ];
          sheet "program"
            (fun (t : Figure1.t) -> [ t.program ])
            [
              int "functions" (fun p -> p.Figure1.functions);
              int "original_size" (fun p -> p.Figure1.prog_original_size);
              int "distilled_size" (fun p -> p.Figure1.prog_distilled_size);
              int "inlined_calls" (fun p -> p.Figure1.inlined_calls);
              int "hot_blocks" (fun p -> p.Figure1.hot_blocks);
              int "cold_blocks" (fun p -> p.Figure1.cold_blocks);
              int "cold_entries" (fun p -> p.Figure1.cold_entries);
              int "check_trials" (check_count (fun r -> r.Rs_distill.Check.trials));
              int "check_consistent" (check_count (fun r -> r.Rs_distill.Check.consistent));
              int "check_violated" (check_count (fun r -> r.Rs_distill.Check.violated));
              int "check_detected" (check_count (fun r -> r.Rs_distill.Check.detected));
              bool "check_ok" Figure1.check_ok;
            ];
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
          sheet "curves"
            (fun (t : Figure2.t) ->
              List.concat_map
                (fun (r : Figure2.row) ->
                  List.mapi (fun i p -> (r.benchmark, i, p)) (Array.to_list r.curve))
                t.rows)
            [
              str "benchmark" (fun (b, _, _) -> b);
              int "point" (fun (_, i, _) -> i);
              flt "correct_rate" (fun (_, _, p) -> p.Figure2.correct);
              flt "incorrect_rate" (fun (_, _, p) -> p.Figure2.incorrect);
            ];
          (* A knee or offline point has no window. *)
          sheet "points"
            (fun (t : Figure2.t) ->
              List.concat_map
                (fun (r : Figure2.row) ->
                  (r.benchmark, "knee", None, r.knee)
                  :: (r.benchmark, "offline", None, r.offline)
                  :: List.map
                       (fun (w, p) -> (r.benchmark, "window", Some w, p))
                       (Array.to_list r.window_points))
                t.rows)
            [
              str "benchmark" (fun (b, _, _, _) -> b);
              str "kind" (fun (_, k, _, _) -> k);
              int_opt "window" (fun (_, _, w, _) -> w);
              flt "correct_rate" (fun (_, _, _, p) -> p.Figure2.correct);
              flt "incorrect_rate" (fun (_, _, _, p) -> p.Figure2.incorrect);
            ];
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
          sheet "tracks"
            (fun (t : Figure3.t) ->
              List.concat_map
                (fun (tr : Figure3.track) ->
                  List.map (fun (blk, bias) -> (t.benchmark, tr.branch, blk, bias)) tr.series)
                t.tracks)
            [
              str "benchmark" (fun (b, _, _, _) -> b);
              int "branch" (fun (_, br, _, _) -> br);
              int "block" (fun (_, _, blk, _) -> blk);
              flt "bias" (fun (_, _, _, bias) -> bias);
            ];
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
          sheet "points"
            (fun (t : Figure5.t) ->
              List.concat_map
                (fun (r : Figure5.bench_row) ->
                  let st = r.self_training in
                  (r.benchmark, "self-training", st.correct, st.incorrect)
                  :: List.map
                       (fun (key, (c : Figure5.cell)) -> (r.benchmark, key, c.correct, c.incorrect))
                       r.by_variant)
                t.rows)
            [
              str "benchmark" (fun (b, _, _, _) -> b);
              str "configuration" (fun (_, c, _, _) -> c);
              flt "correct_rate" (fun (_, _, c, _) -> c);
              flt "incorrect_rate" (fun (_, _, _, i) -> i);
            ];
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
          sheet "histogram"
            (fun (t : Figure6.t) -> t.histogram)
            [
              flt "bin_low" (fun ((lo, _), _) -> lo);
              flt "bin_high" (fun ((_, hi), _) -> hi);
              int "evictions" (fun (_, count) -> count);
            ];
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
          sheet "speedups"
            (fun (t : Figure7.t) -> t.rows)
            [
              str "benchmark" (fun r -> r.Figure7.benchmark);
              flt "closed_1k" (fun r -> r.Figure7.closed_1k);
              flt "open_1k" (fun r -> r.Figure7.open_1k);
              flt "closed_10k" (fun r -> r.Figure7.closed_10k);
              flt "open_10k" (fun r -> r.Figure7.open_10k);
            ];
          sheet "squashes"
            (fun (t : Figure7.t) -> t.rows)
            [
              str "benchmark" (fun r -> r.Figure7.benchmark);
              int "squashes_closed" (fun r -> r.Figure7.squashes_closed);
              int "squashes_open" (fun r -> r.Figure7.squashes_open);
            ];
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
          sheet "speedups"
            (fun (t : Figure8.t) -> t.rows)
            [
              str "benchmark" (fun r -> r.Figure8.benchmark);
              flt "latency_0" (fun r -> r.Figure8.latency0);
              flt "latency_1e5" (fun r -> r.Figure8.latency_100k);
              flt "latency_1e6" (fun r -> r.Figure8.latency_1m);
            ];
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
          sheet "spans"
            (fun (t : Figure9.t) ->
              List.concat_map
                (fun (branch, spans) ->
                  List.map (fun (lo, hi) -> (t.benchmark, branch, lo, hi)) spans)
                t.flippers)
            [
              str "benchmark" (fun (b, _, _, _) -> b);
              int "branch" (fun (_, br, _, _) -> br);
              int "start_bucket" (fun (_, _, lo, _) -> lo);
              int "end_bucket" (fun (_, _, _, hi) -> hi);
            ];
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
          sheet "rows"
            (fun (t : Table1.t) -> t.rows)
            [
              str "benchmark" (fun r -> r.Table1.benchmark);
              str "profile_input" (fun r -> r.Table1.profile_input);
              str "evaluation_input" (fun r -> r.Table1.eval_input);
              str "length" (fun r -> r.Table1.dyn_length);
              int "input_dep_branches" (fun r -> r.Table1.input_dep);
              flt "coverage_gap" (fun r -> r.Table1.coverage_gap);
            ];
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
          sheet "rows"
            (fun (t : Table2.t) -> t.rows)
            [
              str "parameter" (fun r -> r.Table2.parameter);
              str "paper" (fun r -> r.Table2.paper);
              str "this_run" (fun r -> r.Table2.this_run);
            ];
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
          sheet "rows"
            (fun (t : Table3.t) -> t.rows)
            [
              str "benchmark" (fun r -> r.Table3.benchmark);
              int "touched" (fun r -> r.Table3.measured.touched);
              int "entered_biased" (fun r -> r.Table3.measured.entered_biased);
              int "evicted" (fun r -> r.Table3.measured.evicted);
              int "total_evictions" (fun r -> r.Table3.measured.total_evictions);
              int "total_selections" (fun r -> r.Table3.measured.total_selections);
              int "capped" (fun r -> r.Table3.measured.capped);
              flt "correct_rate" (fun r -> r.Table3.measured.correct_rate);
              flt "incorrect_rate" (fun r -> r.Table3.measured.incorrect_rate);
              flt "misspec_distance" (fun r -> r.Table3.measured.misspec_distance);
              int "paper_touch" (fun r -> r.Table3.paper.p_touch);
              int "paper_bias" (fun r -> r.Table3.paper.p_bias);
              int "paper_evict" (fun r -> r.Table3.paper.p_evict);
              int "paper_total_evicts" (fun r -> r.Table3.paper.p_total_evicts);
              flt "paper_spec_pct" (fun r -> r.Table3.paper.p_spec_pct);
              int "paper_misspec_dist" (fun r -> r.Table3.paper.p_misspec_dist);
            ];
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
          sheet "rows"
            (fun (t : Table4.t) ->
              List.map2 (fun r (_, paper) -> (r, paper)) t.rows Table4.paper_values)
            [
              str "configuration" (fun (r, _) -> r.Table4.label);
              flt "correct" (fun (r, _) -> r.Table4.correct);
              flt "incorrect" (fun (r, _) -> r.Table4.incorrect);
              flt "paper_correct_pct" (fun (_, (pc, _)) -> pc);
              flt "paper_incorrect_pct" (fun (_, (_, pi)) -> pi);
            ];
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
          sheet "rows"
            (fun (t : Table5.t) -> t.rows)
            [
              str "parameter" (fun r -> r.Table5.parameter);
              str "leading_core" (fun r -> r.Table5.leading);
              str "trailing_cores" (fun r -> r.Table5.trailing);
            ];
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
          sheet "rows"
            (fun (t : Ablations.t) ->
              List.concat_map
                (fun (sw : Ablations.sweep) -> List.map (fun r -> (sw.title, r)) sw.rows)
                t.sweeps)
            [
              str "sweep" (fun (title, _) -> title);
              str "configuration" (fun (_, r) -> r.Ablations.label);
              flt "correct" (fun (_, r) -> r.Ablations.correct);
              flt "incorrect" (fun (_, r) -> r.Ablations.incorrect);
              int "selections" (fun (_, r) -> r.Ablations.selections);
              int "evictions" (fun (_, r) -> r.Ablations.evictions);
              int "capped" (fun (_, r) -> r.Ablations.capped);
            ];
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
          sheet "rows"
            (fun (t : Correlation.t) -> t.rows)
            [
              str "benchmark" (fun r -> r.Correlation.benchmark);
              int "task_squashes" (fun r -> r.Correlation.task_squashes);
              int "branch_violations" (fun r -> r.Correlation.branch_violations);
              flt "ratio" (fun r -> r.Correlation.ratio);
            ];
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
          sheet "rows"
            (fun (t : Extension_values.t) -> t.rows)
            [
              str "policy" (fun r -> r.Extension_values.label);
              flt "correct" (fun r -> r.Extension_values.correct);
              flt "incorrect" (fun r -> r.Extension_values.incorrect);
              int "selections" (fun r -> r.Extension_values.selections);
              int "evictions" (fun r -> r.Extension_values.evictions);
            ];
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
          sheet "rows"
            (fun (t : Breakeven.t) -> t.rows)
            [
              str "benchmark" (fun r -> r.Breakeven.benchmark);
              flt "reactive_ratio" (fun r -> r.Breakeven.reactive_ratio);
              flt "open_loop_ratio" (fun r -> r.Breakeven.open_loop_ratio);
              int_opt "evict_headroom" (fun r -> Option.map (fun e -> 1 lsl e) r.Breakeven.headroom);
            ];
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
      sheets = [ verdict_sheet (fun (t : Claims.t) -> t.verdicts) ];
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
          sheet "rows"
            (fun (t : Adversarial.t) -> t.rows)
            [
              str "scenario" (fun r -> r.Adversarial.scenario);
              int "events" (fun r -> r.Adversarial.events);
              int "selections" (fun r -> r.Adversarial.selections);
              int "evictions" (fun r -> r.Adversarial.evictions);
              int "capped" (fun r -> r.Adversarial.capped);
              flt "correct_rate" (fun r -> r.Adversarial.correct_rate);
              flt "incorrect_rate" (fun r -> r.Adversarial.incorrect_rate);
              bool "differential_ok" (fun r -> r.Adversarial.differential_ok);
            ];
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
          sheet "rows"
            (fun (t : Mistrain_exp.t) -> t.rows)
            [
              str "schedule" (fun r -> r.Mistrain_exp.schedule);
              flt "strength" (fun r -> r.Mistrain_exp.strength);
              int "victims" (fun r -> r.Mistrain_exp.victims);
              int "quarantined" (fun r -> r.Mistrain_exp.quarantined);
              flt "mean_quarantine_execs" (fun r -> r.Mistrain_exp.mean_q_execs);
              flt "mean_quarantine_instrs" (fun r -> r.Mistrain_exp.mean_q_instrs);
              int "predicted_evict_execs" (fun r -> r.Mistrain_exp.predicted_evict_execs);
              int "reactive_damage" (fun r -> r.Mistrain_exp.reactive_damage);
              int "static_damage" (fun r -> r.Mistrain_exp.static_damage);
              bool "differential_ok" (fun r -> r.Mistrain_exp.differential_ok);
            ];
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
          sheet "rows"
            (fun (t : Interleave_exp.t) -> t.rows)
            [
              str "schedule" (fun r -> r.Interleave_exp.schedule);
              str "table" (fun r -> r.Interleave_exp.table);
              int "events" (fun r -> r.Interleave_exp.events);
              int "selections" (fun r -> r.Interleave_exp.selections);
              int "evictions" (fun r -> r.Interleave_exp.evictions);
              int "capped" (fun r -> r.Interleave_exp.capped);
              flt "correct_rate" (fun r -> r.Interleave_exp.correct_rate);
              flt "incorrect_rate" (fun r -> r.Interleave_exp.incorrect_rate);
              bool "differential_ok" (fun r -> r.Interleave_exp.differential_ok);
            ];
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

(* A sheet's rows, each read through every column's extractor. *)
let materialise artifact (Sheet sh) =
  ( sh.sheet,
    List.map (fun f -> f.column) sh.columns,
    List.map (fun r -> List.map (fun f -> f.get r) sh.columns) (sh.rows artifact) )

let m_ok = Metrics.counter "experiment.ok"
let m_failed = Metrics.counter "experiment.failed"

let execute ctx (Entry s as e) =
  match s.run ctx with
  | artifact ->
    let text = s.render artifact in
    let tables = List.map (materialise artifact) s.sheets in
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

let add_json_value buf = function
  | S s -> Trace.add_json_string buf s
  | I i -> Buffer.add_string buf (string_of_int i)
  | F x -> Buffer.add_string buf (if Float.is_finite x then Rs_util.Csv.float_field x else "null")
  | B b -> Buffer.add_string buf (if b then "true" else "false")
  | Null -> Buffer.add_string buf "null"

let kind_name = function Str -> "string" | Int -> "int" | Float -> "float" | Bool -> "bool"

let json_of_output out =
  let buf = Buffer.create 4096 in
  let add = Buffer.add_string buf and quote = Trace.add_json_string buf in
  let sep i = if i > 0 then Buffer.add_char buf ',' in
  add "{\"name\":";
  quote (name out.entry);
  add ",\"description\":";
  quote (description out.entry);
  add ",\"paper_ref\":";
  quote (paper_ref out.entry);
  add ",\"tables\":{";
  List.iteri
    (fun ti (sheet, columns, rows) ->
      sep ti;
      quote sheet;
      add ":{\"columns\":[";
      List.iteri
        (fun ci c ->
          sep ci;
          add "{\"name\":";
          quote c.col;
          add (Printf.sprintf ",\"kind\":\"%s\"}" (kind_name c.kind)))
        columns;
      add "],\"rows\":[";
      List.iteri
        (fun ri r ->
          sep ri;
          Buffer.add_char buf '[';
          List.iteri (fun vi v -> sep vi; add_json_value buf v) r;
          Buffer.add_char buf ']')
        rows;
      add "]}")
    out.tables;
  add "}}";
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
