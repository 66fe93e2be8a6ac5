module S = Rs_core.Static
module P = Rs_core.Params
module V = Rs_core.Variants

let test_bias () =
  Alcotest.(check (float 1e-9)) "empty" 0.5 (S.bias { execs = 0; taken = 0 });
  Alcotest.(check (float 1e-9)) "all taken" 1.0 (S.bias { execs = 10; taken = 10 });
  Alcotest.(check (float 1e-9)) "all not-taken" 1.0 (S.bias { execs = 10; taken = 0 });
  Alcotest.(check (float 1e-9)) "80/20" 0.8 (S.bias { execs = 10; taken = 2 })

let test_majority () =
  (* at threshold 0 every executed branch is selected in its majority
     direction *)
  let direction counts = (S.select ~threshold:0.0 counts).direction in
  Alcotest.(check bool) "taken majority" true (direction { execs = 10; taken = 6 });
  Alcotest.(check bool) "not-taken majority" false (direction { execs = 10; taken = 4 });
  Alcotest.(check bool) "tie goes taken" true (direction { execs = 10; taken = 5 })

let test_select () =
  let d = S.select ~threshold:0.99 { execs = 1000; taken = 995 } in
  Alcotest.(check bool) "995/1000 passes 99%" true d.speculate;
  Alcotest.(check bool) "direction" true d.direction;
  let d = S.select ~threshold:0.99 { execs = 1000; taken = 985 } in
  Alcotest.(check bool) "985/1000 fails 99%" false d.speculate;
  let d = S.select ~threshold:0.99 { execs = 0; taken = 0 } in
  Alcotest.(check bool) "untouched never selected" false d.speculate;
  let d = S.select ~threshold:0.99 { execs = 1000; taken = 5 } in
  Alcotest.(check bool) "not-taken biased selected" true d.speculate;
  Alcotest.(check bool) "not-taken direction" false d.direction

let test_score () =
  let spec_taken = { Rs_core.Types.speculate = true; direction = true } in
  Alcotest.(check (pair int int)) "scores split" (900, 100)
    (S.score spec_taken { execs = 1000; taken = 900 });
  let spec_nt = { Rs_core.Types.speculate = true; direction = false } in
  Alcotest.(check (pair int int)) "not-taken scores" (100, 900)
    (S.score spec_nt { execs = 1000; taken = 900 });
  Alcotest.(check (pair int int)) "no speculation scores zero" (0, 0)
    (S.score Rs_core.Types.no_speculation { execs = 1000; taken = 900 })

let test_windows () =
  Alcotest.(check (array int)) "paper windows"
    [| 1_000; 10_000; 100_000; 300_000; 1_000_000 |]
    S.windows;
  Alcotest.(check (array int)) "compressed by 10"
    [| 100; 1_000; 10_000; 30_000; 100_000 |]
    (S.windows_for ~tau:10);
  Alcotest.(check (array int)) "clamped below" [| 100; 100; 100; 300; 1_000 |]
    (S.windows_for ~tau:1_000)

let test_params_default_is_table2 () =
  let p = P.default in
  Alcotest.(check int) "monitor" 10_000 p.monitor_period;
  Alcotest.(check (float 0.0)) "selection" 0.995 p.selection_threshold;
  Alcotest.(check int) "evict threshold" 10_000 p.evict_threshold;
  Alcotest.(check int) "misspec step" 50 p.misspec_step;
  Alcotest.(check int) "wait" 1_000_000 p.wait_period;
  Alcotest.(check int) "oscillation" 5 p.oscillation_limit;
  Alcotest.(check int) "latency" 1_000_000 p.optimization_latency;
  Alcotest.(check bool) "valid" true (Result.is_ok (P.validate p))

let test_params_compress () =
  let c = P.compress ~factor:10 P.default in
  Alcotest.(check int) "wait compressed" 100_000 c.wait_period;
  Alcotest.(check int) "latency compressed" 100_000 c.optimization_latency;
  Alcotest.(check int) "monitor untouched" 10_000 c.monitor_period;
  Alcotest.(check int) "evict threshold untouched" 10_000 c.evict_threshold

let test_params_validate () =
  let bad p = Result.is_error (P.validate p) in
  Alcotest.(check bool) "monitor" true (bad { P.default with monitor_period = 0 });
  Alcotest.(check bool) "selection low" true
    (bad { P.default with selection_threshold = 0.4 });
  Alcotest.(check bool) "selection high" true
    (bad { P.default with selection_threshold = 1.1 });
  Alcotest.(check bool) "steps" true (bad { P.default with misspec_step = 0 });
  Alcotest.(check bool) "wait" true (bad { P.default with wait_period = 0 });
  Alcotest.(check bool) "latency negative" true
    (bad { P.default with optimization_latency = -1 });
  Alcotest.(check bool) "sampled window" true
    (bad { P.default with eviction_mode = Sampled { window = 10; samples = 20 } })

let test_monitor_samples () =
  Alcotest.(check int) "stride 1" 10_000 (P.monitor_samples P.default);
  Alcotest.(check int) "stride 8" 1_250
    (P.monitor_samples { P.default with monitor_stride = 8 })

let test_variants () =
  Alcotest.(check int) "seven variants" 7 (List.length V.all);
  Alcotest.(check bool) "no-eviction disables arc" false V.no_eviction.params.enable_eviction;
  Alcotest.(check bool) "no-revisit disables arc" false V.no_revisit.params.enable_revisit;
  Alcotest.(check int) "low threshold" 1_000 V.lower_eviction_threshold.params.evict_threshold;
  Alcotest.(check int) "fast revisit" 100_000 V.frequent_revisit.params.wait_period;
  Alcotest.(check int) "monitor sampling stride" 8 V.monitor_sampling.params.monitor_stride;
  (match V.eviction_by_sampling.params.eviction_mode with
  | Sampled { window; samples } ->
    Alcotest.(check int) "sample window" 10_000 window;
    Alcotest.(check int) "samples" 1_000 samples
  | Continuous -> Alcotest.fail "expected sampled eviction");
  Alcotest.(check string) "find" "baseline" (V.find "baseline").key;
  List.iter
    (fun (v : V.t) ->
      Alcotest.(check bool) (v.key ^ " valid") true (Result.is_ok (P.validate v.params)))
    V.all

let suite =
  [
    Alcotest.test_case "bias" `Quick test_bias;
    Alcotest.test_case "majority" `Quick test_majority;
    Alcotest.test_case "select" `Quick test_select;
    Alcotest.test_case "score" `Quick test_score;
    Alcotest.test_case "windows" `Quick test_windows;
    Alcotest.test_case "Table 2 defaults" `Quick test_params_default_is_table2;
    Alcotest.test_case "params compress" `Quick test_params_compress;
    Alcotest.test_case "params validate" `Quick test_params_validate;
    Alcotest.test_case "monitor samples" `Quick test_monitor_samples;
    Alcotest.test_case "variants" `Quick test_variants;
  ]
