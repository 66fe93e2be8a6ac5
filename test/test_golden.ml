(* Golden-snapshot regression tests.

   Every registry entry runs at a small fixed (seed=7, scale=0.02,
   tau=10) and both its full rendered output (<name>.txt) and its JSON
   export (<name>.json, the object `--format json` prints for it; CSV
   carries the same sheets) are diffed byte-for-byte against the
   checked-in snapshots in test/golden/.  Any change to the controller,
   the workloads, the simulator or the table renderer that shifts a
   single digit fails here with a unified diff.

   Regenerating after an intentional change:

     RS_UPDATE_GOLDEN=1 dune runtest --force

   rewrites the snapshot files in the source tree (test/golden/), after
   which the diff in `git diff` is the reviewable change.  The tests
   pass vacuously in update mode. *)

module E = Rs_experiments

let ctx () = E.Context.create ~seed:7 ~scale:0.02 ~tau:10 ~jobs:1 ()

(* `dune runtest` executes the binary in _build/default/test (snapshots
   dep-copied to golden/); `dune exec test/main.exe` runs from the
   project root (test/golden); the source copies sit three levels above
   the _build test dir.  Probe all three so both invocations work, and
   in update mode rewrite every reachable copy — the _build one keeps
   this run green, the source one is the actual regeneration. *)
let candidate_dirs =
  [ "golden"; Filename.concat "test" "golden"; "../../../test/golden" ]

let existing_dirs () =
  List.filter (fun d -> Sys.file_exists d && Sys.is_directory d) candidate_dirs

let update_mode = Sys.getenv_opt "RS_UPDATE_GOLDEN" = Some "1"

let snapshot_path name =
  match existing_dirs () with
  | dir :: _ -> Filename.concat dir name
  | [] -> Alcotest.failf "no golden snapshot directory found (cwd %s)" (Sys.getcwd ())

let write_snapshot name content =
  match existing_dirs () with
  | [] -> Alcotest.failf "no golden snapshot directory found (cwd %s)" (Sys.getcwd ())
  | dirs ->
    List.iter
      (fun dir ->
        let path = Filename.concat dir name in
        let oc = open_out path in
        output_string oc content;
        close_out oc;
        Printf.printf "updated %s\n%!" path)
      dirs

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let show_diff expected actual =
  let el = String.split_on_char '\n' expected and al = String.split_on_char '\n' actual in
  let buf = Buffer.create 256 in
  let rec go i el al =
    match (el, al) with
    | [], [] -> ()
    | e :: er, a :: ar ->
      if e <> a then Buffer.add_string buf (Printf.sprintf "line %d:\n  -%s\n  +%s\n" i e a);
      go (i + 1) er ar
    | e :: er, [] ->
      Buffer.add_string buf (Printf.sprintf "line %d missing:\n  -%s\n" i e);
      go (i + 1) er []
    | [], a :: ar ->
      Buffer.add_string buf (Printf.sprintf "line %d extra:\n  +%s\n" i a);
      go (i + 1) [] ar
  in
  go 1 el al;
  Buffer.contents buf

let check_golden name content =
  if update_mode then write_snapshot name content
  else begin
    let path = snapshot_path name in
    if not (Sys.file_exists path) then
      Alcotest.failf "missing snapshot %s (regenerate with RS_UPDATE_GOLDEN=1)" path;
    let expected = read_file path in
    if expected <> content then
      Alcotest.failf "%s drifted from its snapshot:\n%s(regenerate with RS_UPDATE_GOLDEN=1)"
        name (show_diff expected content)
  end

(* One test per registry entry; the context is shared so the
   process-global artifact cache works across entries exactly as it does
   under `rspec all`. *)
let shared_ctx = lazy (ctx ())

(* Also the execution checks: the entry renders non-empty text and
   bumps its [experiment.runs.<name>] counter once. *)
let test_entry entry () =
  let name = E.Registry.name entry in
  let runs = Rs_obs.Metrics.counter ("experiment.runs." ^ name) in
  let before = Rs_obs.Metrics.counter_value runs in
  let out = E.Registry.execute (Lazy.force shared_ctx) entry in
  Alcotest.(check bool) (name ^ " renders non-empty") true (String.length out.text > 0);
  Alcotest.(check int)
    ("experiment.runs." ^ name ^ " bumped") (before + 1)
    (Rs_obs.Metrics.counter_value runs);
  check_golden (name ^ ".txt") out.text;
  check_golden (name ^ ".json") (E.Registry.json_of_output out ^ "\n")

(* The IR pretty-printers are part of every experiment's rendered output,
   so their exact spelling is pinned too: a hand-written two-function
   program covering every instruction form and every terminator, printed
   through Program.pp (which goes through Func.pp and Instr.pp). *)
let pp_fixture =
  let open Rs_ir in
  let main =
    {
      Func.name = "main";
      entry = 0;
      nregs = 6;
      blocks =
        [|
          {
            Func.body =
              [|
                Instr.Li (0, 7);
                Instr.Mov (1, 0);
                Instr.Binop (Add, 2, 0, 1);
                Instr.Binop (Mul, 2, 2, 2);
                Instr.Binop (Xor, 3, 2, 0);
                Instr.Binop (Shl, 3, 3, 1);
                Instr.Addi (4, 3, -5);
                Instr.Cmp (Lt, 5, 4, 2);
                Instr.Cmpi (Ge, 5, 4, 100);
                Instr.Load (1, 0, 4);
                Instr.Store (0, 1, 8);
              |];
            term = Func.Branch { cond = 5; site = 3; taken = 1; not_taken = 2 };
          };
          {
            Func.body = [||];
            term = Func.Call { callee = 1; args = [ 2; 4 ]; ret = Some 0; next = 3 };
          };
          { Func.body = [||]; term = Func.TailCall { callee = 1; args = [ 4; 2 ] } };
          { Func.body = [||]; term = Func.Jump 4 };
          { Func.body = [||]; term = Func.Ret (Some 0) };
        |];
    }
  in
  let max2 =
    {
      Func.name = "max2";
      entry = 0;
      nregs = 3;
      blocks =
        [|
          {
            Func.body = [| Instr.Cmp (Gt, 2, 0, 1) |];
            term = Func.Branch { cond = 2; site = 9; taken = 1; not_taken = 2 };
          };
          { Func.body = [||]; term = Func.Ret (Some 0) };
          { Func.body = [||]; term = Func.Ret (Some 1) };
        |];
    }
  in
  { Program.name = "pp_fixture"; funcs = [| main; max2 |]; entry = 0 }

let test_ir_pp () =
  check_golden "ir_pp.txt" (Format.asprintf "%a" Rs_ir.Program.pp pp_fixture)

(* The MSSP timing model's every counter, pinned below the rendered
   figures (which round speedups to two places): each Section 4 workload
   at 20,000 tasks and seed 7 under figure7's four controller
   configurations and figure8's two nonzero optimization latencies,
   floats in hex so a change in the last bit shows. *)
let mssp_params =
  let p ~monitor ~closed = E.Figure7.mssp_params ~monitor ~closed in
  let closed_1k = p ~monitor:1_000 ~closed:true in
  [
    ("closed-1k", closed_1k);
    ("open-1k", p ~monitor:1_000 ~closed:false);
    ("closed-10k", p ~monitor:10_000 ~closed:true);
    ("open-10k", p ~monitor:10_000 ~closed:false);
    ("latency-100k", { closed_1k with optimization_latency = 100_000 });
    ("latency-1m", { closed_1k with optimization_latency = 1_000_000 });
  ]

let test_mssp_stats () =
  let buf = Buffer.create 8192 in
  List.iter
    (fun (spec : Rs_mssp.Workload.t) ->
      let spec = { spec with tasks = 20_000 } in
      List.iter
        (fun (label, params) ->
          let s =
            Rs_mssp.Machine.run (Rs_mssp.Workload.instantiate spec ~seed:7) ~seed:7 ~params
          in
          Printf.bprintf buf
            "%s %s mssp_cycles=%h baseline_cycles=%h tasks=%d squashes=%d \
             violated_branches=%d orig_instrs=%d master_instrs=%d \
             baseline_mispredict_rate=%h evictions=%d selections=%d\n"
            spec.name label s.mssp_cycles s.baseline_cycles s.tasks s.squashes
            s.violated_branches s.orig_instrs s.master_instrs s.baseline_mispredict_rate
            s.evictions s.selections)
        mssp_params)
    Rs_mssp.Workload.all;
  check_golden "mssp_stats.txt" (Buffer.contents buf)

(* The stream generator's packed output, pinned below every consumer:
   an MD5 of each stream's packed words (8 bytes little-endian each, in
   chunk order).  One population holds every behaviour variant and its
   edge cases (probabilities 0, 1, out of [0, 1] and NaN; empty,
   zero-length, negative-length and one-phase schedules; a non-positive
   period; global phases out of order) at an integral and a fractional
   instruction rate; the others are the 12 benchmarks' Ref streams. *)
let edge_population =
  let open Rs_behavior.Behavior in
  let ph l p = { length = l; p_taken = p } and gp u p = { until_instr = u; gp_taken = p } in
  let behaviors =
    [|
      Stationary 0.0; Stationary 1.0; Stationary (-0.5); Stationary 1.5; Stationary Float.nan;
      Stationary 0.3; Stationary 0.999; Stationary Float.infinity;
      Flip_at { threshold = 40; first = true }; Flip_at { threshold = 0; first = false };
      Flip_at { threshold = -5; first = true }; Phases [||]; Phases [| ph 1 0.25 |];
      Phases [| ph 0 0.9; ph 30 0.2; ph 1 0.7; ph 0 0.1; ph 50 Float.nan; ph 1 0.6 |];
      Phases [| ph 20 1.0; ph (-7) 0.0; ph 15 0.5; ph 3 2.0 |];
      Periodic { region = 0; p_first = 0.8; p_second = 0.1 };
      Periodic { region = -3; p_first = 0.2; p_second = 0.9 };
      Periodic { region = 1; p_first = 1.0; p_second = 0.0 };
      Periodic { region = 25; p_first = 0.95; p_second = Float.nan }; Global_phases [||];
      Global_phases [| gp 500 0.4 |];
      Global_phases [| gp 2_000 0.9; gp 1_000 0.1; gp 5_000 (-1.0); gp 0 0.6; gp 9_000 0.05 |];
    |]
  in
  Rs_behavior.Population.create
    (Array.mapi
       (fun id behavior ->
         { Rs_behavior.Population.id; behavior; weight = 0.5 +. float_of_int (id mod 5) })
       behaviors)

let stream_digest pop cfg =
  let buf = Buffer.create (8 * Rs_behavior.Trace_store.chunk_size) in
  let chunks = Buffer.create 256 in
  Rs_behavior.Trace_store.iter_chunks pop cfg (fun chunk len ->
      Buffer.clear buf;
      for i = 0 to len - 1 do
        Buffer.add_int64_le buf (Int64.of_int chunk.(i))
      done;
      Buffer.add_string chunks (Digest.string (Buffer.contents buf)));
  Digest.to_hex (Digest.string (Buffer.contents chunks))

let test_stream_words () =
  let buf = Buffer.create 2048 in
  let line name pop (cfg : Rs_behavior.Stream.config) =
    Printf.bprintf buf "%s seed=%d ipb=%h length=%d md5=%s\n" name cfg.seed cfg.instr_per_branch
      cfg.length (stream_digest pop cfg)
  in
  List.iter
    (fun instr_per_branch ->
      line "edge-cases" edge_population { seed = 7; instr_per_branch; length = 70_000 })
    [ 3.0; 5.37 ];
  List.iter
    (fun (bm : Rs_workload.Benchmark.t) ->
      let pop, cfg = Rs_workload.Benchmark.build bm ~input:Ref ~seed:7 ~scale:0.02 ~tau:10 in
      line bm.name pop cfg)
    Rs_workload.Benchmark.all;
  check_golden "stream_words.txt" (Buffer.contents buf)

let suite =
  List.map
    (fun e -> Alcotest.test_case (E.Registry.name e ^ " golden") `Slow (test_entry e))
    E.Registry.all
  @ [
      Alcotest.test_case "ir pretty-printer golden" `Quick test_ir_pp;
      Alcotest.test_case "mssp stats golden" `Quick test_mssp_stats;
      Alcotest.test_case "stream words golden" `Quick test_stream_words;
    ]
