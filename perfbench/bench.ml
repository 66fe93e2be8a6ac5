(* Measurement program of the repository benchmark; perfbench/run.py
   builds it, runs it and turns its report into the benchmark's result.

   One process runs one workload:

     bench.exe setup|suite|functional|serve --seed N [--seconds S]
       [--trace --spans FILE] [options: see bench.exe --help]

   It prints "ready" as soon as its context and pool exist (the end of
   set-up), then one JSON object on its last line: the workload's
   measurements, the MD5 digest of every experiment's rendered text (run.py
   compares them with the committed references), the simulated counters
   the self-test compares between runs, and the operations attempted and
   failed.

   With --trace, every call into a layer is wrapped in a span kept in
   memory (name, start, end, parent, and the run's id) and the spans are
   written as JSONL to the --spans file when the run ends.  Spans sit
   around calls into the libraries' public functions only; nothing inside
   the program is instrumented. *)

module E = Rs_experiments
module R = E.Registry
module Metrics = Rs_obs.Metrics
module Ts = Rs_behavior.Trace_store
module Pool = Rs_util.Pool
module Benchmark = Rs_workload.Benchmark
module W = Rs_mssp.Workload
module Machine = Rs_mssp.Machine

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
let t_start = now ()

(* --- spans ------------------------------------------------------------ *)

type span = { id : int; name : string; parent : int; start : float; stop : float }

let tracing = ref false
let spans : span list ref = ref []
let stack = ref [ 0 ]
let next_id = ref 0

let span name f =
  if not !tracing then f ()
  else begin
    incr next_id;
    let id = !next_id and parent = List.hd !stack in
    stack := id :: !stack;
    let start = now () in
    Fun.protect
      ~finally:(fun () ->
        stack := List.tl !stack;
        spans := { id; name; parent; start; stop = now () } :: !spans)
      f
  end

let span_seconds name =
  List.fold_left (fun acc s -> if s.name = name then acc +. (s.stop -. s.start) else acc) 0.0 !spans

let write_spans path run_id =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"run\":%S,\"id\":%d,\"parent\":%d,\"name\":%S,\"start\":%.9f,\"end\":%.9f}\n" run_id
        s.id s.parent s.name (s.start -. t_start) (s.stop -. t_start))
    (List.rev !spans);
  close_out oc

(* --- report ----------------------------------------------------------- *)

let metrics : (string * float) list ref = ref []
let metric name v = metrics := (name, v) :: !metrics
let digests : (string * string option) list ref = ref []
let sim : (string * string) list ref = ref []
let sim_value name v = sim := (name, v) :: !sim
let attempted = ref 0
let failed = ref 0
let notes : string list ref = ref []

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failed;
      notes := msg :: !notes)
    fmt

let json_string s = Printf.sprintf "%S" s

let json_object fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> json_string k ^ ":" ^ v) fields) ^ "}"

let json_float v =
  if not (Float.is_finite v) then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_report () =
  let fields =
    [
      ("attempted", string_of_int !attempted);
      ("failed", string_of_int !failed);
      ("metrics", json_object (List.rev_map (fun (k, v) -> (k, json_float v)) !metrics));
      ( "digests",
        json_object
          (List.rev_map
             (fun (k, d) -> (k, match d with Some d -> json_string d | None -> "null"))
             !digests) );
      ("sim", json_object (List.rev_map (fun (k, v) -> (k, json_string v)) !sim));
      ("notes", "[" ^ String.concat "," (List.rev_map json_string !notes) ^ "]");
    ]
  in
  print_endline (json_object fields)

(* --- process-level readings ------------------------------------------- *)

let counters () =
  List.filter_map
    (function
      | name, Metrics.Counter_value v | name, Metrics.Gauge_value v -> Some (name, v)
      | _, Metrics.Histogram_value _ -> None)
    (Metrics.snapshot ())

let counter_delta before after name =
  let get l = Option.value (List.assoc_opt name l) ~default:0 in
  get after - get before

(* Peak resident set of a process in MB, from /proc/<pid>/status. *)
let vm_hwm_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec find () =
        let line = input_line ic in
        match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
        | Some kb -> float_of_int kb /. 1024.0
        | None -> find ()
      in
      find ())

let gc_delta f =
  let s0 = Gc.quick_stat () in
  let r = f () in
  let s1 = Gc.quick_stat () in
  metric "gc.minor_words" (s1.minor_words -. s0.minor_words);
  metric "gc.major_words" (s1.major_words -. s0.major_words);
  metric "gc.major_collections" (float_of_int (s1.major_collections - s0.major_collections));
  r

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ready () = print_endline "ready"

(* --- options ---------------------------------------------------------- *)

let workload = ref ""
let seed = ref 7
let seconds = ref 0.0
let spans_path = ref ""
let rspec = ref ""
let dir = ref "."
let scale = ref 0.02
let jobs = ref 1
let entries = ref ""
let per_entry = ref false
let mssp_tasks = ref 0
let rounds = ref 3

(* The program's default time compression, at which the golden snapshots
   are made; the serve workload's population and shard count. *)
let tau = Benchmark.default_tau
let serve_bench = "gcc"
let shards = 2

let options =
  [
    ("--seed", Arg.Set_int seed, "N input seed");
    ("--seconds", Arg.Set_float seconds, "S measurement window");
    ("--trace", Arg.Set tracing, " record spans");
    ("--spans", Arg.Set_string spans_path, "FILE JSONL span output");
    ("--scale", Arg.Set_float scale, "F population scale");
    ("--jobs", Arg.Set_int jobs, "N pool width (suite, functional)");
    ("--entries", Arg.Set_string entries, "LIST registry entries (suite, functional)");
    ( "--per-entry",
      Arg.Set per_entry,
      " Registry.execute once per entry instead of execute_all, as a traced run does" );
    ("--mssp-tasks", Arg.Set_int mssp_tasks, "N MSSP tasks per run in the probe (0: spec)");
    ("--rspec", Arg.Set_string rspec, "EXE the rspec binary (serve)");
    ("--dir", Arg.Set_string dir, "DIR directory for the socket and snapshot (serve)");
    ("--rounds", Arg.Set_int rounds, "N query rounds over every branch (serve)");
  ]

(* --- batch workloads: suite and functional ---------------------------- *)

let select_entries () =
  match R.select (String.split_on_char ',' !entries) with
  | Ok l -> l
  | Error msg -> failwith msg

(* Start the next pass cold: drop every memoized artifact (the trace
   store included) and replace the shared pool with a fresh one. *)
let cold ctx =
  E.Cache.reset ();
  if ctx.E.Context.jobs > 1 then ignore (Pool.shared ~jobs:1);
  ignore (E.Context.pool ctx)

let record_outputs results =
  List.iter
    (fun (e, r) ->
      incr attempted;
      match r with
      | Ok (out : R.output) ->
        digests := (R.name e, Some (Digest.to_hex (Digest.string out.text))) :: !digests
      | Error exn ->
        fail "%s raised %s" (R.name e) (Printexc.to_string exn);
        digests := (R.name e, None) :: !digests)
    results

let sim_counters before after =
  List.iter
    (fun (name, _) -> sim_value name (string_of_int (counter_delta before after name)))
    (List.filter
       (fun (n, _) ->
         List.mem n [ "engine.events"; "engine.correct"; "engine.incorrect" ]
         || String.starts_with ~prefix:"reactive.transitions." n)
       after)

let pass_counters before after =
  List.iter
    (fun (name, _) -> metric name (float_of_int (counter_delta before after name)))
    (List.filter (fun (n, _) -> String.starts_with ~prefix:"pool." n) after);
  let c = E.Cache.stats () in
  List.iter
    (fun (k, v) -> metric k (float_of_int v))
    [
      ("cache.build.hits", c.build_hits); ("cache.build.misses", c.build_misses);
      ("cache.profile.hits", c.profile_hits); ("cache.profile.misses", c.profile_misses);
      ("cache.run.hits", c.run_hits); ("cache.run.misses", c.run_misses);
    ];
  metric "cache.hit_ratio" (E.Cache.hit_rate c);
  let t = Ts.stats () in
  List.iter
    (fun (k, v) -> metric k (float_of_int v))
    [
      ("trace_store.hits", t.hits); ("trace_store.misses", t.misses);
      ("trace_store.evictions", t.evictions); ("trace_store.bytes", t.bytes);
    ];
  let lookups = t.hits + t.misses in
  metric "trace_store.hit_ratio"
    (if lookups = 0 then 0.0 else float_of_int t.hits /. float_of_int lookups)

(* Registry.execute_all over the whole selection, repeated cold while
   another pass fits in the window.  Traced (or --per-entry, the untraced
   baseline of a traced run): Registry.execute once per entry in registry
   order over one context, each call a span when tracing. *)
let batch_pass ctx selection =
  let before = counters () in
  let t0 = now () in
  let results =
    gc_delta (fun () ->
        if !tracing || !per_entry then
          span "pass" (fun () ->
              List.map
                (fun e ->
                  (e, span ("experiment." ^ R.name e) (fun () ->
                          try Ok (R.execute ctx e) with exn -> Error exn)))
                selection)
        else R.execute_all ctx selection)
  in
  let wall = now () -. t0 in
  let after = counters () in
  (results, wall, before, after)

let run_batch () =
  let ctx = E.Context.create ~seed:!seed ~scale:!scale ~tau ~jobs:!jobs () in
  ignore (E.Context.pool ctx);
  ready ();
  let selection = select_entries () in
  let window_start = now () in
  let rec passes acc =
    let results, wall, before, after = batch_pass ctx selection in
    record_outputs results;
    let acc = (wall, before, after) :: acc in
    let elapsed = now () -. window_start in
    if (not !tracing) && elapsed +. wall <= !seconds then begin
      cold ctx;
      passes acc
    end
    else acc
  in
  let runs = passes [] in
  let walls = List.map (fun (w, _, _) -> w) runs in
  let _, before, after = List.hd runs in
  metric "wall_s" (median walls);
  sim_counters before after;
  if !tracing then begin
    List.iter
      (fun e ->
        let name = "experiment." ^ R.name e in
        metric (name ^ ".s") (span_seconds name))
      selection;
    pass_counters before after
  end;
  ctx

(* --- per-layer probes ------------------------------------------------- *)

(* figure7's four controller configurations: monitor 1k/10k x closed/open
   loop. *)
let figure7_params =
  List.map
    (fun (monitor, closed) -> E.Figure7.mssp_params ~monitor ~closed)
    [ (1_000, true); (1_000, false); (10_000, true); (10_000, false) ]

(* The regions Workload.instantiate builds: it draws them first, one
   Synth.generate per region, from this generator.  probe_mssp checks the
   copy against the instance's regions. *)
let regions (spec : W.t) ~seed =
  let rng = Rs_util.Prng.create ((seed * 69_069) + Hashtbl.hash spec.name) in
  Array.init spec.n_regions (fun r ->
      Rs_ir.Synth.generate ~rng ~n_sites:spec.sites_per_region
        ~first_site:(r * spec.sites_per_region) ())

(* Machine.run over figure7's configurations for every MSSP workload,
   then Distill.distill of every region under the assumption that each
   site goes its initially likelier way.  A region whose sites differ from
   the instance's counts as a failed check and is not distilled. *)
let probe_mssp ~seed =
  let tasks = ref 0 and minor = ref 0.0 and calls = ref 0 in
  span "probe" (fun () ->
      List.iter
        (fun (spec : W.t) ->
          let spec = if !mssp_tasks > 0 then { spec with tasks = !mssp_tasks } else spec in
          let inst = span "mssp.instantiate" (fun () -> W.instantiate spec ~seed) in
          List.iteri
            (fun i params ->
              let m0 = (Gc.quick_stat ()).minor_words in
              let st = span "mssp.run" (fun () -> Machine.run inst ~seed ~params) in
              minor := !minor +. ((Gc.quick_stat ()).minor_words -. m0);
              tasks := !tasks + st.tasks;
              sim_value
                (Printf.sprintf "mssp.%s.%d" spec.name i)
                (Printf.sprintf "squashes=%d speedup=%.17g" st.squashes (Machine.speedup st)))
            figure7_params;
          let likelier site =
            Rs_behavior.Behavior.p_taken inst.behaviors.(site) ~exec_index:0 ~instr:0 >= 0.5
          in
          Array.iteri
            (fun r (region : Rs_ir.Synth.t) ->
              incr attempted;
              if
                r >= Array.length inst.regions
                || region.site_ids <> Rs_mssp.Region_model.site_ids inst.regions.(r)
              then fail "%s region %d differs from Workload.instantiate's" spec.name r
              else begin
                let assumed =
                  Rs_distill.Assumptions.branches
                    (Array.to_list (Array.map (fun site -> (site, likelier site)) region.site_ids))
                in
                incr calls;
                ignore
                  (span "distill.call" (fun () -> Rs_distill.Distill.distill region.prog assumed))
              end)
            (regions spec ~seed))
        W.all);
  let run_s = span_seconds "mssp.run" in
  metric "mssp.instantiate.s" (span_seconds "mssp.instantiate");
  metric "mssp.run.s" run_s;
  metric "mssp.tasks_per_s" (float_of_int !tasks /. run_s);
  metric "mssp.minor_words_per_task" (!minor /. float_of_int !tasks);
  metric "distill.s" (span_seconds "distill.call");
  metric "distill.calls" (float_of_int !calls)

(* Benchmark.build, Trace_store.record, Engine.run ~trace under every
   Variants.all configuration and Profile.collect ~trace, for every
   benchmark's evaluation input, one trace alive at a time. *)
let probe_sim ctx =
  let events = ref 0 in
  span "probe" (fun () ->
      List.iter
        (fun b ->
          let pop, cfg =
            span "workload.build" (fun () ->
                Benchmark.build b ~input:Benchmark.Ref ~seed:ctx.E.Context.seed
                  ~scale:ctx.E.Context.scale ~tau:ctx.E.Context.tau)
          in
          let trace = span "trace_store.record" (fun () -> Ts.record pop cfg) in
          List.iter
            (fun (v : Rs_core.Variants.t) ->
              let r =
                span "engine.replay" (fun () ->
                    Rs_sim.Engine.run ~trace pop cfg (E.Context.params_of ctx v.params))
              in
              events := !events + r.total_events)
            Rs_core.Variants.all;
          ignore
            (span "profile.collect" (fun () ->
                 Rs_sim.Profile.collect ~windows:(E.Context.windows ctx) ~trace pop cfg)))
        Benchmark.all);
  let replay_s = span_seconds "engine.replay" in
  metric "workload.build.s" (span_seconds "workload.build");
  metric "trace_store.record.s" (span_seconds "trace_store.record");
  metric "engine.replay.s" replay_s;
  metric "engine.events" (float_of_int !events);
  metric "engine.ns_per_event" (replay_s *. 1e9 /. float_of_int !events);
  metric "profile.collect.s" (span_seconds "profile.collect")

(* --- serve ------------------------------------------------------------ *)

module Client = Rs_serve.Client

(* A numeric field of the server's flat STATS document. *)
let stats_field json key =
  let pat = "\"" ^ key ^ "\":" in
  let rec find i =
    if i + String.length pat > String.length json then failwith ("STATS has no " ^ key)
    else if String.sub json i (String.length pat) = pat then i + String.length pat
    else find (i + 1)
  in
  let start = find 0 in
  let stop = ref start in
  while !stop < String.length json && not (List.mem json.[!stop] [ ','; '}' ]) do
    incr stop
  done;
  float_of_string (String.sub json start (!stop - start))

(* Server processes started and not yet waited for. *)
let servers = ref []

let reap pid =
  ignore (Unix.waitpid [] pid);
  servers := List.filter (( <> ) pid) !servers

let kill pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap pid

(* Spawn `rspec serve` and wait until it answers its first request. *)
let start_server ~socket ~snapshot =
  (try Sys.remove socket with Sys_error _ -> ());
  let pid =
    Unix.create_process !rspec
      [|
        !rspec; "serve"; "--shards"; string_of_int shards; "--bench"; serve_bench; "--scale";
        Printf.sprintf "%g" !scale; "--seed"; string_of_int !seed; "--tau"; string_of_int tau;
        "--socket"; socket; "--snapshot"; snapshot;
      |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  servers := pid :: !servers;
  let deadline = now () +. 60.0 in
  let rec connect () =
    match Client.connect socket with
    | c -> c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when now () < deadline
      ->
      Unix.sleepf 0.0005;
      connect ()
  in
  match connect () with
  | c ->
    ignore (Client.stats c);
    (pid, c)
  | exception exn ->
    kill pid;
    raise exn

let stop_server (pid, c) =
  (try ignore (Client.shutdown c) with Failure _ | Unix.Unix_error _ -> ());
  Client.close c;
  reap pid

let fnv_fold h code = (h lxor code) * 0x01000193 land 0xffffffff
let fnv_init = 0x811c9dc5

(* The decision every branch should have deployed: one plain Reactive
   controller fed the same event stream, event by event. *)
let reference_codes trace n_branches =
  let params = Rs_core.Params.compress ~factor:tau Rs_core.Params.default in
  let ctrl = Rs_core.Reactive.create ~n_branches params in
  let instr = ref 0 in
  Ts.iter_packed trace (fun chunk len ->
      for i = 0 to len - 1 do
        let w = chunk.(i) in
        instr := !instr + Ts.packed_delta w;
        Rs_core.Reactive.observe ctrl ~branch:(Ts.packed_branch w) ~taken:(Ts.packed_taken w)
          ~instr:!instr
      done);
  Array.init n_branches (Rs_core.Reactive.deployed_code ctrl)

(* Cold starts measured before the first cycle, so that set-up is a
   median over enough spawns. *)
let cold_starts = 10

(* Each cycle starts a cold server, ships the trace, flushes, queries
   every branch [rounds] times, snapshots, restarts the server from the
   snapshot and queries every branch again.  Cycles repeat while another
   fits in the window. *)
let run_serve () =
  let pop, cfg =
    Benchmark.build (Benchmark.find serve_bench) ~input:Benchmark.Ref ~seed:!seed ~scale:!scale
      ~tau
  in
  let trace = Ts.record pop cfg in
  let n = Rs_behavior.Population.size pop in
  let events = Ts.length trace in
  let expected = reference_codes trace n in
  let expected_hash = Array.fold_left fnv_fold fnv_init expected in
  let path ext = Filename.concat !dir (Printf.sprintf "serve-%d.%s" (Unix.getpid ()) ext) in
  let socket = path "sock" and snapshot = path "snap" in
  let latencies = ref [] and setups = ref [] and walls = ref [] and rates = ref [] in
  let rss = ref [] in
  let check ok fmt =
    incr attempted;
    Printf.ksprintf (fun msg -> if not ok then fail "%s" msg) fmt
  in
  let query_round c =
    let h = ref fnv_init and wrong = ref 0 in
    for b = 0 to n - 1 do
      let t0 = now () in
      let r = Client.query c b in
      latencies := (now () -. t0) :: !latencies;
      incr attempted;
      match r with
      | Ok code ->
        h := fnv_fold !h code;
        if code <> expected.(b) then incr wrong
      | Error msg -> fail "query %d: %s" b msg
    done;
    if !wrong > 0 then begin
      failed := !failed + !wrong;
      notes := Printf.sprintf "%d decisions differ from the reference controller" !wrong :: !notes
    end;
    check (!h = expected_hash) "decision digest 0x%08x, reference 0x%08x" !h expected_hash
  in
  let cold_start () =
    (try Sys.remove snapshot with Sys_error _ -> ());
    let t0 = now () in
    let server = start_server ~socket ~snapshot in
    setups := (now () -. t0) :: !setups;
    server
  in
  let cycle () =
    let ((pid, c) as server) = cold_start () in
    let t0 = now () in
    let restarted =
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          span "pass" (fun () ->
              span "serve.send" (fun () -> Client.send_trace c trace);
              let flushed = span "serve.flush" (fun () -> Client.flush c) in
              rates := (float_of_int events /. (now () -. t0)) :: !rates;
              check (flushed = events) "flush acknowledged %d of %d events" flushed events;
              for _ = 1 to !rounds do
                span "serve.query" (fun () -> query_round c)
              done;
              let stats = Client.stats c in
              let field = stats_field stats in
              check
                (field "events" = field "applied" && field "events" = float_of_int events)
                "STATS events %.0f, applied %.0f, sent %d" (field "events") (field "applied")
                events;
              check
                (field "protocol_errors" = 0.0 && field "disconnects" = 0.0)
                "STATS reports %.0f protocol errors, %.0f disconnects" (field "protocol_errors")
                (field "disconnects");
              metric "serve.shard_rate_eps" (field "aggregate_rate_eps");
              metric "serve.frames" (field "frames");
              metric "serve.protocol_errors" (field "protocol_errors");
              ignore (span "serve.snapshot" (fun () -> Client.snapshot c));
              rss := vm_hwm_mb (string_of_int pid) :: !rss;
              stop_server server;
              let ((_, c) as restarted) =
                span "serve.restore" (fun () -> start_server ~socket ~snapshot)
              in
              span "serve.query" (fun () -> query_round c);
              restarted))
    in
    walls := (now () -. t0) :: !walls;
    stop_server restarted
  in
  ready ();
  (try
     for _ = 1 to cold_starts do
       stop_server (cold_start ())
     done;
     let window_start = now () in
     let rec loop () =
       cycle ();
       let elapsed = now () -. window_start in
       if (not !tracing) && elapsed *. float_of_int (List.length !walls + 1)
                            /. float_of_int (List.length !walls) <= !seconds
       then loop ()
     in
     gc_delta loop
   with exn ->
     fail "serve cycle raised %s" (Printexc.to_string exn);
     List.iter kill !servers);
  List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ socket; snapshot ];
  let lat = Array.of_list !latencies in
  Array.sort compare lat;
  let pct p =
    let k = Array.length lat in
    if k = 0 then nan else lat.(min (k - 1) (int_of_float (p *. float_of_int k)))
  in
  metric "wall_s" (median !walls);
  metric "setup_s" (median !setups);
  metric "peak_rss_mb" (median !rss);
  metric "events_per_s" (median !rates);
  metric "serve.query_p50_us" (pct 0.50 *. 1e6);
  metric "serve.query_p99_us" (pct 0.99 *. 1e6);
  metric "serve.query_samples" (float_of_int (Array.length lat));
  List.iter
    (fun name -> metric (name ^ ".s") (span_seconds name))
    [ "serve.send"; "serve.flush"; "serve.query"; "serve.snapshot"; "serve.restore" ];
  sim_value "serve.decisions" (Printf.sprintf "0x%08x" expected_hash);
  sim_value "serve.events" (string_of_int events)

(* --- main ------------------------------------------------------------- *)

let () =
  Arg.parse options (fun w -> workload := w) "bench.exe WORKLOAD [options]";
  (match !workload with
  | "setup" ->
    ignore (E.Context.pool (E.Context.create ~seed:!seed ~scale:!scale ~tau ~jobs:!jobs ()));
    ready ()
  | "suite" ->
    let ctx = run_batch () in
    if !tracing then begin
      E.Cache.reset ();
      probe_mssp ~seed:ctx.seed
    end
  | "functional" ->
    let ctx = run_batch () in
    if !tracing then begin
      E.Cache.reset ();
      probe_sim ctx
    end
  | "serve" -> run_serve ()
  | w -> raise (Arg.Bad ("unknown workload " ^ w)));
  if !workload = "suite" || !workload = "functional" then
    metric "peak_rss_mb" (vm_hwm_mb "self");
  if !tracing && !spans_path <> "" then
    write_spans !spans_path (Printf.sprintf "%s-%d-%d" !workload !seed (Unix.getpid ()));
  if !workload <> "setup" then print_report ()
