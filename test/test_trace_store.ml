module B = Rs_behavior.Behavior
module Pop = Rs_behavior.Population
module Stream = Rs_behavior.Stream
module TS = Rs_behavior.Trace_store
module Prng = Rs_util.Prng

(* A mixed-behaviour population, deterministic in [seed]. *)
let mk_pop ~n seed =
  let rng = Prng.create (seed + 101) in
  Pop.create
    (Array.init n (fun id ->
         let behavior =
           match Prng.int rng 4 with
           | 0 -> B.Stationary (Prng.float rng 1.0)
           | 1 -> B.Flip_at { threshold = 1 + Prng.int rng 500; first = Prng.int rng 2 = 0 }
           | 2 -> B.Stationary 0.999
           | _ -> B.Stationary 0.5
         in
         { Pop.id; behavior; weight = 0.1 +. Prng.float rng 2.0 }))

(* A chunk source as the sequence of its chunks: each chunk's live
   words, copied out (a live source reuses its buffer). *)
let chunks_of src =
  let acc = ref [] in
  src (fun chunk len -> acc := Array.sub chunk 0 len :: !acc);
  List.rev !acc

(* Decode a chunk source into the event tuples the generator delivers:
   branch, outcome, per-branch execution index and absolute instruction
   count, reconstructed from the packed words. *)
let events_of_chunks ~n src =
  let exec = Array.make n 0 in
  let instr = ref 0 in
  let evs = ref [] in
  src (fun chunk len ->
      for i = 0 to len - 1 do
        let w = chunk.(i) in
        let b = TS.packed_branch w in
        instr := !instr + TS.packed_delta w;
        evs := (b, TS.packed_taken w, exec.(b), !instr) :: !evs;
        exec.(b) <- exec.(b) + 1
      done);
  (List.rev !evs, exec)

(* The stream's definition, spelled out one event at a time: the
   reference the one generator loop must match.  Branch draws come from
   the seed's first split, outcomes from [Prng.bernoulli] of the
   behaviour's [p_taken] on each branch's own split, and the instruction
   clock advances by [instr_per_branch] with a fractional carry. *)
let reference_events pop (cfg : Stream.config) =
  let root = Prng.create cfg.seed in
  let pick = Prng.split root in
  let n = Pop.size pop in
  let rngs = Array.init n (fun _ -> Prng.split root) in
  let alias = Stream.Alias.of_weights (Array.init n (fun b -> (Pop.spec pop b).weight)) in
  let exec = Array.make n 0 in
  let base = Float.to_int cfg.instr_per_branch in
  let frac = cfg.instr_per_branch -. Float.of_int base in
  let carry = ref 0.0 and instr = ref 0 in
  let events =
    List.init cfg.length (fun _ ->
        let b = Stream.Alias.draw alias pick in
        carry := !carry +. frac;
        let step = if !carry >= 1.0 then (carry := !carry -. 1.0; base + 1) else base in
        instr := !instr + step;
        let exec_index = exec.(b) in
        exec.(b) <- exec_index + 1;
        let p = B.p_taken (Pop.spec pop b).behavior ~exec_index ~instr:!instr in
        (b, Prng.bernoulli rngs.(b) p, exec_index, !instr))
  in
  (events, exec)

(* The core contract: the live chunk source and a recording hand over
   the same chunks, word for word, and decoding them yields exactly the
   reference stream's events and per-branch execution totals.  Lengths around
   multiples of the chunk size cover the reused buffer's final partial
   (or full) chunk. *)
let qcheck_live_equals_recorded =
  let length =
    QCheck.Gen.(
      oneof
        [
          int_range 1 3_000;
          map2 (fun k d -> (TS.chunk_size * k) + d) (int_range 1 2) (int_range (-1) 1);
        ])
  in
  QCheck.Test.make ~name:"live chunks == recorded chunks" ~count:60
    QCheck.(
      quad (int_bound 1000) (int_range 1 6) (make ~print:string_of_int length) (int_range 1 8))
    (fun (seed, n, length, ipb) ->
      let pop = mk_pop ~n seed in
      (* integral and fractional rates: 1.75 .. 7.0 *)
      let cfg = { Stream.seed; instr_per_branch = 1.0 +. (0.75 *. float_of_int ipb); length } in
      let tr = TS.record pop cfg in
      let live = TS.iter_chunks pop cfg in
      let recorded = TS.iter_chunks ~trace:tr pop cfg in
      let chunks = chunks_of live in
      chunks = chunks_of recorded
      && chunks = chunks_of (TS.iter_packed tr)
      && List.length chunks = (length + TS.chunk_size - 1) / TS.chunk_size
      && events_of_chunks ~n live = reference_events pop cfg
      && events_of_chunks ~n recorded = reference_events pop cfg
      && TS.length tr = length)

(* The heap bytes of a recording of [cfg] as 2-byte cells and as int
   words: [n] chunks of a [2 * chunk_size]-byte [Bytes.t] (its padding
   word and header) or of [chunk_size] words and a header. *)
let n_chunks (cfg : Stream.config) = (cfg.length + TS.chunk_size - 1) / TS.chunk_size
let cell_bytes cfg = n_chunks cfg * ((2 * TS.chunk_size / 8) + 2) * 8
let word_bytes cfg = n_chunks cfg * (TS.chunk_size + 1) * 8

(* The cell format's boundary: a recording keeps cells up to 4,096
   branches and [ceil instr_per_branch] 7, int words past either, and
   either way hands over the live generator's chunks word for word —
   through [iter_packed], through [iter_chunks], and, decoded from the
   cells the engine's kernel reads in place, through [iter_chunks
   ~cells].  The streams reach the last branch id and the largest
   delta, the cell fields' limits. *)
let test_cell_format_boundary () =
  List.iter
    (fun (n, ipb) ->
      let pop = mk_pop ~n 5 in
      let cfg = { Stream.seed = 3; instr_per_branch = ipb; length = TS.chunk_size + 100 } in
      let name = Printf.sprintf "%d branches, %.1f instr/branch" n ipb in
      let tr = TS.record pop cfg in
      let cells = n <= 4096 && ipb <= 7.0 in
      Alcotest.(check int) (name ^ ": bytes") (if cells then cell_bytes cfg else word_bytes cfg)
        (TS.bytes tr);
      let live = chunks_of (TS.iter_chunks pop cfg) in
      Alcotest.(check bool) (name ^ ": iter_packed == live") true
        (chunks_of (TS.iter_packed tr) = live);
      Alcotest.(check bool) (name ^ ": iter_chunks ~trace == live") true
        (chunks_of (TS.iter_chunks ~trace:tr pop cfg) = live);
      let via_cells = ref [] and via_words = ref 0 in
      TS.iter_chunks ~trace:tr
        ~cells:(fun b len ->
          via_cells :=
            Array.init len (fun i ->
                let c = Bytes.get_uint16_ne b (2 * i) in
                ((c lsr 4) lsl Stream.branch_shift) lor (c land 15))
            :: !via_cells)
        pop cfg
        (fun _ _ -> incr via_words);
      if cells then
        Alcotest.(check bool) (name ^ ": cells decode to the live words") true
          (!via_words = 0 && List.rev !via_cells = live)
      else Alcotest.(check int) (name ^ ": no cells from a word recording") 0
          (List.length !via_cells);
      let max_of f = List.fold_left (Array.fold_left (fun m w -> max m (f w))) 0 live in
      Alcotest.(check int) (name ^ ": last branch reached") (n - 1) (max_of TS.packed_branch);
      Alcotest.(check int) (name ^ ": largest delta reached")
        (Float.to_int (Float.ceil ipb))
        (max_of TS.packed_delta))
    [ (4096, 7.0); (4097, 7.0); (4096, 7.5); (4097, 7.5) ]

let test_engine_replay_equivalence () =
  (* A full engine run off a trace must equal the run off the live
     stream: result counters, last misspeculation, hook sequences. *)
  let pop = mk_pop ~n:12 42 in
  let cfg = { Stream.seed = 9; instr_per_branch = 5.0; length = 40_000 } in
  let params = Rs_core.Params.default in
  let tr = TS.record pop cfg in
  let run trace =
    let transitions = ref [] in
    let observed = ref 0 in
    let r =
      Rs_sim.Engine.run
        ~observer:(fun ~branch:_ ~taken ~instr:_ ~code ->
          (* bit 0: the deployed code speculates *)
          if code land 1 = 1 && taken then incr observed)
        ~on_transition:(fun t -> transitions := t :: !transitions)
        ?trace pop cfg params
    in
    ((r.total_events, r.total_instructions, r.correct, r.incorrect), !observed, !transitions)
  in
  Alcotest.(check bool) "hook run identical" true (run (Some tr) = run None);
  (* and the hook-free fast path agrees on the result counters *)
  let bare trace =
    let r = Rs_sim.Engine.run ?trace pop cfg params in
    (r.total_events, r.total_instructions, r.correct, r.incorrect, r.last_misspec)
  in
  Alcotest.(check bool) "fast path identical" true (bare (Some tr) = bare None)

let test_engine_rejects_mismatch () =
  let pop = mk_pop ~n:4 1 in
  let cfg = { Stream.seed = 2; instr_per_branch = 4.0; length = 500 } in
  let tr = TS.record pop cfg in
  Alcotest.check_raises "config mismatch"
    (Invalid_argument "Engine.run: trace was recorded for a different (population, config)")
    (fun () ->
      ignore
        (Rs_sim.Engine.run ~trace:tr pop { cfg with seed = 3 } Rs_core.Params.default
          : Rs_sim.Engine.result))

(* Run [f] with the trace-store capacity set to [cap], restoring the
   previous capacity and clearing afterwards whatever happens. *)
(* Every test here restores this capacity, so no other test sets one. *)
let default_bytes = TS.default_capacity_mb * 1024 * 1024

let with_capacity cap f =
  TS.clear ();
  TS.set_capacity_bytes cap;
  Fun.protect
    ~finally:(fun () ->
      TS.set_capacity_bytes default_bytes;
      TS.clear ())
    f

let test_lru_bound () =
  let pop = mk_pop ~n:8 7 in
  let cfg = { Stream.seed = 11; instr_per_branch = 5.0; length = 5_000 } in
  let sz = TS.bytes (TS.record pop cfg) in
  (* room for exactly two traces *)
  with_capacity (2 * sz) (fun () ->
      let cached key = Option.get (TS.cached ~key pop cfg) in
      let t1 = cached "k1" in
      let k2_chunks = chunks_of (TS.iter_packed (cached "k2")) in
      (* touch k1 so k2 is the least recently used *)
      let t1' = cached "k1" in
      Alcotest.(check bool) "hit returns the same trace" true (t1 == t1');
      let _ = cached "k3" in
      let s = TS.stats () in
      Alcotest.(check int) "capacity respected: entries" 2 s.entries;
      Alcotest.(check bool) "capacity respected: bytes" true (s.bytes <= 2 * sz);
      Alcotest.(check int) "one eviction" 1 s.evictions;
      Alcotest.(check int) "hits counted" 1 s.hits;
      Alcotest.(check int) "misses counted" 3 s.misses;
      (* the evicted key re-records to a byte-identical trace *)
      let k2_again = cached "k2" in
      Alcotest.(check bool) "re-record after eviction is identical" true
        (chunks_of (TS.iter_packed k2_again) = k2_chunks))

(* A stream the store cannot hold is not recorded at all: [cached]
   answers [None] (the caller generates live), nothing is held and the
   record fault site is never reached. *)
let without_recording cap pop cfg =
  let recorded = ref 0 in
  let hook = Rs_obs.Fault_hook.hook in
  let saved = !hook in
  (hook := fun ~site ~key:_ -> if site = "trace_store.record" then incr recorded);
  Fun.protect
    ~finally:(fun () -> hook := saved)
    (fun () ->
      with_capacity cap (fun () ->
          let a = TS.cached ~key:"k" pop cfg in
          let b = TS.cached ~key:"k" pop cfg in
          Alcotest.(check bool) "no trace served" true (a = None && b = None);
          Alcotest.(check int) "nothing recorded" 0 !recorded;
          let s = TS.stats () in
          Alcotest.(check int) "nothing held" 0 s.entries;
          Alcotest.(check int) "no bytes held" 0 s.bytes;
          Alcotest.(check int) "both were misses" 2 s.misses))

let test_capacity_zero_disables () =
  without_recording 0 (mk_pop ~n:4 3) { Stream.seed = 5; instr_per_branch = 3.0; length = 1_000 }

let test_capacity_too_small () =
  let pop = mk_pop ~n:4 3 in
  (* two chunks' worth of events: a recording needs two chunks of bytes *)
  let cfg = { Stream.seed = 5; instr_per_branch = 3.0; length = TS.chunk_size + 1 } in
  let sz = TS.bytes (TS.record pop cfg) in
  without_recording (sz - 1) pop cfg;
  (* one byte more and it is recorded and held *)
  with_capacity sz (fun () ->
      Alcotest.(check bool) "fits: served" true (TS.cached ~key:"k" pop cfg <> None);
      Alcotest.(check int) "fits: held" 1 (TS.stats ()).entries)

(* The store weighs a recording by its real heap size, so a capacity
   that holds a stream's cells but not its words admits it. *)
let test_cached_admits_cells () =
  let pop = mk_pop ~n:4 3 in
  let cfg = { Stream.seed = 5; instr_per_branch = 3.0; length = (2 * TS.chunk_size) + 9 } in
  let cap = (cell_bytes cfg + word_bytes cfg) / 2 in
  with_capacity cap (fun () ->
      Alcotest.(check bool) "recorded" true (TS.cached ~key:"k" pop cfg <> None);
      let s = TS.stats () in
      Alcotest.(check int) "held" 1 s.entries;
      Alcotest.(check int) "weighed as cells" (cell_bytes cfg) s.bytes)

(* A recording is a compute body of the trace store's memo, so an
   injected [trace_store.record] fault is retried in place wherever the
   lookup comes from — here, from no other compute body at all. *)
let trace_fault_plan = "seed=3,rate=1.0,max_raises=1,sites=trace_store"

let with_trace_faults f =
  (match Rs_fault.Fault.configure_spec trace_fault_plan with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "bad fault spec: %s" msg);
  Fun.protect ~finally:Rs_fault.Fault.disable f

let test_cached_retries_faulted_record () =
  let pop = mk_pop ~n:8 7 in
  let cfg = { Stream.seed = 11; instr_per_branch = 5.0; length = TS.chunk_size + 7 } in
  let clean = chunks_of (TS.iter_packed (TS.record pop cfg)) in
  with_capacity (default_bytes) @@ fun () ->
  with_trace_faults @@ fun () ->
  let before = Rs_fault.Fault.injected () in
  let faulted = Option.get (TS.cached ~key:"k" pop cfg) in
  Alcotest.(check int) "the first recording was faulted" 1 (Rs_fault.Fault.injected () - before);
  Alcotest.(check bool) "word-identical to a clean recording" true
    (chunks_of (TS.iter_packed faulted) = clean)

let test_cache_trace_retries_outside_body () =
  let module E = Rs_experiments in
  let ctx = E.Context.create ~seed:7 ~scale:0.005 ~tau:10 ~jobs:1 () in
  let bm = Rs_workload.Benchmark.find "gzip" in
  Fun.protect ~finally:E.Cache.reset @@ fun () ->
  E.Cache.reset ();
  let pop, cfg = E.Cache.build ctx bm ~input:Ref in
  let clean = chunks_of (TS.iter_packed (TS.record pop cfg)) in
  with_trace_faults @@ fun () ->
  let before = Rs_fault.Fault.injected () in
  match E.Cache.trace ctx bm ~input:Ref with
  | None -> Alcotest.fail "the default capacity holds the trace"
  | Some trace ->
    Alcotest.(check int) "the first recording was faulted" 1
      (Rs_fault.Fault.injected () - before);
    Alcotest.(check bool) "word-identical to a clean recording" true
      (chunks_of (TS.iter_packed trace) = clean)

let test_record_names_stream_guards () =
  let pop = mk_pop ~n:2 1 in
  Alcotest.check_raises "record names itself"
    (Invalid_argument "Trace_store.record: length must be positive") (fun () ->
      ignore (TS.record pop { Stream.seed = 0; instr_per_branch = 2.0; length = 0 } : TS.t))

(* A decreasing instruction count would pack as garbage delta bits and
   corrupt the trace silently; both packers must reject it by name. *)
let test_rejects_decreasing_instr () =
  let cfg = { Stream.seed = 0; instr_per_branch = 2.0; length = 3 } in
  Alcotest.check_raises "of_events rejects decreasing instr"
    (Invalid_argument "Trace_store.of_events: instruction counts must not decrease") (fun () ->
      ignore
        (TS.of_events ~n_branches:2 ~config:cfg (fun push ->
             push ~branch:0 ~taken:true ~instr:10;
             push ~branch:1 ~taken:false ~instr:4)
          : TS.t))

(* A rate whose instruction deltas cannot be packed is refused by the
   config check, before a recording allocates its chunks (each goes
   straight to the major heap). *)
let test_record_refuses_delta_before_allocating () =
  let pop = mk_pop ~n:2 1 in
  let cfg = { Stream.seed = 0; instr_per_branch = 3e6; length = 64 * TS.chunk_size } in
  let major () = (Gc.quick_stat ()).major_words in
  let before = major () in
  Alcotest.check_raises "refused"
    (Invalid_argument "Trace_store.record: instruction delta does not fit in 20 bits") (fun () ->
      ignore (TS.record pop cfg : TS.t));
  let words = major () -. before in
  if words >= float_of_int TS.chunk_size then
    Alcotest.failf "the refusal allocated %.0f major-heap words" words

(* Figure5 rendered through trace replay vs live generation (a
   trace-store capacity of 0): the sweep's output must be byte-identical
   either way. *)
let test_figure5_replay_byte_identity () =
  let ctx = Rs_experiments.Context.create ~seed:7 ~scale:0.02 ~tau:10 ~jobs:1 () in
  let render cap =
    with_capacity cap (fun () ->
        Rs_experiments.Cache.reset ();
        Rs_experiments.Figure5.render (Rs_experiments.Figure5.run ctx))
  in
  Fun.protect ~finally:Rs_experiments.Cache.reset (fun () ->
      let live = render 0 in
      let replayed = render (default_bytes) in
      Alcotest.(check string) "figure5 via replay == via live generation" live replayed)

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_live_equals_recorded;
    Alcotest.test_case "engine replay equivalence" `Quick test_engine_replay_equivalence;
    Alcotest.test_case "engine rejects mismatched trace" `Quick test_engine_rejects_mismatch;
    Alcotest.test_case "lru bound" `Quick test_lru_bound;
    Alcotest.test_case "capacity zero disables caching" `Quick test_capacity_zero_disables;
    Alcotest.test_case "capacity too small: not recorded" `Quick test_capacity_too_small;
    Alcotest.test_case "cached retries a faulted recording" `Quick
      test_cached_retries_faulted_record;
    Alcotest.test_case "Cache.trace retries outside a compute body" `Quick
      test_cache_trace_retries_outside_body;
    Alcotest.test_case "record names stream guards" `Quick test_record_names_stream_guards;
    Alcotest.test_case "rejects decreasing instr" `Quick test_rejects_decreasing_instr;
    Alcotest.test_case "record refuses a wide delta before allocating" `Quick
      test_record_refuses_delta_before_allocating;
    Alcotest.test_case "figure5 byte-identity" `Slow test_figure5_replay_byte_identity;
    Alcotest.test_case "cell format boundary: 4096 branches, delta 7" `Quick
      test_cell_format_boundary;
    Alcotest.test_case "capacity between cell and word size: recorded" `Quick
      test_cached_admits_cells;
  ]
