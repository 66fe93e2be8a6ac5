(* Packed branch traces: the one event format every consumer reads.

   Each event is one OCaml immediate int, the event word {!Stream}
   defines for its generator.  Chunks are plain [int array]s of
   [chunk_size] entries, so a pass touches nothing but flat memory and
   the GC never scans per-event boxes.  A recording keeps its chunks; a
   live pass packs into one reused buffer. *)

let chunk_bits = 15
let chunk_size = 1 lsl chunk_bits

type t = {
  config : Stream.config;
  n_branches : int;
  chunks : int array array;  (* all full except possibly the last *)
  last_len : int;  (* live entries in the final chunk *)
}

let config t = t.config
let n_branches t = t.n_branches
let length t = t.config.Stream.length
let n_chunks (cfg : Stream.config) = (cfg.length + chunk_size - 1) lsr chunk_bits

(* header word + [chunk_size] value words per chunk, 8 bytes each *)
let bytes_for cfg = n_chunks cfg * (chunk_size + 1) * 8
let bytes t = bytes_for t.config

let packed_branch = Stream.packed_branch
let packed_taken = Stream.packed_taken
let packed_delta = Stream.packed_delta

let check_packable ~caller n =
  if (n - 1) lsl Stream.branch_shift < 0 then
    invalid_arg (caller ^ ": population too large to pack")

(* A recording's chunks, preallocated (large enough to go straight to the
   major heap). *)
let alloc_chunks (cfg : Stream.config) =
  Array.init (n_chunks cfg) (fun _ -> Array.make chunk_size 0)

let last_len (cfg : Stream.config) =
  let r = cfg.length land (chunk_size - 1) in
  if r = 0 then chunk_size else r

let record pop (cfg : Stream.config) =
  let caller = "Trace_store.record" in
  Rs_obs.Fault_hook.hit ~site:"trace_store.record"
    ~key:(Printf.sprintf "seed=%d/len=%d" cfg.seed cfg.length);
  check_packable ~caller (Population.size pop);
  Stream.validate ~caller cfg;
  let chunks = alloc_chunks cfg in
  (* each full chunk moves the generator on to the next; exactly
     [cfg.length] events are generated, so none is written after the
     final chunk *)
  let next = ref 0 in
  Stream.generate pop cfg ~buf:chunks.(0) ~emit:(fun _ _ ->
      incr next;
      if !next < Array.length chunks then chunks.(!next) else [||]);
  { config = cfg; n_branches = Population.size pop; chunks; last_len = last_len cfg }

let of_events ~n_branches ~(config : Stream.config) emit =
  let caller = "Trace_store.of_events" in
  if n_branches <= 0 then invalid_arg (caller ^ ": n_branches must be positive");
  check_packable ~caller n_branches;
  Stream.validate ~caller config;
  let chunks = alloc_chunks config in
  let count = ref 0 and last_instr = ref 0 in
  emit (fun ~branch ~taken ~instr ->
      if branch < 0 || branch >= n_branches then invalid_arg (caller ^ ": branch id out of range");
      if !count >= config.length then invalid_arg (caller ^ ": more events than config.length");
      let delta = instr - !last_instr in
      (* A negative delta would pack sign bits into the branch-id field
         and corrupt it silently. *)
      if delta < 0 then invalid_arg (caller ^ ": instruction counts must not decrease");
      if delta > Stream.max_delta then
        invalid_arg (caller ^ ": instruction delta does not fit in 20 bits");
      last_instr := instr;
      chunks.(!count lsr chunk_bits).(!count land (chunk_size - 1)) <-
        Stream.pack ~branch ~delta ~taken;
      incr count);
  if !count <> config.length then invalid_arg (caller ^ ": fewer events than config.length");
  { config; n_branches; chunks; last_len = last_len config }

let iter_packed t f =
  let last = Array.length t.chunks - 1 in
  for c = 0 to last do
    f t.chunks.(c) (if c = last then t.last_len else chunk_size)
  done

let iter_chunks ?(caller = "Trace_store.iter_chunks") ?trace pop (cfg : Stream.config) f =
  match trace with
  | Some t ->
    if t.config <> cfg || t.n_branches <> Population.size pop then
      invalid_arg (caller ^ ": trace was recorded for a different (population, config)");
    iter_packed t f
  | None ->
    check_packable ~caller (Population.size pop);
    Stream.validate ~caller cfg;
    let buf = Array.make (min cfg.length chunk_size) 0 in
    Stream.generate pop cfg ~buf ~emit:(fun chunk len ->
        f chunk len;
        chunk)

(* ---------------------------------------------------------------------- *)
(* Process-global LRU                                                      *)
(* ---------------------------------------------------------------------- *)

let default_capacity_mb = 512

let store : (string * Stream.config, t) Rs_util.Memo.t =
  Rs_util.Memo.create ~budget:(default_capacity_mb * 1024 * 1024) ~size:bytes "trace_store"

let cached ~key pop cfg =
  Rs_util.Memo.find_if_fits store ~label:key ~bytes:(bytes_for cfg) (key, cfg) (fun () ->
      record pop cfg)

type stats = Rs_util.Memo.stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  bytes : int;
}

let stats () = Rs_util.Memo.stats store
let set_capacity_bytes b = Rs_util.Memo.set_budget store b
let clear () = Rs_util.Memo.clear store
