(* Packed branch traces: the one event format every consumer reads.

   Event encoding: one OCaml immediate int per event —

     bit 0       taken
     bits 1-20   instruction delta from the previous event (< 2^20)
     bits 21-61  branch id

   Chunks are plain [int array]s of [chunk_size] entries, so a pass
   touches nothing but flat memory and the GC never scans per-event
   boxes.  A recording keeps its chunks; a live pass packs into one
   reused buffer. *)

let chunk_bits = 15
let chunk_size = 1 lsl chunk_bits
let delta_bits = 20
let max_delta = (1 lsl delta_bits) - 1
let delta_mask = max_delta
let branch_shift = delta_bits + 1

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

let packed_branch w = w lsr branch_shift
let packed_taken w = w land 1 = 1
let packed_delta w = (w lsr 1) land delta_mask

(* The one packer.  [push] encodes an event into [buf]; each full chunk,
   and the partial rest at [finish], goes to [emit], which returns the
   buffer to fill next: the same one for a live pass that consumes the
   chunk on the spot, the next preallocated chunk for a recording that
   keeps it. *)
type packer = {
  caller : string;
  mutable buf : int array;
  mutable pos : int;
  mutable last_instr : int;
  emit : int array -> int -> int array;
}

let packer ~caller buf emit = { caller; buf; pos = 0; last_instr = 0; emit }

let push p ~branch ~taken ~instr =
  let delta = instr - p.last_instr in
  (* A negative delta would pack sign bits into the branch-id field and
     corrupt it silently. *)
  if delta < 0 then invalid_arg (p.caller ^ ": instruction counts must not decrease");
  if delta > max_delta then
    invalid_arg (p.caller ^ ": instruction delta does not fit in 20 bits");
  p.last_instr <- instr;
  Array.unsafe_set p.buf p.pos ((branch lsl branch_shift) lor (delta lsl 1) lor Bool.to_int taken);
  let pos = p.pos + 1 in
  if pos = chunk_size then begin
    p.buf <- p.emit p.buf pos;
    p.pos <- 0
  end
  else p.pos <- pos

let finish p = if p.pos > 0 then ignore (p.emit p.buf p.pos : int array)

let check_packable ~caller n =
  if (n - 1) lsl branch_shift < 0 then invalid_arg (caller ^ ": population too large to pack")

(* Run the generator through a packer.  The raw generator hands over
   plain integers, so packing allocates nothing per event. *)
let pack_stream ~caller pop (cfg : Stream.config) ~buf ~emit =
  let p = packer ~caller buf emit in
  ignore
    (Stream.iter_raw pop cfg (fun ~branch ~taken ~exec_index:_ ~instr ->
         push p ~branch ~taken ~instr)
      : int array);
  finish p

(* A recording's chunks, preallocated (large enough to go straight to the
   major heap), and the [emit] that keeps each one and moves on to the
   next.  Exactly [cfg.length] events are pushed, so nothing is written
   after the final chunk is emitted. *)
let alloc_chunks cfg =
  let chunks = Array.init (n_chunks cfg) (fun _ -> Array.make chunk_size 0) in
  let next = ref 0 in
  let keep _ _ =
    incr next;
    if !next < Array.length chunks then chunks.(!next) else [||]
  in
  (chunks, keep)

let last_len (cfg : Stream.config) =
  let r = cfg.length land (chunk_size - 1) in
  if r = 0 then chunk_size else r

let record pop (cfg : Stream.config) =
  let caller = "Trace_store.record" in
  Rs_obs.Fault_hook.hit ~site:"trace_store.record"
    ~key:(Printf.sprintf "seed=%d/len=%d" cfg.seed cfg.length);
  let n = Population.size pop in
  check_packable ~caller n;
  Stream.validate ~caller cfg;
  let chunks, keep = alloc_chunks cfg in
  pack_stream ~caller pop cfg ~buf:chunks.(0) ~emit:keep;
  { config = cfg; n_branches = n; chunks; last_len = last_len cfg }

let of_events ~n_branches ~(config : Stream.config) emit =
  let caller = "Trace_store.of_events" in
  if n_branches <= 0 then invalid_arg (caller ^ ": n_branches must be positive");
  check_packable ~caller n_branches;
  Stream.validate ~caller config;
  let chunks, keep = alloc_chunks config in
  let p = packer ~caller chunks.(0) keep in
  let count = ref 0 in
  emit (fun ~branch ~taken ~instr ->
      if branch < 0 || branch >= n_branches then invalid_arg (caller ^ ": branch id out of range");
      if !count >= config.length then invalid_arg (caller ^ ": more events than config.length");
      incr count;
      push p ~branch ~taken ~instr);
  if !count <> config.length then invalid_arg (caller ^ ": fewer events than config.length");
  finish p;
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
    pack_stream ~caller pop cfg ~buf ~emit:(fun chunk len ->
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
