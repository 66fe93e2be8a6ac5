(* Packed branch traces: the one event format every consumer reads.

   Each event is one OCaml immediate int, the event word {!Stream}
   defines for its generator.  Chunks are plain [int array]s of
   [chunk_size] entries, so a pass touches nothing but flat memory and
   the GC never scans per-event boxes.  A live pass packs into one
   reused buffer.  A recording keeps its chunks: as the words
   themselves, or, when every event's branch id and delta are narrow
   enough, as 2-byte cells that hold the word's low 4 bits (taken and a
   3-bit delta) under a 12-bit branch id.  Cells are a storage format
   only: word consumers see them decoded, chunk by chunk, into one
   reused buffer. *)

let chunk_bits = 15
let chunk_size = 1 lsl chunk_bits

(* Chunks are all full except possibly the last. *)
type data = Words of int array array | Cells of Bytes.t array

type t = {
  config : Stream.config;
  n_branches : int;
  data : data;
  last_len : int;  (* live entries in the final chunk *)
}

let config t = t.config
let n_branches t = t.n_branches
let length t = t.config.Stream.length
let n_chunks (cfg : Stream.config) = (cfg.length + chunk_size - 1) lsr chunk_bits

(* The cell layout: bits 0-3 are the event word's taken bit and
   delta, bits 4-15 its branch id.  A generated stream's delta is
   [floor] or [ceil instr_per_branch], so [narrow] decides from the
   population and config alone whether every event fits. *)
let cell_branches = 1 lsl 12
let cell_max_delta = 7

let narrow n_branches (cfg : Stream.config) =
  n_branches <= cell_branches && Float.ceil cfg.instr_per_branch <= float_of_int cell_max_delta

external get16 : Bytes.t -> int -> int = "%caml_bytes_get16u"
external set16 : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"

let[@inline] cell_of_word w = ((w lsr Stream.branch_shift) lsl 4) lor (w land 15)
let[@inline] word_of_cell c = ((c lsr 4) lsl Stream.branch_shift) lor (c land 15)

(* Heap bytes per chunk, header word included: [chunk_size] value
   words, or [2 * chunk_size] bytes plus the padding word every
   [Bytes.t] of a whole number of words carries. *)
let bytes_for ~narrow cfg =
  n_chunks cfg * if narrow then ((2 * chunk_size / 8) + 2) * 8 else (chunk_size + 1) * 8

let bytes t = bytes_for ~narrow:(match t.data with Cells _ -> true | Words _ -> false) t.config

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
  let n_branches = Population.size pop in
  check_packable ~caller n_branches;
  Stream.validate ~caller cfg;
  let next = ref 0 in
  let data =
    if narrow n_branches cfg then begin
      let cells = Array.init (n_chunks cfg) (fun _ -> Bytes.create (2 * chunk_size)) in
      Stream.generate pop cfg ~buf:(Array.make (min cfg.length chunk_size) 0) ~emit:(fun buf len ->
          let c = cells.(!next) in
          for i = 0 to len - 1 do
            set16 c (2 * i) (cell_of_word (Array.unsafe_get buf i))
          done;
          incr next;
          buf);
      Cells cells
    end
    else begin
      let chunks = alloc_chunks cfg in
      (* each full chunk moves the generator on to the next; exactly
         [cfg.length] events are generated, so none is written after the
         final chunk *)
      Stream.generate pop cfg ~buf:chunks.(0) ~emit:(fun _ _ ->
          incr next;
          if !next < Array.length chunks then chunks.(!next) else [||]);
      Words chunks
    end
  in
  { config = cfg; n_branches; data; last_len = last_len cfg }

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
  { config; n_branches; data = Words chunks; last_len = last_len config }

let chunk_len t c = if c = n_chunks t.config - 1 then t.last_len else chunk_size

let iter_packed t f =
  match t.data with
  | Words chunks ->
    for c = 0 to Array.length chunks - 1 do
      f chunks.(c) (chunk_len t c)
    done
  | Cells cells ->
    let buf = Array.make (min (length t) chunk_size) 0 in
    for c = 0 to Array.length cells - 1 do
      let cell = cells.(c) and len = chunk_len t c in
      for i = 0 to len - 1 do
        Array.unsafe_set buf i (word_of_cell (get16 cell (2 * i)))
      done;
      f buf len
    done

let iter_chunks ?(caller = "Trace_store.iter_chunks") ?trace ?cells pop (cfg : Stream.config) f =
  match trace with
  | Some t -> (
    if t.config <> cfg || t.n_branches <> Population.size pop then
      invalid_arg (caller ^ ": trace was recorded for a different (population, config)");
    match (t.data, cells) with
    | Cells cs, Some g ->
      for c = 0 to Array.length cs - 1 do
        g cs.(c) (chunk_len t c)
      done
    | _ -> iter_packed t f)
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
  Rs_util.Memo.find_if_fits store ~label:key
    ~bytes:(bytes_for ~narrow:(narrow (Population.size pop) cfg) cfg)
    (key, cfg)
    (fun () -> record pop cfg)

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
