(* Version-tagged snapshot of the whole service state: the packed
   stream position (events ingested, global instruction count) plus the
   int-encoded controller state table of every shard.  A server
   restored from a snapshot and fed the remaining event suffix reaches
   a state byte-identical to one that ingested the whole stream — the
   property the serve tests and CI pin.

   Layout (all integers 64-bit LE):

     magic "RSSV" | u32 version | n_branches | shards | events |
     last_instr | per shard: word count then that many state words
     (Rs_core.Reactive.export_words). *)

let magic = "RSSV"
let version = 1

type t = {
  n_branches : int;
  shards : int;
  events : int;
  last_instr : int;
  shard_state : int array array;
}

let fail fmt = Printf.ksprintf (fun s -> raise (Failure s)) fmt

let encode t =
  let words = Array.fold_left (fun acc w -> acc + 1 + Array.length w) 0 t.shard_state in
  let b = Bytes.create (4 + 4 + ((4 + words) * 8)) in
  Bytes.blit_string magic 0 b 0 4;
  Bytes.set_int32_le b 4 (Int32.of_int version);
  let pos = ref 8 in
  let put v =
    Bytes.set_int64_le b !pos (Int64.of_int v);
    pos := !pos + 8
  in
  put t.n_branches;
  put t.shards;
  put t.events;
  put t.last_instr;
  Array.iter
    (fun w ->
      put (Array.length w);
      Array.iter put w)
    t.shard_state;
  Bytes.unsafe_to_string b

let decode s =
  try
    if String.length s < 8 + (4 * 8) then fail "snapshot truncated";
    if String.sub s 0 4 <> magic then fail "snapshot magic mismatch (not an rspec snapshot)";
    let v = Int32.to_int (String.get_int32_le s 4) in
    if v <> version then fail "snapshot version %d unsupported (expected %d)" v version;
    let pos = ref 8 in
    let get () =
      if !pos + 8 > String.length s then fail "snapshot truncated";
      let v = String.get_int64_le s !pos in
      pos := !pos + 8;
      if Int64.compare v (Int64.of_int min_int) < 0 then fail "snapshot word out of range";
      Int64.to_int v
    in
    let n_branches = get () in
    let shards = get () in
    let events = get () in
    let last_instr = get () in
    if n_branches <= 0 || shards <= 0 || shards > n_branches || events < 0 then
      fail "snapshot header inconsistent";
    (* each shard takes at least its length word: a forged count must not
       size an allocation *)
    if shards > (String.length s - !pos) / 8 then fail "snapshot shard state truncated";
    let shard_state =
      Array.init shards (fun _ ->
          let n = get () in
          if n < 0 || n > String.length s then fail "snapshot shard state truncated";
          Array.init n (fun _ -> get ()))
    in
    if !pos <> String.length s then fail "snapshot has trailing bytes";
    Ok { n_branches; shards; events; last_instr; shard_state }
  with Failure msg -> Error msg

let save ~path t =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  try
    output_string oc (encode t);
    flush oc;
    (* the bytes must be on disk before the rename makes them the snapshot *)
    Unix.fsync (Unix.descr_of_out_channel oc);
    close_out oc;
    Sys.rename tmp path
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    Printexc.raise_with_backtrace e bt

let load ~path =
  try
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    decode s
  with Sys_error msg -> Error msg
