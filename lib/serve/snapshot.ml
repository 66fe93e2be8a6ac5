(* Version-tagged snapshot of the whole service state: the events
   ingested plus the controller's exported words, whose first word (the
   cursor) is the stream position.  A server restored from a snapshot
   and fed the remaining event suffix reaches a state byte-identical to
   one that ingested the whole stream — the property the serve tests and
   CI pin.

   Layout (all integers 64-bit LE):

     magic "RSSV" | u32 version | n_branches | events | word count |
     that many words (Rs_core.Reactive.export_words) |
     FNV-1a 64 of every byte before it *)

let magic = "RSSV"
let version = 2

type t = { n_branches : int; events : int; words : int array }

let fail fmt = Printf.ksprintf (fun s -> raise (Failure s)) fmt

let fnv1a s len =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to len - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code s.[i]))) 0x100000001b3L
  done;
  !h

let encode t =
  let n = Array.length t.words in
  let b = Bytes.create (8 + ((4 + n) * 8)) in
  Bytes.blit_string magic 0 b 0 4;
  Bytes.set_int32_le b 4 (Int32.of_int version);
  let put i v = Bytes.set_int64_le b (8 + (8 * i)) (Int64.of_int v) in
  put 0 t.n_branches;
  put 1 t.events;
  put 2 n;
  Array.iteri (fun i w -> put (3 + i) w) t.words;
  let sum = 8 + ((3 + n) * 8) in
  Bytes.set_int64_le b sum (fnv1a (Bytes.unsafe_to_string b) sum);
  Bytes.unsafe_to_string b

let decode s =
  try
    let len = String.length s in
    if len < 8 + (4 * 8) then fail "snapshot truncated";
    if String.sub s 0 4 <> magic then fail "snapshot magic mismatch (not an rspec snapshot)";
    let v = Int32.to_int (String.get_int32_le s 4) in
    if v <> version then fail "snapshot version %d unsupported (expected %d)" v version;
    if String.get_int64_le s (len - 8) <> fnv1a s (len - 8) then fail "snapshot checksum mismatch";
    let get i =
      let v = String.get_int64_le s (8 + (8 * i)) in
      if Int64.compare v (Int64.of_int min_int) < 0 || Int64.compare v (Int64.of_int max_int) > 0
      then fail "snapshot word out of range";
      Int64.to_int v
    in
    let n_branches = get 0 and events = get 1 and n = get 2 in
    if n_branches <= 0 || events < 0 then fail "snapshot header inconsistent";
    if len land 7 <> 0 || n <> ((len - 8) / 8) - 4 then
      fail "snapshot length disagrees with its word count";
    Ok { n_branches; events; words = Array.init n (fun i -> get (3 + i)) }
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
