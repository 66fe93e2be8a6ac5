(* The online service: wire-protocol round-trips, decisions and state
   against a plain controller fed the same stream, snapshot/restore
   byte-identity, protocol-error isolation between clients, and chaos
   under injected serve.* faults. *)

module Proto = Rs_serve.Protocol
module Server = Rs_serve.Server
module Client = Rs_serve.Client
module R = Rs_core.Reactive
module Reference = Rs_sim.Reference
module P = Rs_core.Params
module TS = Rs_behavior.Trace_store
module Fault = Rs_fault.Fault

(* Small parameters so state transitions happen within a few thousand
   events (same shape as the reactive-controller tests). *)
let tiny =
  {
    P.default with
    monitor_period = 10;
    selection_threshold = 0.9;
    evict_threshold = 100;
    misspec_step = 50;
    correct_step = 1;
    wait_period = 50;
    oscillation_limit = 3;
    optimization_latency = 0;
  }

let pack ~branch ~taken ~delta = (branch lsl 21) lor (delta lsl 1) lor (if taken then 1 else 0)

(* A deterministic synthetic stream with per-branch biases spread from
   strongly-taken through unbiased, so selections, evictions and
   declared-unbiased arcs all fire. *)
let synth_words ~seed ~n_branches ~n =
  let st = Random.State.make [| seed |] in
  Array.init n (fun _ ->
      let branch = Random.State.int st n_branches in
      let bias = 0.5 +. (0.5 *. float_of_int branch /. float_of_int n_branches) in
      let taken = Random.State.float st 1.0 < bias in
      let delta = 1 + Random.State.int st 7 in
      pack ~branch ~taken ~delta)

(* Ground truth: the reference FSM observing the same stream; its
   decisions as 2-bit codes (bit 0 speculate, bit 1 direction). *)
let reference_codes ~params ~n_branches words =
  let c = Reference.create ~n_branches params in
  let instr = ref 0 in
  Array.iter
    (fun w ->
      instr := !instr + TS.packed_delta w;
      Reference.observe c ~branch:(TS.packed_branch w) ~taken:(TS.packed_taken w) ~instr:!instr)
    words;
  Array.init n_branches (fun b ->
      let d = Reference.deployed c b in
      Bool.to_int d.speculate lor (Bool.to_int d.direction lsl 1))

(* --- in-process servers -------------------------------------------------- *)

(* Single-connection server over a socketpair (the Fd_pair transport the
   tests exist for); the server runs in its own domain. *)
let with_fd_server ?snapshot_path ~params ~n_branches f =
  let srv_fd, cli_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let dom =
    Domain.spawn (fun () ->
        Server.run
          { params; n_branches; transport = Fd_pair (srv_fd, srv_fd); snapshot_path })
  in
  let c = Client.of_fd cli_fd in
  let result =
    Fun.protect
      ~finally:(fun () ->
        (try ignore (Client.shutdown c) with _ -> ());
        Client.close c;
        Domain.join dom)
      (fun () -> f c)
  in
  result

(* Listening server on a temp socket path, for multi-client tests. *)
let with_socket_server ~params ~n_branches f =
  let path = Filename.temp_file "rs_serve_test" ".sock" in
  Sys.remove path;
  let dom =
    Domain.spawn (fun () ->
        Server.run { params; n_branches; transport = Unix_socket path; snapshot_path = None })
  in
  let rec wait n =
    if not (Sys.file_exists path) then
      if n = 0 then failwith "server socket never appeared"
      else begin
        Unix.sleepf 0.01;
        wait (n - 1)
      end
  in
  wait 500;
  Fun.protect
    ~finally:(fun () ->
      (try
         let c = Client.connect path in
         (try ignore (Client.shutdown c) with _ -> ());
         Client.close c
       with _ -> ());
      Domain.join dom;
      if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let query_codes c n_branches =
  Array.init n_branches (fun b ->
      match Client.query c b with
      | Ok code -> code
      | Error msg -> Alcotest.failf "query %d: %s" b msg)

(* --- protocol ------------------------------------------------------------ *)

let request_eq (a : Proto.request) (b : Proto.request) =
  match (a, b) with
  | Events (x, n), Events (y, m) -> n = m && Array.sub x 0 n = Array.sub y 0 m
  | x, y -> x = y

(* A decoded events frame lives in the decoder's own array until the
   next request; keep a copy. *)
let own (r : Proto.request) =
  match r with Events (w, n) -> Proto.Events (Array.sub w 0 n, n) | r -> r

let gen_request =
  QCheck.Gen.(
    frequency
      [
        ( 4,
          (* a prefix of the array, sometimes shorter than it *)
          map2
            (fun ws pad -> Proto.Events (Array.of_list (ws @ pad), List.length ws))
            (list_size (int_range 1 200)
               (map2
                  (fun w taken -> (w land ((1 lsl 40) - 1) * 2) lor Bool.to_int taken)
                  (int_bound max_int) bool))
            (list_size (int_range 0 3) (int_bound max_int)) );
        (2, map (fun b -> Proto.Query b) (int_bound 1_000_000));
        (1, return Proto.Flush);
        (1, return Proto.Stats);
        (1, return Proto.Snapshot);
        (1, return Proto.Shutdown);
      ])

let qcheck_protocol_roundtrip =
  QCheck.Test.make ~name:"protocol request round-trip through sliced feeds" ~count:100
    QCheck.(
      pair (make ~print:(fun l -> string_of_int (List.length l)) (Gen.list_size (Gen.int_range 1 8) gen_request)) (int_range 1 64))
    (fun (reqs, slice) ->
      let buf = Buffer.create 256 in
      List.iter (fun r -> Buffer.add_bytes buf (Proto.encode_request r)) reqs;
      let bytes = Buffer.to_bytes buf in
      let dec = Proto.decoder () in
      let out = ref [] in
      let n = Bytes.length bytes in
      let off = ref 0 in
      while !off < n do
        let len = min slice (n - !off) in
        Proto.feed dec bytes !off len;
        off := !off + len;
        let rec drain () =
          match Proto.next_request dec with
          | Some r ->
            out := own r :: !out;
            drain ()
          | None -> ()
        in
        drain ()
      done;
      Proto.pending dec = 0 && List.for_all2 request_eq reqs (List.rev !out))

let gen_reply =
  QCheck.Gen.(
    oneof
      [
        map (fun n -> Proto.Ack n) nat;
        map (fun c -> Proto.Decision c) (int_bound 3);
        map (fun s -> Proto.Stats_reply s) (string_size (int_range 0 40));
        map (fun s -> Proto.Snapshot_reply s) (string_size (int_range 0 40));
        map (fun s -> Proto.Error_reply s) (string_size (int_range 0 40));
      ])

(* Hostile input: arbitrary bytes, or valid request and reply frames
   (events frames among them) with a few bytes overwritten. *)
let gen_hostile =
  QCheck.Gen.(
    let frames =
      list_size (int_range 1 4)
        (oneof
           [
             map Proto.encode_request gen_request;
             map Proto.encode_reply gen_reply;
           ])
    in
    let mutate frames muts =
      let b = Bytes.concat Bytes.empty frames in
      List.iter (fun (pos, c) -> Bytes.set b (pos mod Bytes.length b) c) muts;
      b
    in
    frequency
      [
        (1, map Bytes.of_string (string_size (int_range 0 512)));
        (3, map2 mutate frames (list_size (int_range 0 4) (pair nat char)));
      ])

(* Feed [bytes] in [slice]-byte pieces, draining after each, as a peer
   would.  The decoder may only yield frames or raise [Protocol.Error];
   a drain stops within [pending / header_bytes] frames (each consumes
   a header at least), and the buffer never outgrows one maximal frame
   plus the slice. *)
let decoder_survives ~reply bytes slice =
  let dec = Proto.decoder () in
  let max_payload = if reply then Proto.max_reply_payload else Proto.max_request_payload in
  let next () =
    if reply then Option.is_some (Proto.next_reply dec)
    else
      match Proto.next_request dec with
      | Some (Events (w, len)) ->
        if len < 1 || len > Proto.max_frame_words || len > Array.length w then
          failwith "events length out of range";
        for i = 0 to len - 1 do
          if w.(i) < 0 then failwith "negative event word decoded"
        done;
        true
      | Some _ -> true
      | None -> false
  in
  let n = Bytes.length bytes in
  let rec go off =
    off >= n
    ||
    let len = min slice (n - off) in
    Proto.feed dec bytes off len;
    Proto.pending dec <= max_payload + Proto.header_bytes + slice
    &&
    let budget = ref (Proto.pending dec / Proto.header_bytes) in
    while next () do
      decr budget;
      if !budget < 0 then failwith "drain does not terminate"
    done;
    go (off + len)
  in
  try go 0 with Proto.Error _ -> true

let qcheck_decoder_fuzz =
  QCheck.Test.make ~name:"decoder fuzz: frames or Protocol.Error, bounded" ~count:500
    QCheck.(
      pair
        (make ~print:(fun b -> String.escaped (Bytes.to_string b)) gen_hostile)
        (* no shrinker: shrinking the slice of a failing case takes minutes *)
        (make ~print:string_of_int Gen.(int_range 1 300)))
    (fun (bytes, slice) ->
      decoder_survives ~reply:false bytes slice && decoder_survives ~reply:true bytes slice)

let test_reply_roundtrip () =
  let replies =
    [
      Proto.Ack 0;
      Proto.Ack max_int;
      Proto.Decision 3;
      Proto.Stats_reply "{\"x\":1}";
      Proto.Snapshot_reply (String.init 999 (fun i -> Char.chr (i land 0xff)));
      Proto.Error_reply "nope";
    ]
  in
  let dec = Proto.decoder () in
  List.iter
    (fun r ->
      let b = Proto.encode_reply r in
      Proto.feed dec b 0 (Bytes.length b))
    replies;
  List.iter
    (fun expected ->
      match Proto.next_reply dec with
      | Some got -> Alcotest.(check bool) "reply round-trips" true (got = expected)
      | None -> Alcotest.fail "reply missing")
    replies;
  Alcotest.(check int) "decoder drained" 0 (Proto.pending dec)

let test_protocol_rejects () =
  Alcotest.check_raises "empty events"
    (Invalid_argument "Protocol.encode_request: events frame must carry 1..32768 words")
    (fun () -> ignore (Proto.encode_request (Events ([||], 0))));
  let dec = Proto.decoder () in
  let b = Bytes.create Proto.header_bytes in
  Bytes.set_int32_le b 0 0l;
  Bytes.set b 4 '\x7f';
  Proto.feed dec b 0 Proto.header_bytes;
  (match Proto.next_request dec with
  | exception Proto.Error _ -> ()
  | _ -> Alcotest.fail "unknown tag must raise");
  (* a negative (sign-bit) event word is the wire image of the
     negative-delta corruption Trace_store.record rejects *)
  let dec = Proto.decoder () in
  let b = Bytes.create (Proto.header_bytes + 8) in
  Bytes.set_int32_le b 0 8l;
  Bytes.set b 4 '\x01';
  Bytes.set_int64_le b 5 Int64.min_int;
  Proto.feed dec b 0 (Bytes.length b);
  match Proto.next_request dec with
  | exception Proto.Error _ -> ()
  | _ -> Alcotest.fail "negative event word must raise"

(* --- a plain controller ---------------------------------------------------- *)

(* A plain controller fed the same stream event by event through
   [Reactive.observe]: the state words the server's must equal. *)
let plain_words ~params ~n_branches words =
  let c = R.create ~n_branches params in
  let instr = ref 0 in
  Array.iter
    (fun w ->
      instr := !instr + TS.packed_delta w;
      R.observe c ~branch:(TS.packed_branch w) ~taken:(TS.packed_taken w) ~instr:!instr)
    words;
  R.export_words c

let decode_snapshot s =
  match Rs_serve.Snapshot.decode s with
  | Ok snap -> snap
  | Error msg -> Alcotest.failf "snapshot decode: %s" msg

let test_matches_plain_controller () =
  List.iter
    (fun n_branches ->
      let words = synth_words ~seed:42 ~n_branches ~n:60_000 in
      with_fd_server ~params:tiny ~n_branches (fun c ->
          Client.send_events c words;
          Alcotest.(check int)
            (Printf.sprintf "all events applied at %d branches" n_branches)
            (Array.length words) (Client.flush c);
          Alcotest.(check (array int))
            (Printf.sprintf "decisions at %d branches match the reference" n_branches)
            (reference_codes ~params:tiny ~n_branches words)
            (query_codes c n_branches);
          Alcotest.(check (array int))
            (Printf.sprintf "state at %d branches matches a plain controller" n_branches)
            (plain_words ~params:tiny ~n_branches words)
            (decode_snapshot (Client.snapshot c)).words))
    [ 17; 1; 40 ]

(* Requests are handled in arrival order: a query sent right behind an
   events frame, with no flush between them, sees that frame applied. *)
let test_query_sees_preceding_frame () =
  let n_branches = 7 in
  let words = synth_words ~seed:21 ~n_branches ~n:4_000 in
  let changes = ref 0 in
  with_fd_server ~params:tiny ~n_branches (fun c ->
      let before = ref (query_codes c n_branches) in
      for f = 0 to 39 do
        Client.send_events c (Array.sub words (f * 100) 100);
        let prefix = Array.sub words 0 ((f + 1) * 100) in
        let expected = reference_codes ~params:tiny ~n_branches prefix in
        if expected <> !before then incr changes;
        before := query_codes c n_branches;
        Alcotest.(check (array int))
          (Printf.sprintf "decisions right after frame %d" f)
          expected !before
      done);
  Alcotest.(check bool) "some frame changed a decision" true (!changes > 0)

(* --- snapshot/restore ---------------------------------------------------- *)

let test_snapshot_restore_identity () =
  let n_branches = 11 in
  let words = synth_words ~seed:7 ~n_branches ~n:50_000 in
  let cut = 23_456 in
  let prefix = Array.sub words 0 cut in
  let suffix = Array.sub words cut (Array.length words - cut) in
  (* one shot: the whole stream, snapshot at the end *)
  let full_snap, full_codes =
    with_fd_server ~params:tiny ~n_branches (fun c ->
        Client.send_events c words;
        ignore (Client.flush c);
        (Client.snapshot c, query_codes c n_branches))
  in
  (* two shots: prefix, snapshot to disk, restore, suffix *)
  let path = Filename.temp_file "rs_serve_snap" ".bin" in
  (* temp_file creates an empty file; the first server must start fresh,
     not try to restore it *)
  Sys.remove path;
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) @@ fun () ->
  with_fd_server ~params:tiny ~n_branches ~snapshot_path:path (fun c ->
      Client.send_events c prefix;
      ignore (Client.flush c);
      ignore (Client.snapshot c));
  let resumed_snap, resumed_codes =
    with_fd_server ~params:tiny ~n_branches ~snapshot_path:path (fun c ->
        Client.send_events c suffix;
        ignore (Client.flush c);
        (Client.snapshot c, query_codes c n_branches))
  in
  Alcotest.(check bool) "snapshot bytes identical after restore+replay" true
    (String.equal full_snap resumed_snap);
  Alcotest.(check (array int)) "decisions identical after restore+replay" full_codes resumed_codes;
  (* the snapshot codec itself round-trips *)
  let snap = decode_snapshot full_snap in
  Alcotest.(check int) "snapshot records the event count" (Array.length words)
    snap.Rs_serve.Snapshot.events;
  Alcotest.(check int) "the cursor is the stream position"
    (Array.fold_left (fun acc w -> acc + TS.packed_delta w) 0 words)
    snap.words.(0);
  Alcotest.(check bool) "snapshot re-encodes to the same bytes" true
    (String.equal full_snap (Rs_serve.Snapshot.encode snap))

(* FNV-1a 64 of [s] without its last 8 bytes, written over them: what a
   forger does to make a changed snapshot pass its checksum. *)
let reseal s =
  let n = String.length s - 8 in
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to n - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code s.[i]))) 0x100000001b3L
  done;
  let b = Bytes.of_string s in
  Bytes.set_int64_le b n !h;
  Bytes.to_string b

(* A version-1 snapshot as the sharded server wrote it: branches,
   shards, events and stream position, then a length-prefixed state
   table per shard (here two empty ones). *)
let v1_snapshot ~n_branches =
  let b = Bytes.create (8 + (8 * 6)) in
  Bytes.blit_string "RSSV" 0 b 0 4;
  Bytes.set_int32_le b 4 1l;
  List.iteri
    (fun i v -> Bytes.set_int64_le b (8 + (8 * i)) (Int64.of_int v))
    [ n_branches; 2; 0; 0; 0; 0 ];
  Bytes.to_string b

let test_snapshot_codec_validation () =
  let snap = { Rs_serve.Snapshot.n_branches = 4; events = 0; words = [| min_int; 0; 0 |] } in
  let s = Rs_serve.Snapshot.encode snap in
  Alcotest.(check bool) "well-formed snapshot round-trips" true
    (Rs_serve.Snapshot.decode s = Ok snap);
  Alcotest.(check bool) "the checksum is FNV-1a 64 of the bytes before it" true
    (String.equal s (reseal s));
  (match Rs_serve.Snapshot.decode (String.sub s 0 (String.length s - 3)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated snapshot must be rejected");
  (* a word count larger than the bytes hold is refused before anything
     is sized by it, checksum or not *)
  let forged = Bytes.of_string s in
  Bytes.set_int64_le forged 24 (Int64.shift_left 1L 40);
  match Rs_serve.Snapshot.decode (reseal (Bytes.to_string forged)) with
  | Error msg ->
    Alcotest.(check string) "forged word count" "snapshot length disagrees with its word count" msg
  | Ok _ -> Alcotest.fail "forged word count must be rejected"

let test_snapshot_save_failure_cleans_up () =
  let snap = { Rs_serve.Snapshot.n_branches = 4; events = 0; words = [| min_int |] } in
  (* a directory at [path] makes the final rename fail *)
  let path = Filename.temp_file "rs_serve_snapdir" "" in
  Sys.remove path;
  Sys.mkdir path 0o700;
  Fun.protect ~finally:(fun () -> Sys.rmdir path) @@ fun () ->
  (match Rs_serve.Snapshot.save ~path snap with
  | () -> Alcotest.fail "saving over a directory must raise"
  | exception Sys_error _ -> ());
  Alcotest.(check bool) "no .tmp left behind" false (Sys.file_exists (path ^ ".tmp"))

(* Mutated snapshots, resealed so the checksum holds: decoding fails,
   or restore's checks (branch count, then [Reactive.import_words])
   refuse the state, or the words pass [validate_words] and import
   exactly — a mutation never installs a state the controller could not
   reach.  Most mutations overwrite a word with a small value, so many
   decode and reach the validation. *)
let fuzz_n_branches = 5

let fuzz_base =
  lazy
    (with_fd_server ~params:tiny ~n_branches:fuzz_n_branches (fun c ->
         Client.send_events c (synth_words ~seed:9 ~n_branches:fuzz_n_branches ~n:3_000);
         ignore (Client.flush c);
         Client.snapshot c))

let mutate base seed =
  let st = Random.State.make [| seed |] in
  let b = Bytes.of_string base and len = ref (String.length base) in
  for _ = 0 to Random.State.int st 3 do
    match Random.State.int st 10 with
    | 0 -> len := Random.State.int st !len
    | 1 ->
      let i = Random.State.int st !len in
      Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor (1 lsl Random.State.int st 8))
    | _ ->
      (* one 64-bit word past the 8-byte preamble *)
      if !len >= 16 then
        Bytes.set_int64_le b
          (8 + (8 * Random.State.int st ((!len - 8) / 8)))
          (Int64.of_int (Random.State.int st 140 - 20))
  done;
  let s = Bytes.sub_string b 0 !len in
  if !len >= 8 then reseal s else s

let qcheck_snapshot_decode_fuzz =
  QCheck.Test.make ~name:"snapshot fuzz: decode error, refused, or valid words" ~count:500
    QCheck.(int_bound 0x3FFFFFFF)
    (fun seed ->
      match Rs_serve.Snapshot.decode (mutate (Lazy.force fuzz_base) seed) with
      | Error _ -> true
      | Ok snap when snap.n_branches <> fuzz_n_branches -> true
      | Ok snap -> (
        let c = R.create ~n_branches:fuzz_n_branches tiny in
        match R.import_words c snap.words with
        | exception Invalid_argument _ -> true
        | () -> R.validate_words c snap.words = Ok () && R.export_words c = snap.words))

(* Start a server restoring [snap_bytes] and return its refusal. *)
let restore_refusal snap_bytes =
  let path = Filename.temp_file "rs_serve_refused" ".bin" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Out_channel.with_open_bin path (fun oc -> output_string oc snap_bytes);
  let srv_fd, cli_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* with its peer gone, a server that did restore stops at once *)
  Unix.close cli_fd;
  Fun.protect ~finally:(fun () -> Unix.close srv_fd) @@ fun () ->
  match
    Server.run
      {
        params = tiny;
        n_branches = fuzz_n_branches;
        transport = Fd_pair (srv_fd, srv_fd);
        snapshot_path = Some path;
      }
  with
  | () -> Alcotest.fail "the snapshot was restored"
  | exception Failure msg ->
    let prefix = Printf.sprintf "serve: cannot restore snapshot %s: " path in
    Alcotest.(check bool) ("refused: " ^ msg) true (String.starts_with ~prefix msg);
    String.sub msg (String.length prefix) (String.length msg - String.length prefix)

(* A snapshot holding a state the machine can never reach — a branch
   biased and speculating that was never selected — is refused at
   startup, never installed. *)
let test_restore_refuses_forged_state () =
  let snap = decode_snapshot (Lazy.force fuzz_base) in
  (* branch 0: control word biased + deployed speculate, selection and
     eviction counts zero *)
  let words = Array.copy snap.words in
  words.(1) <- 1 lor (1 lsl 3);
  words.(7) <- 0;
  words.(8) <- 0;
  ignore (restore_refusal (Rs_serve.Snapshot.encode { snap with words }) : string)

(* Every single flipped byte is refused by the checksum, even one inside
   a state word that [validate_words] accepts; a version-1 snapshot is
   refused by its version. *)
let test_restore_refuses_flipped_byte_and_v1 () =
  let base = Lazy.force fuzz_base in
  let words = (decode_snapshot base).words in
  let c = R.create ~n_branches:fuzz_n_branches tiny in
  let flipped k =
    let w = Array.copy words in
    w.(k) <- w.(k) lxor 1;
    w
  in
  let k =
    match List.find_opt (fun k -> R.validate_words c (flipped k) = Ok ()) (List.init 40 succ) with
    | Some k -> k
    | None -> Alcotest.fail "no state word accepts a flipped low bit"
  in
  let b = Bytes.of_string base in
  let off = 8 + (8 * (3 + k)) in
  Bytes.set_uint8 b off (Bytes.get_uint8 b off lxor 1);
  Alcotest.(check string) "flipped byte in a valid state word" "snapshot checksum mismatch"
    (restore_refusal (Bytes.to_string b));
  String.iteri
    (fun i ch ->
      let b = Bytes.of_string base in
      Bytes.set b i (Char.chr (Char.code ch lxor 0x10));
      match Rs_serve.Snapshot.decode (Bytes.to_string b) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "a flipped byte at %d decoded" i)
    base;
  Alcotest.(check string) "version-1 snapshot" "snapshot version 1 unsupported (expected 2)"
    (restore_refusal (v1_snapshot ~n_branches:fuzz_n_branches))

(* --- protocol errors and client isolation -------------------------------- *)

(* Send one raw frame and read until the server closes the connection;
   the replies it sent first. *)
let replies_until_closed path frame =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX path);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
  ignore (Unix.write fd frame 0 (Bytes.length frame));
  let dec = Proto.decoder () and buf = Bytes.create 4096 in
  let rec read () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> ()
    | n ->
      Proto.feed dec buf 0 n;
      read ()
  in
  read ();
  let rec replies acc =
    match Proto.next_reply dec with Some r -> replies (r :: acc) | None -> List.rev acc
  in
  replies []

let test_bad_client_isolated () =
  let n_branches = 9 in
  let words = synth_words ~seed:3 ~n_branches ~n:20_000 in
  let cut = 12_345 in
  let reference = reference_codes ~params:tiny ~n_branches words in
  with_socket_server ~params:tiny ~n_branches (fun path ->
      let good = Client.connect path in
      Fun.protect ~finally:(fun () -> Client.close good) @@ fun () ->
      Client.send_events good (Array.sub words 0 cut);
      Alcotest.(check int) "good client flushed" cut (Client.flush good);
      (* many valid words, then a bad branch id in the last word: the
         error reply and a closed connection, every time *)
      let valid = synth_words ~seed:5 ~n_branches ~n:30_000 in
      let frame = Array.append valid [| pack ~branch:(n_branches + 5) ~taken:true ~delta:1 |] in
      for _ = 1 to 4 do
        match replies_until_closed path (Proto.encode_request (Events (frame, 30_001))) with
        | [ Proto.Error_reply msg ] ->
          Alcotest.(check string) "error names the bad word"
            "events frame word 30000: branch 14 out of range [0,9) (corrupt or non-monotone \
             encoding)"
            msg
        | _ -> Alcotest.fail "a bad events frame must get one error reply, then a close"
      done;
      (* a client shipping an events frame with an out-of-range branch
         gets an error reply and a closed connection — and no state
         changes *)
      let bad = Client.connect path in
      Client.send_events bad [| pack ~branch:(n_branches + 5) ~taken:true ~delta:1 |];
      (match
         try `Reply (Client.flush bad) with Failure _ | Unix.Unix_error _ -> `Closed
       with
      | `Closed -> ()
      | `Reply _ -> Alcotest.fail "malformed events frame must close the connection");
      Client.close bad;
      (* a client dying mid-frame (partial header) is just a disconnect *)
      let dying = Client.connect path in
      let junk = Bytes.of_string "\x08\x00" in
      ignore (Unix.write (Client.fd dying) junk 0 (Bytes.length junk));
      Client.close dying;
      (* the good client's connection and the server state are intact *)
      Client.send_events good (Array.sub words cut (Array.length words - cut));
      Alcotest.(check int) "no events leaked from bad clients" (Array.length words)
        (Client.flush good);
      Alcotest.(check (array int)) "decisions unchanged" reference (query_codes good n_branches))

(* A frame with a bad word after valid ones, at a nonzero stream
   position, changes nothing: not a decision, not a state word, not the
   next flush's count. *)
let test_bad_frame_changes_nothing () =
  let n_branches = 9 in
  with_socket_server ~params:tiny ~n_branches (fun path ->
      let good = Client.connect path in
      Fun.protect ~finally:(fun () -> Client.close good) @@ fun () ->
      Client.send_events good (synth_words ~seed:3 ~n_branches ~n:12_345);
      let flushed = Client.flush good in
      let codes = query_codes good n_branches and snap = Client.snapshot good in
      let frame =
        Array.append
          (synth_words ~seed:5 ~n_branches ~n:30_000)
          [| pack ~branch:(n_branches + 5) ~taken:true ~delta:1 |]
      in
      (match replies_until_closed path (Proto.encode_request (Events (frame, 30_001))) with
      | [ Proto.Error_reply _ ] -> ()
      | _ -> Alcotest.fail "a bad events frame must get one error reply, then a close");
      Alcotest.(check int) "next flush acknowledges the same count" flushed (Client.flush good);
      Alcotest.(check (array int)) "decisions unchanged" codes (query_codes good n_branches);
      Alcotest.(check bool) "state words unchanged" true (String.equal snap (Client.snapshot good)))

let test_query_error_keeps_connection () =
  with_fd_server ~params:tiny ~n_branches:5 (fun c ->
      (match Client.query c 99 with
      | Error msg ->
        Alcotest.(check bool) "error names the range" true
          (String.length msg > 0 && String.index_opt msg '9' <> None)
      | Ok _ -> Alcotest.fail "out-of-range query must be an error");
      (* the same connection still answers *)
      match Client.query c 0 with
      | Ok code -> Alcotest.(check bool) "code is 2-bit" true (code >= 0 && code < 4)
      | Error msg -> Alcotest.failf "in-range query after error: %s" msg)

(* --- chaos ---------------------------------------------------------------- *)

(* An integer field of the server's flat STATS document. *)
let stats_int json key =
  let pat = Printf.sprintf "\"%s\":" key in
  let rec find i =
    if String.sub json i (String.length pat) = pat then i + String.length pat else find (i + 1)
  in
  Scanf.sscanf (String.sub json (find 0) 20) "%d" Fun.id

(* No event dropped or applied twice: the flush counts every event,
   this process stepped each once, and the state words are those of a
   plain controller fed the stream once. *)
let check_exactly_once c ~n_branches words =
  Alcotest.(check int) "flush counts every event" (Array.length words) (Client.flush c);
  let stats = Client.stats c in
  Alcotest.(check int) "every event stepped once" (Array.length words) (stats_int stats "applied");
  Alcotest.(check (array int)) "state words match a plain controller"
    (plain_words ~params:tiny ~n_branches words)
    (decode_snapshot (Client.snapshot c)).words;
  Alcotest.(check (array int)) "decisions match the reference"
    (reference_codes ~params:tiny ~n_branches words)
    (query_codes c n_branches);
  stats_int stats "apply_faults"

let with_faults spec f =
  Fun.protect
    ~finally:(fun () ->
      Fault.disable ();
      Fault.reset ())
  @@ fun () ->
  (match Fault.configure_spec spec with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "fault spec: %s" msg);
  f ()

let test_chaos_apply_faults_deterministic () =
  let n_branches = 13 in
  let words = synth_words ~seed:9 ~n_branches ~n:40_000 in
  with_faults
    "seed=11,rate=0.8,max_raises=2,sites=serve.apply,delay=0.3,delay_us=200,delay_sites=serve"
  @@ fun () ->
  with_socket_server ~params:tiny ~n_branches (fun path ->
      (* a client that dies mid-frame while faults fly *)
      let dying = Client.connect path in
      let junk = Bytes.of_string "\xff\x01" in
      (try ignore (Unix.write (Client.fd dying) junk 0 (Bytes.length junk))
       with Unix.Unix_error _ -> ());
      Client.close dying;
      let c = Client.connect path in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      (* frames of 1,000 events, so the plan meets 40 frames *)
      for f = 0 to 39 do
        Client.send_events c (Array.sub words (f * 1000) 1000)
      done;
      let faults = check_exactly_once c ~n_branches words in
      Alcotest.(check bool) "injected apply faults stalled frames" true (faults > 0))

(* Every frame stalls up to 2 ms while the client ships 48 frames: the
   client meets socket backpressure, and no frame is dropped. *)
let test_backpressure_under_apply_delays () =
  let n_branches = 13 in
  let words = synth_words ~seed:12 ~n_branches ~n:48_000 in
  with_faults "seed=5,rate=0,delay=1.0,delay_us=2000,delay_sites=serve.apply" @@ fun () ->
  with_fd_server ~params:tiny ~n_branches (fun c ->
      for f = 0 to 47 do
        Client.send_events c (Array.sub words (f * 1000) 1000)
      done;
      ignore (check_exactly_once c ~n_branches words : int))

let test_read_fault_drops_client_server_survives () =
  let n_branches = 5 in
  with_socket_server ~params:tiny ~n_branches (fun path ->
      Fun.protect
        ~finally:(fun () ->
          Fault.disable ();
          Fault.reset ())
      @@ fun () ->
      (match Fault.configure_spec "seed=4,rate=1.0,max_raises=1,sites=serve.read" with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "fault spec: %s" msg);
      let victim = Client.connect path in
      Client.send_events victim [| pack ~branch:0 ~taken:true ~delta:1 |];
      (match try `Reply (Client.flush victim) with Failure _ | Unix.Unix_error _ -> `Dropped with
      | `Dropped -> ()
      | `Reply _ ->
        (* the injected read fault may have been spent on an earlier
           consult of this connection; dropping is the expected path but
           a surviving flush is not a failure of the server *)
        ());
      Client.close victim;
      Fault.disable ();
      Fault.reset ();
      let c = Client.connect path in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let words = synth_words ~seed:1 ~n_branches ~n:5_000 in
      Client.send_events c words;
      Alcotest.(check bool) "server still ingests after injected read fault" true
        (Client.flush c >= Array.length words))

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_protocol_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_decoder_fuzz;
    Alcotest.test_case "reply round-trip" `Quick test_reply_roundtrip;
    Alcotest.test_case "protocol rejects malformed frames" `Quick test_protocol_rejects;
    Alcotest.test_case "decisions match a plain controller" `Quick test_matches_plain_controller;
    Alcotest.test_case "query sees the frame before it" `Quick test_query_sees_preceding_frame;
    Alcotest.test_case "snapshot/restore byte-identity" `Quick test_snapshot_restore_identity;
    Alcotest.test_case "snapshot codec validation" `Quick test_snapshot_codec_validation;
    Alcotest.test_case "restore refuses a forged controller state" `Quick
      test_restore_refuses_forged_state;
    Alcotest.test_case "restore refuses a flipped byte or version 1" `Quick
      test_restore_refuses_flipped_byte_and_v1;
    QCheck_alcotest.to_alcotest qcheck_snapshot_decode_fuzz;
    Alcotest.test_case "snapshot save failure cleans up" `Quick
      test_snapshot_save_failure_cleans_up;
    Alcotest.test_case "bad client isolated" `Quick test_bad_client_isolated;
    Alcotest.test_case "bad frame changes nothing" `Quick test_bad_frame_changes_nothing;
    Alcotest.test_case "query error keeps connection" `Quick test_query_error_keeps_connection;
    Alcotest.test_case "chaos: apply faults deterministic" `Quick
      test_chaos_apply_faults_deterministic;
    Alcotest.test_case "backpressure under apply delays" `Quick
      test_backpressure_under_apply_delays;
    Alcotest.test_case "chaos: read fault drops client only" `Quick
      test_read_fault_drops_client_server_survives;
  ]
