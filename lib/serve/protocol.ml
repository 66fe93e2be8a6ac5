(* Binary framing for the online speculation-control service.

   Every frame is [4-byte LE payload length][1-byte tag][payload].  The
   event payload is the packed Trace_store word format verbatim — one
   non-negative 64-bit LE integer per event carrying the taken bit, the
   20-bit instruction delta and the branch id — batched in frames of at
   most [max_frame_words] (= one Trace_store chunk), so the server hands
   a decoded frame to Reactive.step_chunk, the batched simulator's own
   decode.

   Framing errors (unknown tag, oversized or mis-sized payload, a word
   whose sign bit is set — the negative-delta corruption the trace store
   rejects at pack time) raise [Error] from the decoder: once framing is
   in doubt the connection cannot be resynchronised, so the server
   replies with a protocol error and closes it.  Semantic validation
   that needs server state (branch ids in range) lives in the server. *)

let version = 1
let max_frame_words = 32768
let header_bytes = 5
let max_request_payload = max_frame_words * 8

(* Replies can carry a whole state snapshot, which scales with the
   branch population rather than the frame cap. *)
let max_reply_payload = 1 lsl 26

exception Error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

type request =
  | Events of int array * int
  | Query of int
  | Flush
  | Stats
  | Snapshot
  | Shutdown

type reply =
  | Ack of int
  | Decision of int
  | Stats_reply of string
  | Snapshot_reply of string
  | Error_reply of string

(* Frame tags.  Requests and replies share one byte space so a peer
   reading the wrong direction fails loudly instead of misparsing. *)
let t_events = 0x01
let t_query = 0x02
let t_flush = 0x03
let t_stats = 0x04
let t_snapshot = 0x05
let t_shutdown = 0x06
let t_ack = 0x81
let t_decision = 0x82
let t_stats_reply = 0x83
let t_snapshot_reply = 0x84
let t_error = 0xff

let frame tag payload_len fill =
  let b = Bytes.create (header_bytes + payload_len) in
  Bytes.set_int32_le b 0 (Int32.of_int payload_len);
  Bytes.set_uint8 b 4 tag;
  fill b header_bytes;
  b

let put_int b off v = Bytes.set_int64_le b off (Int64.of_int v)

let encode_events b words off len =
  if len <= 0 || len > max_frame_words then
    invalid_arg "Protocol.encode_request: events frame must carry 1..32768 words";
  Bytes.set_int32_le b 0 (Int32.of_int (len * 8));
  Bytes.set_uint8 b 4 t_events;
  for i = 0 to len - 1 do
    let w = words.(off + i) in
    if w < 0 then invalid_arg "Protocol.encode_request: packed event word is negative";
    put_int b (header_bytes + (i * 8)) w
  done;
  header_bytes + (len * 8)

let encode_request = function
  | Events (words, len) ->
    let b = Bytes.create (header_bytes + (8 * Int.max 0 (Int.min len max_frame_words))) in
    ignore (encode_events b words 0 len);
    b
  | Query branch ->
    if branch < 0 then invalid_arg "Protocol.encode_request: branch id is negative";
    frame t_query 8 (fun b off -> put_int b off branch)
  | Flush -> frame t_flush 0 (fun _ _ -> ())
  | Stats -> frame t_stats 0 (fun _ _ -> ())
  | Snapshot -> frame t_snapshot 0 (fun _ _ -> ())
  | Shutdown -> frame t_shutdown 0 (fun _ _ -> ())

let string_frame tag s =
  frame tag (String.length s) (fun b off -> Bytes.blit_string s 0 b off (String.length s))

let encode_reply = function
  | Ack n -> frame t_ack 8 (fun b off -> put_int b off n)
  | Decision code -> frame t_decision 1 (fun b off -> Bytes.set_uint8 b off (code land 3))
  | Stats_reply s -> string_frame t_stats_reply s
  | Snapshot_reply s -> string_frame t_snapshot_reply s
  | Error_reply s -> string_frame t_error s

(* ---------------------------------------------------------------------- *)
(* Incremental decoding                                                    *)
(* ---------------------------------------------------------------------- *)

type decoder = {
  mutable buf : Bytes.t;
  mutable start : int;
  mutable len : int;
  mutable words : int array;  (* decoded events payloads; allocated lazily *)
}

let decoder () = { buf = Bytes.create 65536; start = 0; len = 0; words = [||] }
let pending d = d.len

let feed d src off len =
  if len < 0 || off < 0 || off + len > Bytes.length src then
    invalid_arg "Protocol.feed: invalid slice";
  (* Compact, then grow if the tail still does not fit. *)
  if d.start > 0 then begin
    Bytes.blit d.buf d.start d.buf 0 d.len;
    d.start <- 0
  end;
  if d.len + len > Bytes.length d.buf then begin
    let grown = Bytes.create (max (2 * Bytes.length d.buf) (d.len + len)) in
    Bytes.blit d.buf 0 grown 0 d.len;
    d.buf <- grown
  end;
  Bytes.blit src off d.buf d.len len;
  d.len <- d.len + len

let get_int b off =
  let v = Bytes.get_int64_le b off in
  (* Sign bit or bit 62 set: negative, or above [max_int]. *)
  if Int64.shift_right_logical v 62 <> 0L then
    fail "frame integer out of range (sign or high bits set)";
  Int64.to_int v

(* Parse one complete frame if the buffer holds it; [None] means feed
   more bytes.  The payload bound is direction-specific. *)
let next_frame d ~max_payload =
  if d.len < header_bytes then None
  else begin
    let plen = Int32.to_int (Bytes.get_int32_le d.buf d.start) in
    let tag = Bytes.get_uint8 d.buf (d.start + 4) in
    if plen < 0 || plen > max_payload then
      fail "frame payload length %d exceeds the %d-byte limit" plen max_payload;
    if d.len < header_bytes + plen then None
    else begin
      let off = d.start + header_bytes in
      d.start <- d.start + header_bytes + plen;
      d.len <- d.len - header_bytes - plen;
      Some (tag, off, plen)
    end
  end

let payload_string d off plen = Bytes.sub_string d.buf off plen

let next_request d =
  match next_frame d ~max_payload:max_request_payload with
  | None -> None
  | Some (tag, off, plen) ->
    let expect_len n what = if plen <> n then fail "%s frame payload must be %d bytes" what n in
    if tag = t_events then begin
      if plen = 0 || plen land 7 <> 0 then
        fail "events frame payload must be a non-empty multiple of 8 bytes";
      if Array.length d.words = 0 then d.words <- Array.make max_frame_words 0;
      let n = plen lsr 3 in
      for i = 0 to n - 1 do
        d.words.(i) <- get_int d.buf (off + (i * 8))
      done;
      Some (Events (d.words, n))
    end
    else if tag = t_query then begin
      expect_len 8 "query";
      Some (Query (get_int d.buf off))
    end
    else if tag = t_flush then begin
      expect_len 0 "flush";
      Some Flush
    end
    else if tag = t_stats then begin
      expect_len 0 "stats";
      Some Stats
    end
    else if tag = t_snapshot then begin
      expect_len 0 "snapshot";
      Some Snapshot
    end
    else if tag = t_shutdown then begin
      expect_len 0 "shutdown";
      Some Shutdown
    end
    else fail "unknown request tag 0x%02x" tag

let next_reply d =
  match next_frame d ~max_payload:max_reply_payload with
  | None -> None
  | Some (tag, off, plen) ->
    if tag = t_ack then begin
      if plen <> 8 then fail "ack frame payload must be 8 bytes";
      Some (Ack (get_int d.buf off))
    end
    else if tag = t_decision then begin
      if plen <> 1 then fail "decision frame payload must be 1 byte";
      Some (Decision (Bytes.get_uint8 d.buf off land 3))
    end
    else if tag = t_stats_reply then Some (Stats_reply (payload_string d off plen))
    else if tag = t_snapshot_reply then Some (Snapshot_reply (payload_string d off plen))
    else if tag = t_error then Some (Error_reply (payload_string d off plen))
    else fail "unknown reply tag 0x%02x" tag
