(* Blocking client for the speculation-control service: encodes
   requests with Protocol, reads replies through the same incremental
   decoder the server uses.  Events frames get no reply, so ingest is
   pipelined at full socket bandwidth; [flush] is the barrier that
   resynchronises.  Each events frame is encoded straight from the
   caller's word array into the client's one buffer, which also takes
   the replies, and written with one [write_all]. *)

type t = {
  fd : Unix.file_descr;
  dec : Protocol.decoder;
  buf : Bytes.t;
  mutable closed : bool;
}

let of_fd fd =
  let buf = Bytes.create (Protocol.header_bytes + Protocol.max_request_payload) in
  { fd; dec = Protocol.decoder (); buf; closed = false }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  of_fd fd

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let fd t = t.fd

let write_all t b n =
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write t.fd b !off (n - !off)
  done

let send t req =
  let b = Protocol.encode_request req in
  write_all t b (Bytes.length b)

let recv t =
  let rec go () =
    match Protocol.next_reply t.dec with
    | Some reply -> reply
    | None -> (
      match Unix.read t.fd t.buf 0 (Bytes.length t.buf) with
      | 0 -> failwith "Client.recv: server closed the connection"
      | n ->
        Protocol.feed t.dec t.buf 0 n;
        go ())
  in
  go ()

let error_to_failure op = function
  | Protocol.Error_reply msg -> failwith (Printf.sprintf "Client.%s: server error: %s" op msg)
  | _ -> failwith (Printf.sprintf "Client.%s: unexpected reply" op)

let send_slice t words off len = write_all t t.buf (Protocol.encode_events t.buf words off len)

let send_events t words =
  let n = Array.length words in
  let off = ref 0 in
  while !off < n do
    let len = min Protocol.max_frame_words (n - !off) in
    send_slice t words !off len;
    off := !off + len
  done

let send_trace t trace =
  Rs_behavior.Trace_store.iter_packed trace (fun chunk len -> if len > 0 then send_slice t chunk 0 len)

let flush t =
  send t Flush;
  match recv t with Ack n -> n | other -> error_to_failure "flush" other

let query t branch =
  send t (Query branch);
  match recv t with
  | Decision code -> Ok code
  | Error_reply msg -> Error msg
  | _ -> failwith "Client.query: unexpected reply"

let stats t =
  send t Stats;
  match recv t with Stats_reply json -> json | other -> error_to_failure "stats" other

let snapshot t =
  send t Snapshot;
  match recv t with Snapshot_reply bytes -> bytes | other -> error_to_failure "snapshot" other

let shutdown t =
  send t Shutdown;
  match recv t with Ack n -> n | other -> error_to_failure "shutdown" other
