(* The long-lived speculation-control service.

   One single-threaded I/O loop (select over the listener and every
   client connection) owns one Reactive controller and its score.  An
   events frame is validated in one pass (every branch id in range) and
   only then stepped through [Reactive.step_chunk] straight from the
   decoder's array: the wire word is the Trace_store word the kernel
   decodes, so nothing is demultiplexed or rebased, a bad frame changes
   nothing, and ingest allocates nothing per event.  The score's [instr]
   is the stream position; after a frame it equals the controller's
   cursor, the first of its exported words.

   Ordering: requests are handled one at a time in arrival order, so a
   Query, Flush or Snapshot sees every events frame sent before it
   applied, and Flush is acknowledged at once.

   Fault sites: [serve.accept] (a raise drops the new connection),
   [serve.read] (a raise disconnects the client, exactly like a peer
   dying mid-frame), [serve.apply] (consulted once per events frame
   before it is stepped; a raise stalls the frame, which is retried —
   applied exactly once — so chaos plans perturb timing but never
   results). *)

module Metrics = Rs_obs.Metrics
module Reactive = Rs_core.Reactive

type transport =
  | Unix_socket of string
  | Fd_pair of Unix.file_descr * Unix.file_descr

type config = {
  params : Rs_core.Params.t;
  n_branches : int;
  transport : transport;
  snapshot_path : string option;
}

let m_events = Metrics.counter "serve.events"
let m_frames = Metrics.counter "serve.frames"
let m_queries = Metrics.counter "serve.queries"
let m_connections = Metrics.counter "serve.connections"
let m_disconnects = Metrics.counter "serve.disconnects"
let m_protocol_errors = Metrics.counter "serve.protocol_errors"
let m_apply_faults = Metrics.counter "serve.apply_faults"
let m_accept_faults = Metrics.counter "serve.accept_faults"
let m_read_faults = Metrics.counter "serve.read_faults"

type conn = {
  id : int;
  fd : Unix.file_descr;
  out_fd : Unix.file_descr;
  dec : Protocol.decoder;
  mutable open_ : bool;
}

type state = {
  cfg : config;
  ctrl : Reactive.t;
  score : Reactive.score;  (* [instr] is the stream position *)
  rbuf : Bytes.t;  (* the one read buffer *)
  mutable conns : conn list;
  mutable next_conn : int;
  mutable running : bool;
  mutable events : int;  (* events ingested (incl. restored base) *)
  mutable applied : int;  (* events this process stepped *)
  mutable busy_ns : int;  (* monotonic time spent stepping them *)
  mutable frames : int;
  mutable queries : int;
  mutable protocol_errors : int;
  mutable disconnects : int;
  started : float;
}

let write_all fd b =
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

let trace_event kind fields =
  if Rs_obs.Trace.enabled () then Rs_obs.Trace.emit kind fields

let send_reply conn reply =
  (* The peer may have vanished between request and reply; the read
     side will observe the close and reap the connection. *)
  try write_all conn.out_fd (Protocol.encode_reply reply) with Unix.Unix_error _ -> ()

let disconnect st conn =
  conn.open_ <- false;
  st.conns <- List.filter (fun c -> c.id <> conn.id) st.conns;
  st.disconnects <- st.disconnects + 1;
  Metrics.incr m_disconnects;
  trace_event "serve"
    [ S ("event", "disconnect"); I ("conn", conn.id); I ("midframe_bytes", Protocol.pending conn.dec) ];
  try Unix.close conn.fd with Unix.Unix_error _ -> ()

(* Answer a malformed frame and close: framing cannot be resynchronised. *)
let reject st conn msg =
  st.protocol_errors <- st.protocol_errors + 1;
  Metrics.incr m_protocol_errors;
  send_reply conn (Error_reply msg);
  disconnect st conn

(* ---------------------------------------------------------------------- *)
(* Request handling                                                        *)
(* ---------------------------------------------------------------------- *)

(* Consult the serve.apply fault site, retrying until the plan lets the
   frame through: injected stalls delay application, never drop or
   repeat a frame.  The retry cap only guards against a plan with an
   unlimited raise budget. *)
let apply_gate ~key =
  let rec go n =
    match Rs_obs.Fault_hook.hit ~site:"serve.apply" ~key with
    | () -> ()
    | exception _ ->
      Metrics.incr m_apply_faults;
      if n < 1000 then go (n + 1)
  in
  go 0

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Validate the whole frame, then step it: at a bad word nothing has
   changed and the error message is returned. *)
let ingest st words n =
  let branch i = Rs_behavior.Trace_store.packed_branch (Array.unsafe_get words i) in
  let i = ref 0 in
  while !i < n && branch !i < st.cfg.n_branches do
    incr i
  done;
  if !i < n then
    Some
      (Printf.sprintf
         "events frame word %d: branch %d out of range [0,%d) (corrupt or non-monotone encoding)"
         !i (branch !i) st.cfg.n_branches)
  else begin
    (* keyed by the frame's offset in the stream *)
    apply_gate ~key:(string_of_int st.events);
    let t0 = now_ns () in
    Reactive.step_chunk st.ctrl st.score words n;
    st.busy_ns <- st.busy_ns + (now_ns () - t0);
    st.events <- st.events + n;
    st.applied <- st.applied + n;
    st.frames <- st.frames + 1;
    Metrics.add m_events n;
    Metrics.incr m_frames;
    None
  end

let stats_json st =
  let busy_s = float_of_int st.busy_ns *. 1e-9 in
  let rate = if st.busy_ns = 0 then 0.0 else float_of_int st.applied /. busy_s in
  let gc = Gc.quick_stat () in
  Printf.sprintf
    "{\"version\":%d,\"branches\":%d,\"events\":%d,\"applied\":%d,\"frames\":%d,\"queries\":%d,\"disconnects\":%d,\"protocol_errors\":%d,\"apply_faults\":%d,\"uptime_s\":%.3f,\"busy_s\":%.6f,\"aggregate_rate_eps\":%.1f,\"gc_minor_words\":%.0f,\"gc_major_words\":%.0f,\"gc_major_collections\":%d}"
    Protocol.version st.cfg.n_branches st.events st.applied st.frames st.queries st.disconnects
    st.protocol_errors
    (Metrics.counter_value m_apply_faults)
    (Unix.gettimeofday () -. st.started)
    busy_s rate gc.minor_words gc.major_words gc.major_collections

let handle_request st conn (req : Protocol.request) =
  match req with
  | Events (words, n) -> Option.iter (reject st conn) (ingest st words n)
  | Query branch ->
    st.queries <- st.queries + 1;
    Metrics.incr m_queries;
    if branch < 0 || branch >= st.cfg.n_branches then
      send_reply conn
        (Error_reply (Printf.sprintf "query: branch %d out of range [0,%d)" branch st.cfg.n_branches))
    else send_reply conn (Decision (Reactive.deployed_code st.ctrl branch))
  | Flush -> send_reply conn (Ack st.events)
  | Stats -> send_reply conn (Stats_reply (stats_json st))
  | Snapshot ->
    let snap =
      {
        Snapshot.n_branches = st.cfg.n_branches;
        events = st.events;
        words = Reactive.export_words st.ctrl;
      }
    in
    (match st.cfg.snapshot_path with Some path -> Snapshot.save ~path snap | None -> ());
    send_reply conn (Snapshot_reply (Snapshot.encode snap))
  | Shutdown ->
    send_reply conn (Ack st.events);
    st.running <- false

let handle_readable st conn =
  match Rs_obs.Fault_hook.hit ~site:"serve.read" ~key:(string_of_int conn.id) with
  | exception _ ->
    Metrics.incr m_read_faults;
    disconnect st conn
  | () -> (
    match Unix.read conn.fd st.rbuf 0 (Bytes.length st.rbuf) with
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> disconnect st conn
    | 0 -> disconnect st conn
    | n -> (
      Protocol.feed conn.dec st.rbuf 0 n;
      (* A request may have disconnected the conn or stopped the server;
         stop draining its buffer in either case. *)
      let rec serve_buffered () =
        match Protocol.next_request conn.dec with
        | Some req ->
          handle_request st conn req;
          if st.running && conn.open_ then serve_buffered ()
        | None -> ()
      in
      try serve_buffered () with Protocol.Error msg -> reject st conn ("protocol error: " ^ msg)))

let handle_accept st listen_fd =
  match Unix.accept listen_fd with
  | exception Unix.Unix_error _ -> ()
  | fd, _ -> (
    let id = st.next_conn in
    st.next_conn <- id + 1;
    match Rs_obs.Fault_hook.hit ~site:"serve.accept" ~key:(string_of_int id) with
    | exception _ ->
      Metrics.incr m_accept_faults;
      (try Unix.close fd with Unix.Unix_error _ -> ())
    | () ->
      Metrics.incr m_connections;
      trace_event "serve" [ S ("event", "accept"); I ("conn", id) ];
      st.conns <- { id; fd; out_fd = fd; dec = Protocol.decoder (); open_ = true } :: st.conns)

(* ---------------------------------------------------------------------- *)
(* Lifecycle                                                               *)
(* ---------------------------------------------------------------------- *)

(* Install the configured snapshot, if there is one, into [ctrl] and
   [score]; the events it had ingested (0 without one). *)
let restore cfg ctrl (score : Reactive.score) =
  match cfg.snapshot_path with
  | Some path when Sys.file_exists path -> (
    let refuse msg = failwith (Printf.sprintf "serve: cannot restore snapshot %s: %s" path msg) in
    match Snapshot.load ~path with
    | Error msg -> refuse msg
    | Ok snap ->
      if snap.n_branches <> cfg.n_branches then
        failwith
          (Printf.sprintf "serve: snapshot %s was taken with %d branches, server has %d" path
             snap.n_branches cfg.n_branches);
      (* a state the controller could never reach is refused, not installed *)
      (try Reactive.import_words ctrl snap.words with Invalid_argument msg -> refuse msg);
      (* a controller that has seen no event keeps its cursor at min_int *)
      score.instr <- max 0 snap.words.(0);
      snap.events)
  | _ -> 0

let run cfg =
  if cfg.n_branches <= 0 then invalid_arg "Server.run: n_branches must be positive";
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let ctrl = Reactive.create ~n_branches:cfg.n_branches cfg.params in
  let score = Reactive.score () in
  let events = restore cfg ctrl score in
  let listen_fd, pair_conn =
    match cfg.transport with
    | Unix_socket path ->
      if Sys.file_exists path then Unix.unlink path;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      (Some fd, None)
    | Fd_pair (in_fd, out_fd) ->
      (None, Some { id = 0; fd = in_fd; out_fd; dec = Protocol.decoder (); open_ = true })
  in
  let st =
    {
      cfg;
      ctrl;
      score;
      rbuf = Bytes.create 65536;
      conns = Option.to_list pair_conn;
      next_conn = 1;
      running = true;
      events;
      applied = 0;
      busy_ns = 0;
      frames = 0;
      queries = 0;
      protocol_errors = 0;
      disconnects = 0;
      started = Unix.gettimeofday ();
    }
  in
  let single_conn = Option.is_some pair_conn in
  while st.running do
    let fds = Option.to_list listen_fd @ List.map (fun c -> c.fd) st.conns in
    match Unix.select fds [] [] 0.2 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
      (match listen_fd with
      | Some fd when List.mem fd readable -> handle_accept st fd
      | _ -> ());
      (* A handled request may disconnect a later connection (or stop
         the server), so re-check liveness per entry. *)
      List.iter
        (fun conn ->
          if st.running && conn.open_ && List.mem conn.fd readable then handle_readable st conn)
        st.conns;
      (* In single-connection (Fd_pair) mode, the peer closing its end
         is the shutdown signal. *)
      if single_conn && st.conns = [] then st.running <- false
  done;
  List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) st.conns;
  match (listen_fd, cfg.transport) with
  | Some fd, Unix_socket path ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    (try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
  | _ -> ()
