(* The long-lived speculation-control service.

   One single-threaded I/O loop (select over the listener, a self-pipe
   and every client connection) validates and demultiplexes each event
   frame in one pass into per-shard batches from a bounded pool, which
   per-shard worker domains apply to their own Reactive table and give
   back: no cross-shard locks.  An empty pool makes the I/O loop wait
   for that shard's worker, which bounds every queue, and the data path
   allocates nothing per frame on the major heap.

   Ordering contract: the I/O loop is the sole enqueuer, so each
   shard's queue sees that shard's events in global stream order, and a
   Flush barrier enqueued after a set of frames cannot complete before
   those frames are applied.  Barrier completion is signalled through
   the self-pipe so a blocked select wakes promptly (bounded flush and
   query latency even under ingest load).

   Fault sites: [serve.accept] (a raise drops the new connection),
   [serve.read] (a raise disconnects the client, exactly like a peer
   dying mid-frame), [serve.shard] (a raise stalls the batch, which is
   retried — applied exactly once — so chaos plans perturb timing but
   never results). *)

module Metrics = Rs_obs.Metrics

type transport =
  | Unix_socket of string
  | Fd_pair of Unix.file_descr * Unix.file_descr

type config = {
  params : Rs_core.Params.t;
  n_branches : int;
  shards : int;
  transport : transport;
  snapshot_path : string option;
}

let m_events = Metrics.counter "serve.events"
let m_frames = Metrics.counter "serve.frames"
let m_queries = Metrics.counter "serve.queries"
let m_connections = Metrics.counter "serve.connections"
let m_disconnects = Metrics.counter "serve.disconnects"
let m_protocol_errors = Metrics.counter "serve.protocol_errors"
let m_shard_faults = Metrics.counter "serve.shard_faults"
let m_accept_faults = Metrics.counter "serve.accept_faults"
let m_read_faults = Metrics.counter "serve.read_faults"
let g_shards = Metrics.gauge "serve.shards"

let h_query_us =
  Metrics.histogram "serve.query_us" ~bounds:[| 1.0; 10.0; 100.0; 1_000.0; 10_000.0; 100_000.0 |]

let h_batch_us =
  Metrics.histogram "serve.shard.batch_us"
    ~bounds:[| 10.0; 100.0; 1_000.0; 10_000.0; 100_000.0; 1_000_000.0 |]

(* ---------------------------------------------------------------------- *)
(* Shard workers                                                           *)
(* ---------------------------------------------------------------------- *)

type barrier = { remaining : int Atomic.t; notify : Unix.file_descr }

(* Demultiplexed events in the layout [Shard.apply] takes. *)
type batch = { ev : int array; instr : int array; mutable len : int }

type item = Apply of batch | Barrier of barrier | Stop

type shard_rt = {
  shard : Shard.t;
  q : item Queue.t;
  qm : Mutex.t;
  qc : Condition.t;
  mutable free : batch Lazy.t list;  (* the pool, guarded by [qm] *)
  freed : Condition.t;
  g_queue : Metrics.gauge;
  c_events : Metrics.counter;
}

let no_batch = { ev = [||]; instr = [||]; len = 0 }
let wake = Bytes.make 1 '\001'

let signal_pipe fd =
  (* Nonblocking write end: if the pipe is already full the reader has a
     wakeup pending anyway. *)
  try ignore (Unix.write fd wake 0 1) with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()

let enqueue rt item =
  Mutex.lock rt.qm;
  Queue.add item rt.q;
  Metrics.set rt.g_queue (Queue.length rt.q);
  Condition.signal rt.qc;
  Mutex.unlock rt.qm

(* A shard's pool: three batches, each allocated on first use. *)
let new_pool () =
  let cap = Protocol.max_frame_words in
  List.init 3 (fun _ -> lazy { ev = Array.make cap 0; instr = Array.make cap 0; len = 0 })

(* A free batch from the shard's pool; when all are queued or being
   applied, wait until the worker gives one back. *)
let take rt =
  Mutex.lock rt.qm;
  while rt.free = [] do
    Condition.wait rt.freed rt.qm
  done;
  let b = List.hd rt.free in
  rt.free <- List.tl rt.free;
  Mutex.unlock rt.qm;
  Lazy.force b

let give_back rt b =
  b.len <- 0;
  Mutex.lock rt.qm;
  rt.free <- Lazy.from_val b :: rt.free;
  Condition.signal rt.freed;
  Mutex.unlock rt.qm

(* Consult the serve.shard fault site, retrying until the plan lets the
   batch through: injected shard stalls delay application, never drop
   or double-apply events.  The retry cap only guards against a plan
   with an unlimited raise budget. *)
let shard_gate index =
  let key = string_of_int index in
  let rec go n =
    match Rs_obs.Fault_hook.hit ~site:"serve.shard" ~key with
    | () -> ()
    | exception _ when n < 1000 ->
      Metrics.incr m_shard_faults;
      go (n + 1)
    | exception _ -> Metrics.incr m_shard_faults
  in
  go 0

let worker_loop rt =
  let running = ref true in
  while !running do
    Mutex.lock rt.qm;
    while Queue.is_empty rt.q do
      Condition.wait rt.qc rt.qm
    done;
    let item = Queue.pop rt.q in
    Metrics.set rt.g_queue (Queue.length rt.q);
    Mutex.unlock rt.qm;
    match item with
    | Stop -> running := false
    | Barrier b -> if Atomic.fetch_and_add b.remaining (-1) = 1 then signal_pipe b.notify
    | Apply b ->
      shard_gate (Shard.index rt.shard);
      let ns = Shard.apply rt.shard ~ev:b.ev ~instr:b.instr ~len:b.len in
      Metrics.observe h_batch_us (float_of_int ns *. 1e-3);
      Metrics.add rt.c_events b.len;
      give_back rt b
  done

(* ---------------------------------------------------------------------- *)
(* Connections                                                             *)
(* ---------------------------------------------------------------------- *)

type conn = {
  id : int;
  fd : Unix.file_descr;
  out_fd : Unix.file_descr;
  dec : Protocol.decoder;
}

type state = {
  cfg : config;
  shards : int;  (* effective count, clamped to n_branches *)
  rts : shard_rt array;
  pipe_r : Unix.file_descr;
  pipe_w : Unix.file_descr;
  rbuf : Bytes.t;  (* the one read buffer, for connections and the pipe *)
  filling : batch array;  (* per shard, the batch [ingest] fills *)
  listen_fd : Unix.file_descr option;
  mutable conns : conn list;
  mutable next_conn : int;
  mutable running : bool;
  mutable events : int;  (* events ingested (incl. restored base) *)
  mutable last_instr : int;  (* global stream position *)
  mutable frames : int;
  mutable queries : int;
  mutable protocol_errors : int;
  mutable disconnects : int;
  mutable pending_flushes : (int * barrier * int) list;  (* conn id, barrier, ack *)
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

let send_reply _st conn reply =
  (* The peer may have vanished between request and reply; the read
     side will observe the close and reap the connection. *)
  try write_all conn.out_fd (Protocol.encode_reply reply) with Unix.Unix_error _ -> ()

let disconnect st conn =
  st.conns <- List.filter (fun c -> c.id <> conn.id) st.conns;
  st.pending_flushes <- List.filter (fun (id, _, _) -> id <> conn.id) st.pending_flushes;
  st.disconnects <- st.disconnects + 1;
  Metrics.incr m_disconnects;
  trace_event "serve"
    [ S ("event", "disconnect"); I ("conn", conn.id); I ("midframe_bytes", Protocol.pending conn.dec) ];
  try Unix.close conn.fd with Unix.Unix_error _ -> ()

(* Answer a malformed frame and close: framing cannot be resynchronised. *)
let reject st conn msg =
  st.protocol_errors <- st.protocol_errors + 1;
  Metrics.incr m_protocol_errors;
  send_reply st conn (Error_reply msg);
  disconnect st conn

let barrier_all st =
  let b = { remaining = Atomic.make st.shards; notify = st.pipe_w } in
  Array.iter (fun rt -> enqueue rt (Barrier b)) st.rts;
  b

(* Synchronously drain every shard queue: used by Snapshot (state must
   be quiescent) and shutdown.  The I/O loop blocks here briefly; the
   wait is bounded by the queued work. *)
let drain st =
  let b = barrier_all st in
  while Atomic.get b.remaining > 0 do
    match Unix.select [ st.pipe_r ] [] [] 0.05 with
    | [ _ ], _, _ -> ignore (try Unix.read st.pipe_r st.rbuf 0 64 with Unix.Unix_error _ -> 0)
    | _ -> ()
  done

(* ---------------------------------------------------------------------- *)
(* Request handling                                                        *)
(* ---------------------------------------------------------------------- *)

(* One pass over an events frame: validate each word and demultiplex it
   into its shard's pooled batch.  Only a wholly valid frame is enqueued
   and advances the stream; at a bad word the batches go back to their
   pools, no state changes, and the error message is returned. *)
let ingest st words n =
  let shards = st.shards and filling = st.filling in
  let instr = ref st.last_instr and i = ref 0 in
  while !i < n && Rs_behavior.Trace_store.packed_branch words.(!i) < st.cfg.n_branches do
    let w = Array.unsafe_get words !i in
    let branch = Rs_behavior.Trace_store.packed_branch w in
    instr := !instr + Rs_behavior.Trace_store.packed_delta w;
    let s = branch mod shards in
    if Array.unsafe_get filling s == no_batch then filling.(s) <- take st.rts.(s);
    let b = Array.unsafe_get filling s in
    Array.unsafe_set b.ev b.len ((branch / shards * 2) lor (w land 1));
    Array.unsafe_set b.instr b.len !instr;
    b.len <- b.len + 1;
    incr i
  done;
  let ok = !i = n in
  for s = 0 to shards - 1 do
    let b = filling.(s) in
    if b != no_batch then begin
      filling.(s) <- no_batch;
      if ok then enqueue st.rts.(s) (Apply b) else give_back st.rts.(s) b
    end
  done;
  if ok then begin
    st.last_instr <- !instr;
    st.events <- st.events + n;
    st.frames <- st.frames + 1;
    Metrics.add m_events n;
    Metrics.incr m_frames;
    None
  end
  else
    Some
      (Printf.sprintf
         "events frame word %d: branch %d out of range [0,%d) (corrupt or non-monotone encoding)"
         !i (Rs_behavior.Trace_store.packed_branch words.(!i)) st.cfg.n_branches)

let stats_json st =
  let b = Buffer.create 512 in
  let total_events = Array.fold_left (fun acc rt -> acc + Shard.events rt.shard) 0 st.rts in
  let max_busy =
    Array.fold_left (fun acc rt -> max acc (Shard.busy_ns rt.shard)) 0 st.rts
  in
  let aggregate_rate =
    if max_busy = 0 then 0.0 else float_of_int total_events /. (float_of_int max_busy *. 1e-9)
  in
  let gc = Gc.quick_stat () in
  Buffer.add_string b
    (Printf.sprintf
       "{\"version\":%d,\"branches\":%d,\"shards\":%d,\"events\":%d,\"applied\":%d,\"frames\":%d,\"queries\":%d,\"disconnects\":%d,\"protocol_errors\":%d,\"shard_faults\":%d,\"uptime_s\":%.3f,\"aggregate_rate_eps\":%.1f,\"gc_minor_words\":%.0f,\"gc_major_words\":%.0f,\"gc_major_collections\":%d,\"shards_detail\":["
       Protocol.version st.cfg.n_branches st.shards st.events total_events st.frames st.queries
       st.disconnects st.protocol_errors
       (Metrics.counter_value m_shard_faults)
       (Unix.gettimeofday () -. st.started)
       aggregate_rate gc.minor_words gc.major_words gc.major_collections);
  Array.iteri
    (fun i rt ->
      if i > 0 then Buffer.add_char b ',';
      let busy_s = float_of_int (Shard.busy_ns rt.shard) *. 1e-9 in
      let rate = if busy_s = 0.0 then 0.0 else float_of_int (Shard.events rt.shard) /. busy_s in
      Buffer.add_string b
        (Printf.sprintf
           "{\"shard\":%d,\"owned\":%d,\"events\":%d,\"batches\":%d,\"busy_s\":%.6f,\"rate_eps\":%.1f,\"queue\":%d}"
           i (Shard.owned rt.shard) (Shard.events rt.shard) (Shard.batches rt.shard) busy_s rate
           (Queue.length rt.q)))
    st.rts;
  Buffer.add_string b "]}";
  Buffer.contents b

let take_snapshot st =
  drain st;
  {
    Snapshot.n_branches = st.cfg.n_branches;
    shards = st.shards;
    events = st.events;
    last_instr = st.last_instr;
    shard_state = Array.map (fun rt -> Shard.export rt.shard) st.rts;
  }

let handle_request st conn (req : Protocol.request) =
  match req with
  | Events (words, n) -> Option.iter (reject st conn) (ingest st words n)
  | Query branch ->
    st.queries <- st.queries + 1;
    Metrics.incr m_queries;
    if branch < 0 || branch >= st.cfg.n_branches then
      send_reply st conn
        (Error_reply (Printf.sprintf "query: branch %d out of range [0,%d)" branch st.cfg.n_branches))
    else begin
      let t0 = Unix.gettimeofday () in
      let s = branch mod st.shards in
      let code = Shard.query st.rts.(s).shard ~local:(branch / st.shards) in
      Metrics.observe h_query_us ((Unix.gettimeofday () -. t0) *. 1e6);
      send_reply st conn (Decision code)
    end
  | Flush ->
    let b = barrier_all st in
    st.pending_flushes <- st.pending_flushes @ [ (conn.id, b, st.events) ]
  | Stats -> send_reply st conn (Stats_reply (stats_json st))
  | Snapshot ->
    let snap = take_snapshot st in
    let encoded = Snapshot.encode snap in
    (match st.cfg.snapshot_path with Some path -> Snapshot.save ~path snap | None -> ());
    send_reply st conn (Snapshot_reply encoded)
  | Shutdown ->
    drain st;
    send_reply st conn (Ack st.events);
    st.running <- false

let resolve_flushes st =
  let done_, waiting =
    List.partition (fun (_, b, _) -> Atomic.get b.remaining = 0) st.pending_flushes
  in
  st.pending_flushes <- waiting;
  List.iter
    (fun (conn_id, _, ack) ->
      match List.find_opt (fun c -> c.id = conn_id) st.conns with
      | Some conn -> send_reply st conn (Ack ack)
      | None -> ())
    done_

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
          if st.running && List.exists (fun c -> c.id = conn.id) st.conns then serve_buffered ()
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
      st.conns <- { id; fd; out_fd = fd; dec = Protocol.decoder () } :: st.conns)

(* ---------------------------------------------------------------------- *)
(* Lifecycle                                                               *)
(* ---------------------------------------------------------------------- *)

let restore st =
  match st.cfg.snapshot_path with
  | Some path when Sys.file_exists path -> (
    match Snapshot.load ~path with
    | Error msg -> failwith (Printf.sprintf "serve: cannot restore snapshot %s: %s" path msg)
    | Ok snap ->
      if snap.Snapshot.n_branches <> st.cfg.n_branches then
        failwith
          (Printf.sprintf "serve: snapshot %s was taken with %d branches, server has %d" path
             snap.Snapshot.n_branches st.cfg.n_branches);
      if snap.Snapshot.shards <> st.shards then
        failwith
          (Printf.sprintf
             "serve: snapshot %s was taken with %d shards, server has %d (restore requires the \
              same shard count)"
             path snap.Snapshot.shards st.shards);
      (* a state the controller could never reach is refused, not installed *)
      Array.iteri
        (fun i rt ->
          try Shard.import rt.shard snap.Snapshot.shard_state.(i)
          with Invalid_argument msg ->
            failwith (Printf.sprintf "serve: cannot restore snapshot %s: shard %d: %s" path i msg))
        st.rts;
      st.events <- snap.Snapshot.events;
      st.last_instr <- snap.Snapshot.last_instr)
  | _ -> ()

let run cfg =
  if cfg.n_branches <= 0 then invalid_arg "Server.run: n_branches must be positive";
  if cfg.shards <= 0 then invalid_arg "Server.run: shards must be positive";
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let shards = min cfg.shards cfg.n_branches in
  Metrics.set g_shards shards;
  let rts =
    Array.init shards (fun index ->
        {
          shard = Shard.create ~params:cfg.params ~n_branches:cfg.n_branches ~shards ~index;
          q = Queue.create ();
          qm = Mutex.create ();
          qc = Condition.create ();
          free = new_pool ();
          freed = Condition.create ();
          g_queue = Metrics.gauge (Printf.sprintf "serve.shard%d.queue" index);
          c_events = Metrics.counter (Printf.sprintf "serve.shard%d.events" index);
        })
  in
  let pipe_r, pipe_w = Unix.pipe () in
  Unix.set_nonblock pipe_w;
  let listen_fd, pair_conn =
    match cfg.transport with
    | Unix_socket path ->
      if Sys.file_exists path then Unix.unlink path;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      (Some fd, None)
    | Fd_pair (in_fd, out_fd) ->
      (None, Some { id = 0; fd = in_fd; out_fd; dec = Protocol.decoder () })
  in
  let st =
    {
      cfg;
      shards;
      rts;
      pipe_r;
      pipe_w;
      rbuf = Bytes.create 65536;
      filling = Array.make shards no_batch;
      listen_fd;
      conns = (match pair_conn with Some c -> [ c ] | None -> []);
      next_conn = 1;
      running = true;
      events = 0;
      last_instr = 0;
      frames = 0;
      queries = 0;
      protocol_errors = 0;
      disconnects = 0;
      pending_flushes = [];
      started = Unix.gettimeofday ();
    }
  in
  restore st;
  let workers = Array.map (fun rt -> Domain.spawn (fun () -> worker_loop rt)) rts in
  let single_conn = Option.is_some pair_conn in
  (* Tear the workers down even if the loop raises: a dying server must
     not leak domains. *)
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun rt -> enqueue rt Stop) rts;
      Array.iter Domain.join workers)
    (fun () ->
     while st.running do
       let fds =
         st.pipe_r
         :: ((match st.listen_fd with Some fd -> [ fd ] | None -> [])
            @ List.map (fun c -> c.fd) st.conns)
       in
       match Unix.select fds [] [] 0.2 with
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
       | readable, _, _ ->
         if List.mem st.pipe_r readable then
           ignore (try Unix.read st.pipe_r st.rbuf 0 64 with Unix.Unix_error _ -> 0);
         (match st.listen_fd with
         | Some fd when List.mem fd readable -> handle_accept st fd
         | _ -> ());
         (* Iterate over a snapshot: a handled request may disconnect a
            later connection (or stop the server), so re-check liveness
            per entry. *)
         let snapshot = st.conns in
         List.iter
           (fun conn ->
             if
               st.running && List.mem conn.fd readable
               && List.exists (fun c -> c.id = conn.id) st.conns
             then handle_readable st conn)
           snapshot;
         resolve_flushes st;
         (* In single-connection (Fd_pair) mode, the peer closing its end
            is the shutdown signal. *)
         if single_conn && st.conns = [] then begin
           drain st;
           st.running <- false
         end
     done);
  List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) st.conns;
  (match st.listen_fd with
  | Some fd -> (
    (try Unix.close fd with Unix.Unix_error _ -> ());
    match cfg.transport with
    | Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
    | _ -> ())
  | None -> ());
  (try Unix.close pipe_r with Unix.Unix_error _ -> ());
  try Unix.close pipe_w with Unix.Unix_error _ -> ()
