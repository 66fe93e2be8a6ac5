module Metrics = Rs_obs.Metrics

(* One lock and condition guard every memo: contention is per-artifact
   (seconds of simulation behind each entry), not per-lookup, so a finer
   scheme would buy nothing.  A key being computed holds an [In_flight]
   slot; latecomers for the same key park on [published] until it is
   published instead of computing it a second time. *)
let lock = Mutex.create ()
let published = Condition.create ()

(* Entered with [lock] held, which it releases. *)
let broadcast () =
  Condition.broadcast published;
  Mutex.unlock lock

let limit = ref 3
let retry_limit () = !limit
let set_retry_limit n = limit := max 1 n

(* The one retry loop: run [f] until an attempt returns or [retry_limit]
   attempts in all, [from] of them consumed by earlier rounds, have
   failed. *)
let attempts ?(on_retry = ignore) ~from f =
  let rec go n =
    match f () with
    | v -> Ok v
    | exception e ->
      let n = n + 1 in
      if n >= !limit then Error (e, n)
      else begin
        on_retry ();
        go n
      end
  in
  go from

let retry f = match attempts ~from:0 f with Ok v -> v | Error (e, _) -> raise e

type 'v entry = { value : 'v; weight : int; label : string; mutable stamp : int }
type 'v slot = In_flight | Ready of 'v entry | Failed of exn * int (* attempts consumed *)

(* Everything mutable is guarded by [lock], except the lookup counters:
   they are bumped after the lock is released, so they are atomics. *)
type ('k, 'v) t = {
  name : string;
  size : 'v -> int;
  table : ('k, 'v slot) Hashtbl.t;
  mutable budget : int;
  mutable held : int;  (* total weight of the [Ready] entries *)
  mutable entries : int;  (* [Ready] entries *)
  mutable tick : int;  (* recency clock for [stamp] *)
  mutable generation : int;  (* bumped by [clear] *)
  hits : int Atomic.t;
  misses : int Atomic.t;
  evictions : int Atomic.t;
  m_hits : Metrics.counter;
  m_misses : Metrics.counter;
  m_retries : Metrics.counter;
  m_evictions : Metrics.counter;
  m_waits : Metrics.counter;
  g_bytes : Metrics.gauge;
  g_entries : Metrics.gauge;
}

let create ?(budget = max_int) ?(size = fun _ -> 0) name =
  let metric suffix = name ^ "." ^ suffix in
  {
    name;
    size;
    table = Hashtbl.create 64;
    budget = max 0 budget;
    held = 0;
    entries = 0;
    tick = 0;
    generation = 0;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    evictions = Atomic.make 0;
    m_hits = Metrics.counter (metric "hits");
    m_misses = Metrics.counter (metric "misses");
    m_retries = Metrics.counter (metric "retries");
    m_evictions = Metrics.counter (metric "evictions");
    m_waits = Metrics.counter (metric "waits");
    g_bytes = Metrics.gauge (metric "bytes");
    g_entries = Metrics.gauge (metric "entries");
  }

let trace_event m ~label outcome =
  if Rs_obs.Trace.enabled () then
    Rs_obs.Trace.emit "memo" [ S ("memo", m.name); S ("outcome", outcome); S ("key", label) ]

let count_lookup m ~label ~hit =
  Atomic.incr (if hit then m.hits else m.misses);
  Metrics.incr (if hit then m.m_hits else m.m_misses);
  trace_event m ~label (if hit then "hit" else "miss")

let count_retry m ~label =
  Metrics.incr m.m_retries;
  trace_event m ~label "retry"

(* Slot bookkeeping, all under [lock]: every table write but [clear]'s
   goes through [forget] so the held weight and entry count stay exact. *)
let forget m key =
  match Hashtbl.find_opt m.table key with
  | Some (Ready e) ->
    m.held <- m.held - e.weight;
    m.entries <- m.entries - 1
  | _ -> ()

let touch m e =
  m.tick <- m.tick + 1;
  e.stamp <- m.tick

let set m key slot =
  forget m key;
  (match slot with
  | Ready e ->
    touch m e;
    m.held <- m.held + e.weight;
    m.entries <- m.entries + 1
  | In_flight | Failed _ -> ());
  Hashtbl.replace m.table key slot

(* Evict least-recently-used [Ready] entries until the held weight fits
   the budget, then refresh the gauges. *)
let settle m =
  while
    m.held > m.budget
    &&
    let victim =
      Hashtbl.fold
        (fun k slot oldest ->
          match (slot, oldest) with
          | Ready e, Some (_, o) when o.stamp <= e.stamp -> oldest
          | Ready e, _ -> Some (k, e)
          | _ -> oldest)
        m.table None
    in
    match victim with
    | None -> false
    | Some (k, e) ->
      forget m k;
      Hashtbl.remove m.table k;
      Atomic.incr m.evictions;
      Metrics.incr m.m_evictions;
      trace_event m ~label:e.label "evict";
      true
  do
    ()
  done;
  Metrics.set m.g_bytes m.held;
  Metrics.set m.g_entries m.entries

(* Publish the outcome for [key] unless a [clear] raced the computation:
   the clear already dropped our [In_flight] marker, and any slot there
   now belongs to a computation started after it. *)
let publish m ~label key outcome ~gen0 =
  Mutex.lock lock;
  if m.generation = gen0 then begin
    set m key
      (match outcome with
      | Ok value -> Ready { value; weight = m.size value; label; stamp = 0 }
      | Error (e, n) -> Failed (e, n));
    settle m
  end;
  broadcast ()

(* Park until [key] is no longer [In_flight], counted as one wait.
   Entered and left with [lock] held; every publish and clear broadcasts
   under it, so no wakeup is lost. *)
let wait_for_publish m key =
  Metrics.incr m.m_waits;
  while match Hashtbl.find_opt m.table key with Some In_flight -> true | _ -> false do
    Condition.wait published lock
  done

let lookup m ~label ?(bytes = 0) key f =
  (* [compute] is entered with [lock] held and returns with it released. *)
  let compute ~from =
    set m key In_flight;
    let gen0 = m.generation in
    Mutex.unlock lock;
    count_lookup m ~label ~hit:false;
    let outcome = attempts ~on_retry:(fun () -> count_retry m ~label) ~from f in
    publish m ~label key outcome ~gen0;
    match outcome with Ok v -> Some v | Error (e, _) -> raise e
  in
  Mutex.lock lock;
  let rec get () =
    match Hashtbl.find_opt m.table key with
    | Some (Ready e) ->
      touch m e;
      Mutex.unlock lock;
      count_lookup m ~label ~hit:true;
      Some e.value
    | Some In_flight ->
      wait_for_publish m key;
      get ()
    | Some (Failed (e, n)) when n >= !limit ->
      Mutex.unlock lock;
      (* waiters woken on, and later callers finding, an exhausted slot
         count as misses so the hit/miss totals add up *)
      count_lookup m ~label ~hit:false;
      raise e
    | _ when bytes > m.budget ->
      Mutex.unlock lock;
      count_lookup m ~label ~hit:false;
      None
    | Some (Failed (_, n)) -> compute ~from:n
    | None -> compute ~from:0
  in
  get ()

let find_or_compute m ~label key f =
  match lookup m ~label key f with Some v -> v | None -> assert false

let find_if_fits m ~label ~bytes key f = lookup m ~label ~bytes key f

type stats = { hits : int; misses : int; evictions : int; entries : int; bytes : int }

let stats (m : (_, _) t) =
  Mutex.lock lock;
  let entries = m.entries and bytes = m.held in
  Mutex.unlock lock;
  {
    hits = Atomic.get m.hits;
    misses = Atomic.get m.misses;
    evictions = Atomic.get m.evictions;
    entries;
    bytes;
  }

let set_budget m b =
  Mutex.lock lock;
  m.budget <- max 0 b;
  settle m;
  Mutex.unlock lock

let clear m =
  Mutex.lock lock;
  m.generation <- m.generation + 1;
  Hashtbl.reset m.table;
  m.held <- 0;
  m.entries <- 0;
  Atomic.set m.hits 0;
  Atomic.set m.misses 0;
  Atomic.set m.evictions 0;
  settle m;
  (* wake any waiter on an [In_flight] entry just dropped: it re-checks,
     finds nothing and computes the key itself *)
  broadcast ()
