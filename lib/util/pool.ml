(* Shared-queue domain pool.

   Topology: one mutex-guarded list of open jobs, newest first.  A job
   is one [map_range]: an atomic cursor over its elements that hands out
   one per claim, so any domain can take the next element of any open
   job without a lock.  The pool's [jobs - 1] worker domains
   and every waiting caller look for work in one place: the newest open
   job.

   Caller first: a map's caller claims its own job's elements until none
   are left, and only then helps until its elements have all settled.
   Newest first keeps a helper inside the innermost nested map, so
   nesting depth and live memory stay those of a depth-first walk.
   "Help while you wait" means some domain is always running an
   element, so nested maps on one pool cannot deadlock.  Only a map's
   join helps: a domain waiting on anything else (a memo's in-flight
   key) parks without touching the queue.

   Sleeping is a two-phase check: a would-be sleeper registers in
   [sleepers] and re-checks the open jobs under the pool mutex before
   waiting, and producers broadcast after publishing whenever [sleepers]
   is non-zero — the atomic ordering between the two makes lost wakeups
   impossible.  Results are joined by index, and [jobs = 1] runs
   strictly left-to-right in the calling domain with no scheduling
   machinery at all, so [jobs] never changes a pure map's result. *)

module Metrics = Rs_obs.Metrics

type job = {
  cursor : int Atomic.t; (* next unclaimed element *)
  size : int;
  caller : int; (* the mapping domain *)
  run : int -> unit; (* one element *)
}

type t = {
  jobs : int;
  mutex : Mutex.t; (* guards open_jobs, live, active, retired *)
  wake : Condition.t;
  mutable open_jobs : job list; (* newest first *)
  sleepers : int Atomic.t;
  mutable live : bool;
  mutable active : int; (* in-flight map_range / map_ordered *)
  mutable retired : bool; (* close requested while active > 0 *)
  mutable workers : unit Domain.t list;
}

exception Closed

let m_tasks = Metrics.counter "pool.tasks"
let m_shared = Metrics.counter "pool.shared"
let m_worker_failures = Metrics.counter "pool.worker_failures"
let m_suppressed_failures = Metrics.counter "pool.suppressed_failures"
let g_jobs = Metrics.gauge "pool.jobs"

let wake t =
  if Atomic.get t.sleepers > 0 then begin
    Mutex.lock t.mutex;
    Condition.broadcast t.wake;
    Mutex.unlock t.mutex
  end

(* Claim the next element of [job] and run it; false once every element
   is claimed.  Allocates nothing. *)
let run_next job =
  let i = Atomic.fetch_and_add job.cursor 1 in
  i < job.size
  && begin
       if (Domain.self () :> int) <> job.caller then Metrics.incr m_shared;
       job.run i;
       true
     end

(* Stands for "no open job", so the search below returns no option. *)
let no_job = { cursor = Atomic.make 0; size = 0; caller = -1; run = ignore }

let rec newest_open = function
  | [] -> no_job
  | j :: rest -> if Atomic.get j.cursor < j.size then j else newest_open rest

(* Run an element of the newest open job; false when there is none. *)
let help_once t =
  Mutex.lock t.mutex;
  let job = newest_open t.open_jobs in
  Mutex.unlock t.mutex;
  if job == no_job then false
  else begin
    ignore (run_next job : bool);
    true
  end

(* Run a chunk of queued work, or sleep until some appears; false once
   [stop ()] holds with nothing queued.  The sleeper registers before its
   final re-check and producers test [sleepers] after publishing, so one
   of the two always observes the other — no lost wakeups. *)
let acquire t ~stop =
  help_once t
  || begin
       Mutex.lock t.mutex;
       Atomic.incr t.sleepers;
       let rec wait () =
         if stop () then false
         else if newest_open t.open_jobs != no_job then true
         else begin
           Condition.wait t.wake t.mutex;
           wait ()
         end
       in
       let found = wait () in
       Atomic.decr t.sleepers;
       Mutex.unlock t.mutex;
       found
     end

let worker_main t i =
  (* An injected startup failure kills just this worker: the pool
     degrades to fewer helpers, and the caller-helps rule keeps every
     map completing. *)
  match Rs_obs.Fault_hook.hit ~site:"pool.worker_start" ~key:(string_of_int i) with
  | () ->
    (* [stop] is only consulted once nothing is left to run, so a
       retiring pool's open jobs drain before the workers exit *)
    let stop () = not t.live in
    while acquire t ~stop do
      ()
    done
  | exception _ -> Metrics.incr m_worker_failures

let create ?jobs () =
  let jobs =
    max 1 (match jobs with Some j -> j | None -> Domain.recommended_domain_count ())
  in
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      wake = Condition.create ();
      open_jobs = [];
      sleepers = Atomic.make 0;
      live = true;
      active = 0;
      retired = false;
      workers = [];
    }
  in
  t.workers <- List.init (jobs - 1) (fun i -> Domain.spawn (fun () -> worker_main t i));
  Metrics.set g_jobs jobs;
  t

(* Entered with [t.mutex] held, which it releases before joining the
   workers (they need it to observe the shutdown).  A worker performing a
   deferred shutdown skips its own handle and exits on its own once no
   job is open. *)
let shutdown t =
  t.live <- false;
  Condition.broadcast t.wake;
  Mutex.unlock t.mutex;
  let self = Domain.self () in
  List.iter (fun d -> if Domain.get_id d <> self then Domain.join d) t.workers;
  t.workers <- []

let close t =
  Mutex.lock t.mutex;
  if t.active = 0 then shutdown t
  else begin
    (* In-flight maps still own the pool: retire it and let the last
       map's epilogue perform the shutdown. *)
    t.retired <- true;
    Mutex.unlock t.mutex
  end

let enter_map t =
  Mutex.lock t.mutex;
  if not t.live then begin
    Mutex.unlock t.mutex;
    raise Closed
  end;
  t.active <- t.active + 1;
  Mutex.unlock t.mutex

let exit_map t =
  Mutex.lock t.mutex;
  t.active <- t.active - 1;
  if t.retired && t.active = 0 then begin
    t.retired <- false;
    shutdown t
  end
  else Mutex.unlock t.mutex

let map_range (type b) t ~lo ~hi (f : int -> b) : b array =
  let n = hi - lo in
  if n <= 0 then [||]
  else begin
    enter_map t;
    Fun.protect ~finally:(fun () -> exit_map t) @@ fun () ->
    if t.jobs = 1 || n = 1 then begin
      (* strictly left-to-right in the calling domain *)
      Array.init n (fun i ->
          Metrics.incr m_tasks;
          f (lo + i))
    end
    else begin
      let results : b option array = Array.make n None in
      let errors : (exn * Printexc.raw_backtrace) option array = Array.make n None in
      let remaining = Atomic.make n in
      let run i =
        Metrics.incr m_tasks;
        (try results.(i) <- Some (f (lo + i))
         with e -> errors.(i) <- Some (e, Printexc.get_raw_backtrace ()));
        ignore (Atomic.fetch_and_add remaining (-1) : int);
        wake t
      in
      let job = { cursor = Atomic.make 0; size = n; caller = (Domain.self () :> int); run } in
      Mutex.lock t.mutex;
      t.open_jobs <- job :: t.open_jobs;
      Mutex.unlock t.mutex;
      wake t;
      while run_next job do
        ()
      done;
      (* every element is claimed: nobody can take from the job again *)
      Mutex.lock t.mutex;
      t.open_jobs <- List.filter (fun j -> j != job) t.open_jobs;
      Mutex.unlock t.mutex;
      (* the caller is the pool's jobs-th executor: help until every
         element of this map has settled *)
      let settled () = Atomic.get remaining = 0 in
      while not (settled ()) do
        ignore (acquire t ~stop:settled : bool)
      done;
      (* Re-raise the lowest-indexed failure with its original backtrace;
         further failures cannot also propagate, so they are surfaced
         through the [pool.suppressed_failures] counter instead of being
         silently discarded. *)
      let first = ref None in
      let suppressed = ref 0 in
      Array.iter
        (function
          | Some eb -> if Option.is_none !first then first := Some eb else incr suppressed
          | None -> ())
        errors;
      (match !first with
      | Some (e, bt) ->
        if !suppressed > 0 then Metrics.add m_suppressed_failures !suppressed;
        Printexc.raise_with_backtrace e bt
      | None -> ());
      Array.map (function Some r -> r | None -> assert false) results
    end
  end

let task_event event dom i =
  Rs_obs.Trace.emit "task" [ S ("event", event); I ("domain", dom); I ("index", i) ]

let map_ordered t f arr =
  map_range t ~lo:0 ~hi:(Array.length arr) (fun i ->
      let traced = Rs_obs.Trace.enabled () in
      let dom = (Domain.self () :> int) in
      if traced then task_event "start" dom i;
      (* re-raised in place, not boxed in a result: this runs per element *)
      let r =
        try
          Rs_obs.Fault_hook.hit ~site:"pool.task" ~key:(string_of_int i);
          f arr.(i)
        with e ->
          let bt = Printexc.get_raw_backtrace () in
          if traced then task_event "stop" dom i;
          Printexc.raise_with_backtrace e bt
      in
      if traced then task_event "stop" dom i;
      r)

(* --- scheduler counters ----------------------------------------------- *)

type stats = {
  tasks : int;
  shared : int;
  worker_failures : int;
  suppressed_failures : int;
}

let stats () =
  {
    tasks = Metrics.counter_value m_tasks;
    shared = Metrics.counter_value m_shared;
    worker_failures = Metrics.counter_value m_worker_failures;
    suppressed_failures = Metrics.counter_value m_suppressed_failures;
  }

(* Process-wide pool, sized by the most recent request. *)
let shared_mutex = Mutex.create ()
let shared_pool : t option ref = ref None

let shared ~jobs =
  let jobs = max 1 jobs in
  Mutex.lock shared_mutex;
  let pool =
    match !shared_pool with
    | Some p when p.jobs = jobs -> p
    | prev ->
      (* [close] defers the old pool's shutdown until its in-flight maps
         finish, so a caller still holding it keeps a working pool. *)
      (match prev with Some p -> close p | None -> ());
      let p = create ~jobs () in
      shared_pool := Some p;
      p
  in
  Mutex.unlock shared_mutex;
  pool
