module BM = Rs_workload.Benchmark
module Static = Rs_core.Static
module Fault = Rs_fault.Fault

type stats = {
  build_hits : int;
  build_misses : int;
  profile_hits : int;
  profile_misses : int;
  run_hits : int;
  run_misses : int;
  mssp_hits : int;
  mssp_misses : int;
}

(* One lock and condition guard every table: contention is per-artifact
   (seconds of simulation behind each entry), not per-lookup, so a finer
   scheme would buy nothing.  A key being computed holds an [In_flight]
   slot; latecomers for the same key wait on [published] instead of
   computing it a second time.  Waiting cannot cycle: builds and MSSP
   runs never wait on anything, profiles and runs only wait on builds. *)
let lock = Mutex.create ()
let published = Condition.create ()

(* Bumped by [reset] under [lock].  A computation records the generation
   it started under and re-checks before publishing, so a slot computed
   before a reset can never resurrect into the post-reset table. *)
let generation = ref 0

(* Transient failures are retried in place: the computing caller invokes
   the body up to [retry_limit ()] times before giving up, so a blip
   (I/O hiccup, injected fault) never poisons a key.  A published
   [Failed] slot records the attempts it consumed; lookups that find an
   exhausted slot re-raise the stored exception — counted as misses so
   [--cache-stats] totals add up — rather than re-running a computation
   that deterministically fails. *)
let limit = ref 3

let retry_limit () = !limit
let set_retry_limit n = limit := max 1 n

type 'v slot = In_flight | Ready of 'v | Failed of exn * int (* attempts consumed *)

(* Hit/miss counters are [Atomic.t], not plain ints: the metrics layer
   reads them concurrently with pool workers bumping them, and the
   profile-upgrade path below touches [misses] from whichever domain
   noticed the stale entry. *)
type ('k, 'v) memo = {
  kind : string;
  table : ('k, 'v slot) Hashtbl.t;
  (* Per-transaction write buffers for speculative tasks, keyed by
     transaction id (guarded by [lock]).  A speculative computation
     publishes here instead of [table]; the whole buffer merges into
     [table] when its task commits and vanishes when it cancels. *)
  overlays : (int, ('k, 'v slot) Hashtbl.t) Hashtbl.t;
  hits : int Atomic.t;
  misses : int Atomic.t;
  m_hits : Rs_obs.Metrics.counter;
  m_misses : Rs_obs.Metrics.counter;
  m_retries : Rs_obs.Metrics.counter;
}

(* Every memo registers its clearing thunk so [reset] drops them all —
   including the private memos the test suite creates.  The transaction
   handlers below are registered the same way: memos are heterogeneous,
   so commit/abort/merge walk a list of monomorphic closures instead of
   a table of memos.  All four lists are guarded by [lock]. *)
let resetters : (unit -> unit) list ref = ref []
let txn_committers : (int -> unit) list ref = ref []
let txn_aborters : (int -> unit) list ref = ref []
let txn_mergers : (src:int -> dst:int -> unit) list ref = ref []

let memo kind =
  let m =
    {
      kind;
      table = Hashtbl.create 64;
      overlays = Hashtbl.create 4;
      hits = Atomic.make 0;
      misses = Atomic.make 0;
      m_hits = Rs_obs.Metrics.counter (Printf.sprintf "cache.%s.hits" kind);
      m_misses = Rs_obs.Metrics.counter (Printf.sprintf "cache.%s.misses" kind);
      m_retries = Rs_obs.Metrics.counter (Printf.sprintf "cache.%s.retries" kind);
    }
  in
  let overlay_for id =
    match Hashtbl.find_opt m.overlays id with
    | Some ov -> ov
    | None ->
      let ov = Hashtbl.create 8 in
      Hashtbl.add m.overlays id ov;
      ov
  in
  Mutex.lock lock;
  resetters :=
    (fun () ->
      Hashtbl.reset m.table;
      Hashtbl.reset m.overlays;
      Atomic.set m.hits 0;
      Atomic.set m.misses 0)
    :: !resetters;
  (* Commit publishes each buffered slot unless the global table gained
     a settled entry for the key meanwhile ("global won" — both sides
     computed the same pure value, keep the published one).  A leftover
     [In_flight] marks a computation the task never finished; drop it. *)
  txn_committers :=
    (fun id ->
      match Hashtbl.find_opt m.overlays id with
      | None -> ()
      | Some ov ->
        Hashtbl.remove m.overlays id;
        Hashtbl.iter
          (fun key slot ->
            match slot with
            | In_flight -> ()
            | slot -> (
              match Hashtbl.find_opt m.table key with
              | Some (Ready _) | Some (Failed _) -> ()
              | Some In_flight | None -> Hashtbl.replace m.table key slot))
          ov)
    :: !txn_committers;
  txn_aborters := (fun id -> Hashtbl.remove m.overlays id) :: !txn_aborters;
  txn_mergers :=
    (fun ~src ~dst ->
      match Hashtbl.find_opt m.overlays src with
      | None -> ()
      | Some ov ->
        Hashtbl.remove m.overlays src;
        let dv = overlay_for dst in
        Hashtbl.iter
          (fun key slot ->
            match slot with
            | In_flight -> ()
            | slot -> if not (Hashtbl.mem dv key) then Hashtbl.replace dv key slot)
          ov)
    :: !txn_mergers;
  Mutex.unlock lock;
  m

let count_lookup m ~bench ~hit =
  Atomic.incr (if hit then m.hits else m.misses);
  Rs_obs.Metrics.incr (if hit then m.m_hits else m.m_misses);
  if Rs_obs.Trace.enabled () then
    Rs_obs.Trace.emit "cache"
      [
        S ("kind", m.kind);
        S ("outcome", (if hit then "hit" else "miss"));
        S ("bench", bench);
      ]

let count_retry m ~bench =
  Rs_obs.Metrics.incr m.m_retries;
  if Rs_obs.Trace.enabled () then
    Rs_obs.Trace.emit "cache"
      [ S ("kind", m.kind); S ("outcome", "retry"); S ("bench", bench) ]

(* Run the compute body with bounded in-place retries, starting from
   [attempts] already consumed by earlier rounds. *)
let attempt_body m ~bench ~attempts f =
  let rec go n =
    match f () with
    | v -> Ready v
    | exception e ->
      let n = n + 1 in
      if n >= !limit then Failed (e, n)
      else begin
        count_retry m ~bench;
        go n
      end
  in
  go attempts

(* Publish [slot] for [key] unless a [reset] raced the computation: then
   the table was already cleared (and may hold post-reset entries), so
   the stale result is dropped — only our own leftover [In_flight]
   marker, if any, is removed so nobody waits on it forever. *)
let publish m key slot ~gen0 =
  Mutex.lock lock;
  (if !generation = gen0 then Hashtbl.replace m.table key slot
   else
     match Hashtbl.find_opt m.table key with
     | Some In_flight -> Hashtbl.remove m.table key
     | _ -> ());
  Condition.broadcast published;
  Mutex.unlock lock

(* --- speculative transactions ----------------------------------------

   A transaction isolates the cache writes of one speculative pool task
   (and everything it fans out to): lookups still read the global
   tables — published artifacts are immutable, sharing them can never
   leak speculation — but anything the task {e computes} lands in a
   per-transaction overlay.  [txn_commit] folds the overlay into the
   global tables, re-checking the generation counter so a [reset] that
   raced the speculative work discards it wholesale (the same rollback
   point every non-speculative publication uses); [txn_abort] just drops
   the overlay.  The scheduler attaches/detaches the transaction on
   whichever domain runs a piece of the task, via the DLS stack. *)

type txn = { txn_id : int; txn_gen : int }

let txn_ids = ref 0 (* guarded by [lock] *)
let txn_key : txn list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let current_txn () = match !(Domain.DLS.get txn_key) with [] -> None | t :: _ -> Some t

let new_txn () =
  Mutex.lock lock;
  incr txn_ids;
  let t = { txn_id = !txn_ids; txn_gen = !generation } in
  Mutex.unlock lock;
  t

let txn_attach t =
  let r = Domain.DLS.get txn_key in
  r := t :: !r

let txn_detach () =
  let r = Domain.DLS.get txn_key in
  match !r with [] -> () | _ :: tl -> r := tl

let txn_commit t =
  Mutex.lock lock;
  (match current_txn () with
  | Some outer when outer.txn_id <> t.txn_id ->
    (* nested speculation: fold into the enclosing transaction instead
       of the global tables — it commits or cancels as a whole *)
    List.iter (fun merge -> merge ~src:t.txn_id ~dst:outer.txn_id) !txn_mergers
  | _ ->
    if t.txn_gen = !generation then List.iter (fun commit -> commit t.txn_id) !txn_committers
    else (* a reset raced the speculative work: drop it *)
      List.iter (fun abort -> abort t.txn_id) !txn_aborters);
  Condition.broadcast published;
  Mutex.unlock lock

let txn_abort t =
  Mutex.lock lock;
  List.iter (fun abort -> abort t.txn_id) !txn_aborters;
  Condition.broadcast published;
  Mutex.unlock lock

(* Register the transaction machinery as the pool's cache isolator —
   same wiring style as [fault_hook]: this library sits above rs_util in
   the dependency graph, so the pool cannot call it directly. *)
let () =
  Rs_util.Pool.spec_providers :=
    (fun () ->
      let t = new_txn () in
      {
        Rs_util.Pool.iso_attach = (fun () -> txn_attach t);
        iso_detach = (fun () -> txn_detach ());
        iso_commit = (fun () -> txn_commit t);
        iso_abort = (fun () -> txn_abort t);
      })
    :: !Rs_util.Pool.spec_providers

(* Lookup under an active transaction: global table first (immutable
   artifacts are safe to share into speculation), then the overlay, and
   computations publish into the overlay only — no global [In_flight]
   marker, so a cancelled task can never leave anyone waiting on it. *)
let find_or_compute_spec m ~bench key f (txn : txn) =
  (* [compute] is entered with [lock] held and returns with it released. *)
  let compute ~attempts =
    (match Hashtbl.find_opt m.overlays txn.txn_id with
    | Some ov -> Hashtbl.replace ov key In_flight
    | None ->
      let ov = Hashtbl.create 8 in
      Hashtbl.add m.overlays txn.txn_id ov;
      Hashtbl.replace ov key In_flight);
    Mutex.unlock lock;
    count_lookup m ~bench ~hit:false;
    let slot = attempt_body m ~bench ~attempts f in
    Mutex.lock lock;
    (* if the transaction was aborted (or reset away) meanwhile, the
       overlay is gone and the result is simply dropped *)
    (match Hashtbl.find_opt m.overlays txn.txn_id with
    | Some ov -> Hashtbl.replace ov key slot
    | None -> ());
    Condition.broadcast published;
    Mutex.unlock lock;
    match slot with Ready v -> v | Failed (e, _) -> raise e | In_flight -> assert false
  in
  Mutex.lock lock;
  let rec get () =
    match Hashtbl.find_opt m.table key with
    | Some (Ready v) ->
      Mutex.unlock lock;
      count_lookup m ~bench ~hit:true;
      v
    | Some (Failed (e, attempts)) when attempts >= !limit ->
      Mutex.unlock lock;
      count_lookup m ~bench ~hit:false;
      raise e
    | Some (Failed (_, attempts)) -> compute ~attempts
    | Some In_flight ->
      (* a non-speculative computation is in flight: share its result *)
      Condition.wait published lock;
      get ()
    | None -> (
      let buffered =
        match Hashtbl.find_opt m.overlays txn.txn_id with
        | None -> None
        | Some ov -> Hashtbl.find_opt ov key
      in
      match buffered with
      | Some (Ready v) ->
        Mutex.unlock lock;
        count_lookup m ~bench ~hit:true;
        v
      | Some (Failed (e, attempts)) when attempts >= !limit ->
        Mutex.unlock lock;
        count_lookup m ~bench ~hit:false;
        raise e
      | Some (Failed (_, attempts)) -> compute ~attempts
      | Some In_flight ->
        (* another domain of the same task is computing it *)
        Condition.wait published lock;
        get ()
      | None -> compute ~attempts:0)
  in
  get ()

let find_or_compute m ~bench key f =
  match current_txn () with
  | Some txn -> find_or_compute_spec m ~bench key f txn
  | None ->
    (* [compute] is entered with [lock] held and returns with it released. *)
    let compute ~attempts =
      Hashtbl.replace m.table key In_flight;
      let gen0 = !generation in
      Mutex.unlock lock;
      count_lookup m ~bench ~hit:false;
      let slot = attempt_body m ~bench ~attempts f in
      publish m key slot ~gen0;
      match slot with Ready v -> v | Failed (e, _) -> raise e | In_flight -> assert false
    in
    Mutex.lock lock;
    let rec get () =
      match Hashtbl.find_opt m.table key with
      | Some (Ready v) ->
        Mutex.unlock lock;
        count_lookup m ~bench ~hit:true;
        v
      | Some (Failed (e, attempts)) when attempts >= !limit ->
        Mutex.unlock lock;
        (* waiters woken on — and later callers finding — an exhausted slot
           count as misses so the hit/miss totals add up *)
        count_lookup m ~bench ~hit:false;
        raise e
      | Some (Failed (_, attempts)) -> compute ~attempts
      | Some In_flight ->
        Condition.wait published lock;
        get ()
      | None -> compute ~attempts:0
    in
    get ()

(* Cache keys carry the context minus [jobs]: parallelism must never
   change what is computed. *)
type ckey = { seed : int; scale : float; tau : int; bench : string; input : BM.input }

let ckey (ctx : Context.t) (bm : BM.t) input =
  { seed = ctx.seed; scale = ctx.scale; tau = ctx.tau; bench = bm.name; input }

let builds : (ckey, Rs_behavior.Population.t * Rs_behavior.Stream.config) memo = memo "build"
let profiles : (ckey, Rs_sim.Profile.t) memo = memo "profile"
let runs : (ckey * Rs_core.Params.t, Rs_sim.Engine.result) memo = memo "run"

let input_tag : BM.input -> string = function Ref -> "ref" | Train -> "train"

let build ctx bm ~input =
  find_or_compute builds ~bench:bm.BM.name (ckey ctx bm input) (fun () ->
      Fault.hit ~site:"cache.build" ~key:(bm.BM.name ^ "/" ^ input_tag input);
      Context.build ctx bm ~input)

(* Branch-event streams are pure in (population, stream config), and the
   population is pure in the ckey, so every consumer below shares one
   packed recording per ckey through the trace store's LRU: the sweeps
   (figure5's variants, table3/4, the ablations, breakeven) record the
   stream once and replay it per parameter point.  [set_trace_replay
   false] is the kill switch that forces live regeneration everywhere —
   replay is byte-identical, so flipping it never changes results. *)
let use_traces = Atomic.make true

let set_trace_replay b = Atomic.set use_traces b
let trace_replay_enabled () = Atomic.get use_traces

let stream_key (k : ckey) =
  Printf.sprintf "%s/%s/seed=%d/scale=%g/tau=%d" k.bench (input_tag k.input) k.seed k.scale
    k.tau

let trace ctx bm ~input =
  if not (Atomic.get use_traces) then None
  else begin
    let pop, cfg = build ctx bm ~input in
    Some (Rs_behavior.Trace_store.cached ~key:(stream_key (ckey ctx bm input)) pop cfg)
  end

(* Fabricated traces (the adversarial scenario families) are keyed by a
   caller-supplied string instead of a ckey: their populations are not
   benchmark-derived.  Routing the recording through a memo gives it the
   same bounded-retry semantics as every other compute body — a fault at
   the [trace_store.record] site is retried away instead of failing the
   experiment.  The benchmark paths above get this for free because
   their recordings happen inside the [run]/[profile] bodies. *)
let fabricated : (string, Rs_behavior.Trace_store.t) memo = memo "trace"

let fabricated_trace ~key pop cfg =
  find_or_compute fabricated ~bench:key key (fun () ->
      Rs_behavior.Trace_store.cached ~key pop cfg)

(* Every checkpoint window the suite requests anywhere: the paper-time
   windows (figure5's default profiles), the context's compressed windows
   (figure2) and figure3's invariance horizon.  Collecting each profile
   once with the union lets all three experiments share it; checkpoints
   are independent, so extra windows never change the counts at the
   requested ones. *)
let canonical_windows (ctx : Context.t) extra =
  let all =
    Array.concat [ Static.windows; Static.windows_for ~tau:ctx.tau; [| 20_000 |]; extra ]
  in
  let sorted = List.sort_uniq compare (Array.to_list all) in
  Array.of_list sorted

let covers p needed =
  let have = Rs_sim.Profile.windows p in
  Array.for_all (fun w -> Array.exists (( = ) w) have) needed

let rec profile ?(windows = Static.windows) ctx bm ~input =
  let key = ckey ctx bm input in
  let collect extra =
    Fault.hit ~site:"cache.profile" ~key:(bm.BM.name ^ "/" ^ input_tag input);
    let pop, cfg = build ctx bm ~input in
    Rs_sim.Profile.collect
      ~windows:(canonical_windows ctx extra)
      ?trace:(trace ctx bm ~input) pop cfg
  in
  let p = find_or_compute profiles ~bench:bm.BM.name key (fun () -> collect windows) in
  if covers p windows then p
  else if current_txn () <> None then begin
    (* Inside a speculative transaction the in-place upgrade below would
       mutate the global entry; just compute the wider profile privately
       — it is dropped with the arm if the speculation cancels. *)
    count_lookup profiles ~bench:bm.BM.name ~hit:false;
    collect windows
  end
  else begin
    (* A window outside the canonical set: upgrade the entry in place
       with the union so later callers keep sharing one profile. *)
    Mutex.lock lock;
    match Hashtbl.find_opt profiles.table key with
    | Some (Ready stale) when not (covers stale windows) ->
      Hashtbl.replace profiles.table key In_flight;
      let gen0 = !generation in
      Mutex.unlock lock;
      count_lookup profiles ~bench:bm.BM.name ~hit:false;
      let slot =
        attempt_body profiles ~bench:bm.BM.name ~attempts:0 (fun () ->
            collect (Array.append (Rs_sim.Profile.windows stale) windows))
      in
      publish profiles key slot ~gen0;
      (match slot with Ready v -> v | Failed (e, _) -> raise e | In_flight -> assert false)
    | _ ->
      (* Another domain upgraded, recomputed or reset the entry while we
         looked: retry from the top (find_or_compute handles waiting). *)
      Mutex.unlock lock;
      profile ~windows ctx bm ~input
  end

let run ctx bm ~input params =
  find_or_compute runs ~bench:bm.BM.name
    (ckey ctx bm input, params)
    (fun () ->
      Fault.hit ~site:"cache.run"
        ~key:
          (Printf.sprintf "%s/%s/%04x" bm.BM.name (input_tag input)
             (Hashtbl.hash params land 0xffff));
      let pop, cfg = build ctx bm ~input in
      Rs_sim.Engine.run ~label:bm.name ?trace:(trace ctx bm ~input) pop cfg params)

(* MSSP timing runs: [Machine.run]'s stats are a pure function of the
   seed, the workload spec (its [tasks] included), the controller
   parameters and the machine configuration — a run's counters are its
   own, however many runs shared the instance before it — so those four
   are the whole key.  The context's scale and tau never reach the
   model. *)
let mssp_runs :
    (int * Rs_mssp.Workload.t * Rs_core.Params.t * Rs_mssp.Config.t, Rs_mssp.Machine.stats) memo
    =
  memo "mssp"

let mssp ?(config = Rs_mssp.Config.default) (spec : Rs_mssp.Workload.t) ~seed ~instance params =
  find_or_compute mssp_runs ~bench:spec.name (seed, spec, params, config) (fun () ->
      let inst = Lazy.force instance in
      if inst.Rs_mssp.Workload.spec <> spec then
        invalid_arg "Cache.mssp: instance of a different workload spec";
      Rs_mssp.Machine.run ~config inst ~seed ~params)

let stats () =
  {
    build_hits = Atomic.get builds.hits;
    build_misses = Atomic.get builds.misses;
    profile_hits = Atomic.get profiles.hits;
    profile_misses = Atomic.get profiles.misses;
    run_hits = Atomic.get runs.hits;
    run_misses = Atomic.get runs.misses;
    mssp_hits = Atomic.get mssp_runs.hits;
    mssp_misses = Atomic.get mssp_runs.misses;
  }

(* The rate keeps its original scope (builds, profiles, engine runs), so
   it stays comparable with measurements taken before MSSP runs were
   memoised; [describe] reports those separately. *)
let hit_rate s =
  let hits = s.build_hits + s.profile_hits + s.run_hits in
  let total = hits + s.build_misses + s.profile_misses + s.run_misses in
  if total = 0 then 0.0 else float_of_int hits /. float_of_int total

let describe s =
  Printf.sprintf
    "cache: builds %d/%d, profiles %d/%d, runs %d/%d hit/miss (%.0f%% hit rate); mssp runs \
     %d/%d hit/miss"
    s.build_hits s.build_misses s.profile_hits s.profile_misses s.run_hits s.run_misses
    (100.0 *. hit_rate s) s.mssp_hits s.mssp_misses

let reset () =
  Mutex.lock lock;
  incr generation;
  List.iter (fun clear -> clear ()) !resetters;
  (* wake any waiter parked on an [In_flight] entry the reset just
     dropped: it re-checks, finds nothing and recomputes *)
  Condition.broadcast published;
  Mutex.unlock lock;
  Rs_behavior.Trace_store.clear ()

module Private = struct
  type nonrec ('k, 'v) memo = ('k, 'v) memo

  let memo = memo
  let find_or_compute = find_or_compute
end
