(* Deterministic, seed-driven fault injection.

   The action at a site is a pure function of (plan seed, site, key,
   attempt): each consult derives a private Prng stream from those four
   values and draws the raise/delay decisions from it, so a failure
   schedule depends only on how many times each (site, key) pair has
   been consulted — which the call sites keep deterministic — never on
   wall-clock or domain interleaving.

   Every injection site consults it through the one [Rs_obs.Fault_hook],
   which [configure] points at [hit]; only the CLI, which installs a
   plan, depends on this library. *)

module Prng = Rs_util.Prng

type plan = {
  seed : int;
  rate : float;
  delay : float;
  delay_us : int;
  sites : string list;
  delay_sites : string list;
  max_raises : int;
}

let default_plan =
  {
    seed = 1;
    rate = 0.0;
    delay = 0.0;
    delay_us = 200;
    sites = [];
    delay_sites = [];
    max_raises = max_int;
  }

type action = Pass | Raise | Delay of int

exception Injected of { site : string; key : string; attempt : int }

let () =
  Printexc.register_printer (function
    | Injected { site; key; attempt } ->
      Some (Printf.sprintf "Fault.Injected(%s/%s attempt %d)" site key attempt)
    | _ -> None)

let m_injected = Rs_obs.Metrics.counter "fault.injected"
let m_delayed = Rs_obs.Metrics.counter "fault.delayed"

let enabled_flag = Atomic.make false
let current = Atomic.make default_plan

(* Attempt and raise counts per (site, key), guarded by [lock].  Raise
   counts implement the per-key budget that lets a plan promise "fails
   at most K times, then succeeds" — the property the cache's bounded
   retries turn into byte-identical output. *)
let lock = Mutex.create ()
let attempts : (string * string, int) Hashtbl.t = Hashtbl.create 64
let raised_counts : (string * string, int) Hashtbl.t = Hashtbl.create 64

let enabled () = Atomic.get enabled_flag

let matches sites site =
  sites = [] || List.exists (fun p -> String.starts_with ~prefix:p site) sites

let stream_seed plan ~site ~key ~attempt =
  let h = ref (plan.seed lxor 0x51F15EED) in
  let mix c = h := (!h * 131) + Char.code c in
  String.iter mix site;
  mix ':';
  String.iter mix key;
  !h lxor (attempt * 0x85EBCA6B)

let decide plan ~site ~key ~attempt =
  let g = Prng.create (stream_seed plan ~site ~key ~attempt) in
  (* Draw everything unconditionally so eligibility filters never shift
     the stream: the schedule at one site is independent of the others. *)
  let raise_draw = Prng.float g 1.0 < plan.rate in
  let delay_draw = Prng.float g 1.0 < plan.delay in
  let delay_len = 1 + Prng.int g (max 1 plan.delay_us) in
  if raise_draw && matches plan.sites site then Raise
  else if delay_draw && matches plan.delay_sites site then Delay delay_len
  else Pass

let trace_fault ~site ~key ~attempt action =
  (* Never emit for trace.write itself: the emit would consult the same
     hook again and recurse. *)
  if site <> "trace.write" && Rs_obs.Trace.enabled () then
    Rs_obs.Trace.emit "fault"
      [ S ("site", site); S ("key", key); I ("attempt", attempt); S ("action", action) ]

let hit ~site ~key =
  if Atomic.get enabled_flag then begin
    let plan = Atomic.get current in
    let k = (site, key) in
    Mutex.lock lock;
    let attempt = Option.value ~default:0 (Hashtbl.find_opt attempts k) in
    Hashtbl.replace attempts k (attempt + 1);
    let raises_so_far = Option.value ~default:0 (Hashtbl.find_opt raised_counts k) in
    Mutex.unlock lock;
    match decide plan ~site ~key ~attempt with
    | Raise when raises_so_far < plan.max_raises ->
      Mutex.lock lock;
      Hashtbl.replace raised_counts k (raises_so_far + 1);
      Mutex.unlock lock;
      Rs_obs.Metrics.incr m_injected;
      trace_fault ~site ~key ~attempt "raise";
      raise (Injected { site; key; attempt })
    | Raise -> () (* per-key raise budget spent: pass so retries can succeed *)
    | Delay us ->
      Rs_obs.Metrics.incr m_delayed;
      trace_fault ~site ~key ~attempt "delay";
      Unix.sleepf (float_of_int us /. 1_000_000.)
    | Pass -> ()
  end

let noop ~site:_ ~key:_ = ()

let reset () =
  Mutex.lock lock;
  Hashtbl.reset attempts;
  Hashtbl.reset raised_counts;
  Mutex.unlock lock

let configure plan =
  reset ();
  Atomic.set current plan;
  Rs_obs.Fault_hook.hook := hit;
  Atomic.set enabled_flag true

let disable () =
  Atomic.set enabled_flag false;
  Rs_obs.Fault_hook.hook := noop

let parse_spec s =
  let parse_sites v = List.filter (fun x -> x <> "") (String.split_on_char ':' v) in
  let field plan kv =
    match String.index_opt kv '=' with
    | None -> Error (Printf.sprintf "fault spec: expected key=value, got %S" kv)
    | Some i ->
      let k = String.sub kv 0 i in
      let v = String.sub kv (i + 1) (String.length kv - i - 1) in
      let int () =
        match int_of_string_opt v with
        | Some n -> Ok n
        | None -> Error (Printf.sprintf "fault spec: %s expects an integer, got %S" k v)
      in
      let probability () =
        match float_of_string_opt v with
        | Some f when f >= 0.0 && f <= 1.0 -> Ok f
        | _ -> Error (Printf.sprintf "fault spec: %s expects a probability in [0,1], got %S" k v)
      in
      (match k with
      | "seed" -> Result.map (fun seed -> { plan with seed }) (int ())
      | "rate" -> Result.map (fun rate -> { plan with rate }) (probability ())
      | "delay" -> Result.map (fun delay -> { plan with delay }) (probability ())
      | "delay_us" -> Result.map (fun delay_us -> { plan with delay_us }) (int ())
      | "max_raises" -> Result.map (fun max_raises -> { plan with max_raises }) (int ())
      | "sites" -> Ok { plan with sites = parse_sites v }
      | "delay_sites" -> Ok { plan with delay_sites = parse_sites v }
      | _ -> Error (Printf.sprintf "fault spec: unknown key %S" k))
  in
  String.split_on_char ',' s
  |> List.map String.trim
  |> List.filter (fun x -> x <> "")
  |> List.fold_left (fun acc kv -> Result.bind acc (fun p -> field p kv)) (Ok default_plan)

let configure_spec s = Result.map configure (parse_spec s)

let env_var = "RS_FAULTS"

let configure_from_env () =
  match Sys.getenv_opt env_var with
  | None | Some "" -> Ok ()
  | Some s -> configure_spec s

let injected () = Rs_obs.Metrics.counter_value m_injected
