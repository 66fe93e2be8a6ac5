module Prng = Rs_util.Prng
module Behavior = Rs_behavior.Behavior
module Population = Rs_behavior.Population
module Stream = Rs_behavior.Stream
module Params = Rs_core.Params

type t = { name : string; summary : string }

let instr_per_branch = 5.0

(* Derived controller thresholds: every schedule below is expressed in
   these quantities, so the populations track any Params the caller
   sweeps (tau compression, threshold ablations) instead of hard-coding
   Table 2. *)

let monitor_execs p = Params.monitor_samples p * p.Params.monitor_stride

let evict_misses (p : Params.t) =
  match p.eviction_mode with
  | Params.Continuous -> (p.evict_threshold + p.misspec_step - 1) / p.misspec_step
  | Params.Sampled { samples; _ } -> samples

let drain_execs (p : Params.t) =
  (* executions in the majority direction that return a continuous
     eviction counter from just under the threshold to zero *)
  let peak = (evict_misses p - 1) * p.misspec_step in
  (peak + p.correct_step - 1) / p.correct_step

(* Deployment lag of one branch, in its own executions: the controller
   requests a code change and the deployed code follows
   [optimization_latency] global instructions later; a branch owning
   [1/share] of the stream executes [latency / (ipb / share)] times in
   that window.  Padded by a quarter plus slack so sampling noise in the
   interleaving cannot push a monitor window across a region boundary. *)
let latency_execs (p : Params.t) ~n_branches =
  let raw =
    int_of_float
      (ceil
         (float_of_int p.optimization_latency
         /. (instr_per_branch *. float_of_int (max 1 n_branches))))
  in
  raw + (raw / 4) + 64

let osc_flip = { name = "osc_flip"; summary = "bias flips exactly one eviction past selection" }

let near_evict =
  { name = "near_evict"; summary = "misspeculation bursts one miss short of eviction" }

let revisit_starve =
  { name = "revisit_starve"; summary = "unbiased during every monitor window, biased otherwise" }

let mixed = { name = "mixed"; summary = "all three classes diluted by benign background traffic" }

let all = [ osc_flip; near_evict; revisit_starve; mixed ]

let names = List.map (fun t -> t.name) all

let find name = List.find (fun t -> t.name = name) all

(* A proto carries the behaviour and the per-branch execution budget;
   weights are proportional to budgets so every branch finishes its
   schedule at roughly the end of the stream. *)
type proto = { budget : int; behavior : Behavior.t }

(* Oscillation at the selection/eviction thresholds: perfectly biased
   regions of [m + e + lat] executions in alternating directions.  Each
   region replays the same script — classify after [m] executions,
   deploy [lat] later, take exactly [e] misses when the region flips,
   evict, re-monitor inside the new region — so the branch is selected
   and evicted once per region until the oscillation cap retires it. *)
let osc_protos (p : Params.t) ~n rng =
  let region = monitor_execs p + evict_misses p + latency_execs p ~n_branches:n in
  let budget = (p.oscillation_limit + 2) * region in
  List.init n (fun _ ->
      let dir = Prng.bool rng in
      let p_first = if dir then 1.0 else 0.0 in
      { budget; behavior = Behavior.Periodic { region; p_first; p_second = 1.0 -. p_first } })

(* Maximum sustained misspeculation with zero evictions: sawtooth bursts
   of [e - 1] misses (one short of the threshold) separated by exactly
   the drain run that returns the counter to zero. *)
let near_protos (p : Params.t) ~n ~cycles rng =
  let m = monitor_execs p in
  let lat = latency_execs p ~n_branches:n in
  let burst = max 1 (evict_misses p - 1) in
  let drain = drain_execs p in
  List.init n (fun _ ->
      let dir = Prng.bool rng in
      let phases = ref [ { Behavior.length = m + lat; p_taken = 1.0 } ] in
      for _ = 1 to cycles do
        phases :=
          { Behavior.length = drain; p_taken = 1.0 }
          :: { Behavior.length = burst; p_taken = 0.0 }
          :: !phases
      done;
      phases := { Behavior.length = 1; p_taken = 1.0 } :: !phases;
      let phases = Benchmark.flip_phases dir (Array.of_list (List.rev !phases)) in
      { budget = m + lat + (cycles * (burst + drain)); behavior = Behavior.Phases phases })

(* Starve the revisit arc: a coin flip for exactly the [m] executions of
   every monitor window, perfect bias for the [wait_period] in between.
   The windows land on the unbiased stretch every time — the controller
   never selects a branch that is biased for w/(m+w) of its life. *)
let starve_protos (p : Params.t) ~n ~cycles rng =
  let m = monitor_execs p in
  let w = p.wait_period in
  List.init n (fun _ ->
      let dir = Prng.bool rng in
      let phases = ref [] in
      for _ = 1 to cycles do
        phases :=
          { Behavior.length = w; p_taken = 1.0 } :: { Behavior.length = m; p_taken = 0.5 }
          :: !phases
      done;
      phases := { Behavior.length = 1; p_taken = 0.5 } :: !phases;
      let phases = Benchmark.flip_phases dir (Array.of_list (List.rev !phases)) in
      { budget = cycles * (m + w); behavior = Behavior.Phases phases })

let background_protos ~n rng =
  List.init n (fun _ ->
      let dir = Prng.bool rng in
      let p = if dir then 0.997 else 0.003 in
      { budget = 1_200; behavior = Behavior.Stationary p })

let build t ~params ~seed ~scale =
  if scale <= 0.0 || scale > 1.0 then invalid_arg "Adversary.build: scale must be in (0, 1]";
  (match Params.validate params with
  | Ok () -> ()
  | Error m -> invalid_arg ("Adversary.build: " ^ m));
  let rng = Prng.create ((seed * 1_000_003) + Hashtbl.hash ("adversary:" ^ t.name)) in
  let s = Benchmark.scale_count scale in
  let protos =
    match t.name with
    | "osc_flip" -> osc_protos params ~n:(s 6) rng
    | "near_evict" -> near_protos params ~n:(s 6) ~cycles:4 rng
    | "revisit_starve" -> starve_protos params ~n:(s 4) ~cycles:3 rng
    | "mixed" ->
      let n_special = s 2 in
      osc_protos params ~n:n_special rng
      @ near_protos params ~n:n_special ~cycles:3 rng
      @ starve_protos params ~n:n_special ~cycles:2 rng
      @ background_protos ~n:(s 24) rng
    | _ -> assert false
  in
  let specs =
    List.mapi
      (fun i p -> { Population.id = i; behavior = p.behavior; weight = float_of_int p.budget })
      protos
  in
  let length = List.fold_left (fun acc p -> acc + p.budget) 0 protos in
  ( Population.create (Array.of_list specs),
    { Stream.seed = (seed * 31) + Hashtbl.hash t.name mod 1_000; instr_per_branch; length } )
